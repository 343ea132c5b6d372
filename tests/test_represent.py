"""Integral representation v(r) of the nonlinearity against the log kernel.

For m = 1 the spherical average of the kernel has the closed form
log(s / max(r, s)), and for every m an adaptive quadrature over the polar
angle is an independent oracle for the closed-form averages; the m = 2
standard solution pins the full pipeline because u - v must be constant.
"""

import dataclasses
import math

import numpy as np
import pytest

from polyliouville.represent import (
    KernelCache,
    compute_lap_v,
    compute_v,
    fit_even_polynomial,
    kernel_avg,
    rescale_check,
)
from polyliouville.shooter import shoot, standard_config


def test_kernel_average_m1_closed_form():
    for r, s in [(0.5, 2.0), (2.0, 0.5), (1.3, 1.3), (0.0, 1.0), (3.0, 3.0)]:
        expected = math.log(s / max(r, s))
        assert kernel_avg(r, s, 1) == pytest.approx(expected, abs=1e-10)


def _oracle_average(r, s, m, j):
    """The spherical average as an adaptive quadrature over the polar angle
    with weight sin^{2m-2} theta, independent of the closed form."""
    from scipy.integrate import quad

    def kernel(theta):
        dist_sq = (r - s) ** 2 + 4.0 * r * s * math.sin(theta / 2) ** 2
        val = math.log(s) - 0.5 * math.log(dist_sq) if j == 0 else dist_sq ** (-j)
        return val * math.sin(theta) ** (2 * m - 2)

    # breakpoints resolve the peak at theta ~ |r - s| / r near the diagonal
    value, _ = quad(kernel, 0.0, math.pi, points=[1e-7, 1e-5, 1e-3, 1e-1],
                    limit=500, epsabs=1e-13, epsrel=1e-11)
    norm = math.sqrt(math.pi) * math.gamma(m - 0.5) / math.gamma(m)
    return value / norm


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_kernel_average_matches_quadrature_oracle(m):
    cache = KernelCache(m)
    for r in (0.4, 2.5):
        sources = np.array([r / 3, r * (1 - 1e-6), r, r * (1 + 1e-6), 3 * r])
        for j in range(m):
            got = cache.average_many(r, sources, j)
            want = [_oracle_average(r, s, m, j) for s in sources]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (r, j)


def test_kernel_higher_order_at_origin():
    # the iterated kernel reduces to the power law r^{-2j} when s = 0
    assert kernel_avg(3.0, 0.0, 2, j=1) == pytest.approx(3.0**-2, rel=1e-14)
    assert kernel_avg(2.0, 0.0, 3, j=2) == pytest.approx(2.0**-4, rel=1e-14)
    with pytest.raises(ValueError):
        kernel_avg(0.0, 0.0, 2, j=1)


def test_compute_v_standard_m2(std2):
    traj, _ = std2
    radii = np.linspace(0.0, 20.0, 21)
    prof = compute_v(traj, radii)
    exact = -np.log(1.0 + radii**2)
    err = np.abs(prof.values - exact)
    assert np.max(err) < 5e-6
    # reported bars must cover the actual deviation
    assert np.all(err <= prof.err + 1e-12)


def test_u_minus_v_is_constant(std2):
    traj, _ = std2
    radii = np.linspace(0.0, 20.0, 41)
    prof = compute_v(traj, radii)
    u = np.interp(radii, traj.grid, traj.u)
    gap = u - prof.values
    assert np.max(gap) - np.min(gap) < 1e-4
    assert np.median(gap) == pytest.approx(math.log(2.0), abs=1e-4)


def test_far_field_log_slope(std2):
    traj, rep = std2
    radii = np.array([500.0, 1000.0])
    prof = compute_v(traj, radii)
    slope = (prof.values[1] - prof.values[0]) / math.log(2.0)
    assert slope == pytest.approx(-2.0 * rep.alpha_final, rel=0.01)
    assert prof.values[1] / math.log(1000.0) == pytest.approx(-2.0, rel=0.05)


def test_compute_lap_v_matches_trajectory(std2):
    traj, _ = std2
    radii = np.array([2.0, 5.0, 10.0])
    prof = compute_lap_v(traj, 1, radii)
    w1 = traj.sample_w(1, radii)
    diff = np.abs(prof.values - w1)
    assert np.max(diff) < 5e-6
    assert np.all(diff <= prof.err + 1e-12)


def test_compute_lap_v_near_origin(std2, std3_500):
    radii = np.geomspace(0.05, 3.0, 40)
    for traj, orders in ((std2[0], (1,)), (std3_500[0], (1, 2))):
        for j in orders:
            prof = compute_lap_v(traj, j, radii)
            assert np.all(np.isfinite(prof.values)), j
            diff = np.abs(prof.values - traj.sample_w(j, radii))
            assert np.all(diff <= prof.err), j


def test_compute_v_covers_closed_form_on_and_off_grid(std2):
    # r = 0, exact grid nodes, the last node, and past it (clamped moments)
    traj, _ = std2
    radii = np.concatenate([[0.0], traj.grid[[1, 2, 50, 400, 900, 1300]],
                            [traj.r_max, 1.5 * traj.r_max]])
    prof = compute_v(traj, radii)
    assert prof.values[0] == 0.0
    err = np.abs(prof.values + np.log1p(radii**2))
    assert np.all(err <= prof.err)


def test_compute_v_far_field_m3_exact_density(std3_500):
    # with the closed-form density only quadrature error is left; the r^4
    # factor on the suffix moments amplifies any cancellation in them
    traj, _ = std3_500
    w = traj.w.copy()
    w[0] = np.log(2.0 / (1.0 + traj.grid**2))
    exact_traj = dataclasses.replace(traj, w=w)
    radii = np.geomspace(50.0, 500.0, 8)
    prof = compute_v(exact_traj, radii)
    err = np.abs(prof.values + np.log1p(radii**2))
    assert np.max(err) < 3e-7
    assert np.all(err <= prof.err)


def test_compute_lap_v_validates_order(std2):
    traj, _ = std2
    with pytest.raises(ValueError):
        compute_lap_v(traj, 2, [1.0])
    with pytest.raises(ValueError):
        compute_lap_v(traj, 0, [1.0])


def test_rescale_covariance(std2):
    traj, _ = std2
    assert rescale_check(traj, 1.0) < 1e-14
    assert rescale_check(traj, 2.0) < 1e-8


def test_nonstandard_profile_supported(nonstd2):
    # the source decays faster than any power here; the tail guard must accept
    traj, rep = nonstd2
    radii = np.geomspace(1.0, 400.0, 12)
    prof = compute_v(traj, radii)
    assert np.all(np.isfinite(prof.values))
    u = np.interp(radii, traj.grid, traj.u)
    fit = fit_even_polynomial((radii, u - prof.values), 2)
    assert fit.inferred_degree == 2
    assert fit.leading_coefficient == pytest.approx(
        rep.delta_limits[0].value / 8.0, rel=1e-3
    )


def test_truncated_trajectory_rejected():
    traj, _ = shoot(standard_config(2, r_end=5.0))
    with pytest.raises(ValueError):
        compute_v(traj, [1.0])


def test_fit_wrapper_accepts_pairs():
    r = np.linspace(1.0, 4.0, 10)
    fit = fit_even_polynomial((r, 3.0 - 2.0 * r**2), 4)
    assert fit.inferred_degree == 2
    assert fit.leading_coefficient == pytest.approx(-2.0, rel=1e-10)
    pairs = list(zip(r, 3.0 - 2.0 * r**2))
    fit2 = fit_even_polynomial(pairs, 4)
    assert fit2.inferred_degree == 2
