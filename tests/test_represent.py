"""Integral representation v(r) of the nonlinearity against the log kernel.

For m = 1 the spherical average of the kernel has the closed form
log(s / max(r, s)), and for every m an adaptive quadrature over the polar
angle is an independent oracle for the closed-form averages; the m = 2
standard solution pins the full pipeline because u - v must be constant.
"""

import dataclasses
import math
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyliouville import represent
from polyliouville.represent import (
    KernelCache,
    _prefactor,
    _tail_bound,
    compute_lap_v,
    compute_v,
    far_field_ready,
    rescale_check,
)
from polyliouville.shooter import shoot, standard_config, standard_solution
from polyliouville.tailfit import fit_even_polynomial
from test_greenball import _panel_moment_reference


def test_kernel_average_m1_closed_form():
    cache = KernelCache(1)
    for r, s in [(0.5, 2.0), (2.0, 0.5), (1.3, 1.3), (0.0, 1.0), (3.0, 3.0)]:
        expected = math.log(s / max(r, s))
        assert cache.average_many(r, np.array([s]))[0] == pytest.approx(expected, abs=1e-10)


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
    origin = np.array([0.0])
    assert KernelCache(2).average_many(3.0, origin, 1)[0] == pytest.approx(3.0**-2, rel=1e-14)
    assert KernelCache(3).average_many(2.0, origin, 2)[0] == pytest.approx(2.0**-4, rel=1e-14)


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


def _tail_oracle(m, r_end, r, log_c, q, j):
    """int_{r_end}^inf C s^(2m-1-q) k_j(r, s) ds by adaptive quadrature, with
    the exact kernel bounds k_0 = -log(1 - r/s) and k_j = (s - r)^(-2j)."""
    from scipy.integrate import quad

    def f(s):
        k = -math.log1p(-r / s) if j == 0 else (s - r) ** (-2 * j)
        return math.exp(log_c + (2 * m - 1 - q) * math.log(s)) * k

    near, _ = quad(f, r_end, 2 * r_end, epsabs=0.0, epsrel=1e-12, limit=200)
    far, _ = quad(f, 2 * r_end, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return near + far


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_tail_bound_covers_quadrature_of_kernel_bound(m):
    # the closed form bounds the kernel bound's integral to infinity, and
    # is no more than 2 4^j times it at r <= r_end/2
    r_end = 50.0
    traj = types.SimpleNamespace(m=m, r_max=r_end)
    x = np.array([1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    for q in (2 * m + 0.2, 2 * m + 1.0, 2 * m + 5.0, 40.0):
        log_c = (q - 2 * m) * math.log(r_end)
        for j in range(m):
            got = _tail_bound(traj, x * r_end, log_c, q, j)
            want = np.array([_tail_oracle(m, r_end, xi * r_end, log_c, q, j) for xi in x])
            assert np.all(got >= want), (q, j)
            assert np.all(got[x <= 0.5] <= 2 * 4**j * want[x <= 0.5]), (q, j)


@pytest.mark.parametrize("m, r_end", [(4, 300.0), (4, 500.0), (4, 1000.0),
                                      (5, 100.0), (5, 300.0)])
def test_standard_high_m_bars_finite_and_covering(m, r_end):
    # these far fields read float64 roundoff, and what the representation
    # makes of them depends on the OpenBLAS kernel: a refusal (a negative
    # fitted q, or a shot ending in step_underflow), or values near the
    # float range with bars to match.  The far-field gate refuses every
    # one; every returned value is skipped or covers the closed form, and
    # [4-300] is accepted with finite bars on every kernel
    traj, rep = shoot(standard_config(m, r_end=r_end))
    assert not far_field_ready(traj, rep.w0_error_estimate)
    strict = (m, r_end) == (4, 300.0)
    radii = np.r_[0.0, np.geomspace(0.1, r_end / 2, 30)]
    exact = standard_solution(m, 1.0, radii)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            profs = [(compute_v(traj, radii), -np.log1p(radii**2))]
            profs += [(compute_lap_v(traj, j, radii), exact.w[j]) for j in range(1, m)]
        except ValueError as exc:
            assert not strict
            assert str(exc) == represent._refusal(traj)[0]
            return
        for j, (prof, want) in enumerate(profs):
            skipped = np.isnan(prof.values) & (prof.err == math.inf)
            assert np.all(skipped | (np.abs(prof.values - want) <= prof.err)), j
            assert not strict or np.all(np.isfinite(prof.err)), j


def test_truncated_trajectory_rejected():
    traj, _ = shoot(standard_config(2, r_end=5.0))
    with pytest.raises(ValueError):
        compute_v(traj, [1.0])


def test_fit_wrapper_accepts_arrays():
    r = np.linspace(1.0, 4.0, 10)
    fit = fit_even_polynomial((r, 3.0 - 2.0 * r**2), 4)
    assert fit.inferred_degree == 2
    assert fit.leading_coefficient == pytest.approx(-2.0, rel=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_prefactor_is_its_exact_rational(m):
    # (2m-1)! omega_{2m} / gamma_m = (2m-1)!! / (2m-2)!! for v; Delta^j v adds
    # (-1)^j 2^{2j-1} (j-1)! (m-1)! / (m-j-1)!, the laplog coefficient
    base = Fraction(math.prod(range(1, 2 * m, 2)), math.prod(range(2, 2 * m - 1, 2)))
    assert _prefactor(m, 0) == float(base)
    for j in range(1, m):
        lap = Fraction(2 ** (2 * j - 1) * math.factorial(j - 1) * math.factorial(m - 1),
                       math.factorial(m - j - 1))
        assert _prefactor(m, j) == float((-1) ** j * lap * base), (m, j)


def _split_reference(sep, p, log=False):
    """(P, Q) as `_SeparableIntegral._split` gave them before power tables:
    both sides at once, every moment from the raw panel arrays."""
    whole, lower, upper = sep.quad[log]
    full = _panel_moment_reference(sep.lo, sep.h, whole, p)
    with np.errstate(invalid="ignore"):
        part_lower = np.where(sep.x_lower > 0,
                              _panel_moment_reference(sep.a, sep.x_lower, lower, p), 0.0)
        part_upper = np.where(sep.x_upper > 0,
                              _panel_moment_reference(sep.r, sep.x_upper, upper, p), 0.0)
        if log:
            g_whole, g_lower, _ = sep.quad[False]
            full[0] = represent._log_moment_from_zero(sep.h[0], [c[0] for c in g_whole], p)
            part_lower = np.where(
                sep.a == 0, represent._log_moment_from_zero(sep.x_lower, g_lower, p),
                part_lower)
    below = np.concatenate([[0.0], np.cumsum(full)])
    above = np.concatenate([np.cumsum(full[::-1])[::-1], [0.0]])
    return below[sep.i] + part_lower, above[sep.i + 1] + part_upper


def _radii(traj):
    """r = 0, off-grid radii, a node, the last node and past it."""
    return np.r_[0.0, np.geomspace(0.1, traj.r_max / 2, 40), traj.grid[60],
                 traj.r_max, 1.5 * traj.r_max]


@pytest.mark.parametrize("run", ["nonstd2", "std3_500"])
def test_one_sided_split_keeps_every_bit(run, request):
    traj, _ = request.getfixturevalue(run)
    grid = traj.grid
    mids = 0.5 * (grid[:-1] + grid[1:])
    sep = represent._SeparableIntegral(
        grid, mids, represent._density(traj), represent._density_at(traj, mids),
        np.unique(_radii(traj)), traj)
    top = 4 * traj.m
    # highest p first, so later calls read tables grown for earlier ones
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(top, -1, -1):
            for log in (False, True):
                want = _split_reference(sep, p, log)
                for side, ref in zip("PQ", want):
                    got = sep._split(p, side, log)
                    assert got.tobytes() == ref.tobytes(), (p, side, log)


@pytest.mark.parametrize("run", ["std1", "std2", "std3_500", "nonstd2"])
def test_power_tables_keep_every_bit(run, request, monkeypatch):
    # v and Delta^j v with their bars, against the moment pass as it was
    if run == "std1":
        traj, _ = shoot(standard_config(1))
    else:
        traj, _ = request.getfixturevalue(run)
    radii = np.unique(_radii(traj))

    def profiles():
        out = [compute_v(traj, radii)]
        out += [compute_lap_v(traj, j, radii) for j in range(1, traj.m)]
        return [(prof.values.tobytes(), prof.err.tobytes()) for prof in out]

    got = profiles()
    monkeypatch.setattr(represent._SeparableIntegral, "_split",
                        lambda sep, p, side, log=False: _split_reference(sep, p, log)[
                            "PQ".index(side)])
    assert profiles() == got
