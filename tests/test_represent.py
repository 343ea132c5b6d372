"""Integral representation v(r) of the nonlinearity against the log kernel.

For m = 1 the spherical average of the kernel has the closed form
log(s / max(r, s)), and for every m an adaptive quadrature over the polar
angle is an independent oracle for the closed-form averages; the m = 2
standard solution pins the full pipeline because u - v must be constant.
"""

import collections
import dataclasses
import math
import re
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyliouville import represent
from polyliouville.cli import analyze
from polyliouville.represent import (
    KernelCache,
    _prefactor,
    _tail_bound,
    compute_lap_v,
    compute_v,
    far_field_refusal,
    rescale_check,
)
from polyliouville.shooter import (
    ShootingConfig,
    shoot,
    standard_config,
    standard_laplacians,
    standard_solution,
)
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


def _about_mu(run, mu=1.25):
    """A standard run's u_1 written about the reference mu, with the exact
    deviation W = u_1 - u_mu at the nodes: v = v_mu + V, and V integrates
    a closed-form density that is not 0, unlike that of the run itself."""
    traj, rep = run
    nodes = [standard_solution(traj.m, lam, traj.grid) for lam in (1.0, mu)]
    off = dataclasses.replace(traj, mu=mu, W=nodes[0].w - nodes[1].w, P=nodes[0].p - nodes[1].p)
    assert off.W.any()
    return off, rep


@pytest.fixture(scope="module")
def off1(std1):
    """std1's u_1 written about mu = 1.25 (`_about_mu`)."""
    return _about_mu(std1)


@pytest.fixture(scope="module")
def off2(std2):
    """std2's u_1 written about mu = 1.25 (`_about_mu`)."""
    return _about_mu(std2)


@pytest.fixture(scope="module")
def off3_500(std3_500):
    """std3_500's u_1 written about mu = 1.25 (`_about_mu`)."""
    return _about_mu(std3_500)


def test_compute_v_far_field_m3_exact_density(off3_500):
    # with the closed-form density of u_1 about mu = 1.25, only V's
    # quadrature error is left; the r^4 factor on the suffix moments
    # amplifies any cancellation in them
    exact_traj, _ = off3_500
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
    # the order is checked before the radii
    with pytest.raises(ValueError, match=r"j must lie in 1\.\.m-1"):
        compute_lap_v(traj, 0, [math.nan])


@pytest.mark.parametrize("radii", [[1, math.nan], [math.nan], [1, math.inf], [-1, 1], [2, 1]])
@pytest.mark.parametrize("order", [0, 1])
def test_bad_radii_are_refused(std2, radii, order):
    traj, _ = std2
    with pytest.raises(ValueError, match="eval_radii must be finite, >= 0 and strictly"):
        if order:
            compute_lap_v(traj, order, radii)
        else:
            compute_v(traj, radii)


def test_rescale_covariance(std2):
    traj, _ = std2
    assert rescale_check(traj, 1.0) < 1e-14
    assert rescale_check(traj, 2.0) < 1e-8


@pytest.mark.parametrize("scale_r", [0.0, -1.0, math.nan, 200.0, 1e3])
def test_rescale_refuses_a_scale_its_radii_cannot_take(scale_r):
    # from scale_r = 2 r_max on, 0.25 .. r_max / (2 scale_r) no longer
    # increases; the refusal names scale_r, not compute_v's eval_radii
    traj, _ = shoot(standard_config(2, r_end=100.0))
    with pytest.raises(ValueError, match=rf"^scale_r must lie in \(0, 2 r_max = 200\.0\), "
                                         rf"got {re.escape(repr(scale_r))}$"):
        rescale_check(traj, scale_r)
    assert math.isfinite(rescale_check(traj, 199.0))


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
    # these far fields once read float64 roundoff of a shot of u, which the
    # far-field gate refused.  The lam = 1 float data are u_1's, so the shot
    # of the deviation is 0 and passes the gate, and v and every Delta^j v
    # are the closed form, with bars of 0 that cover it
    traj, rep = shoot(standard_config(m, r_end=r_end))
    assert traj.on_family
    assert far_field_refusal(traj, rep.w0_error_estimate) is None
    radii = np.r_[0.0, np.geomspace(0.1, r_end / 2, 30)]
    exact = standard_solution(m, 1.0, radii)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        order = represent._moment_pass(traj, radii)
        for j, want in enumerate([-np.log1p(radii**2), *exact.w[1:m]]):
            prof = order(j)
            assert np.array_equal(prof.values, want), j
            assert not np.any(prof.err), j


@pytest.mark.parametrize("r_end", [30.0, 1000.0])
@pytest.mark.parametrize("m", range(1, 9))
def test_standard_v_is_the_closed_form_with_bars_of_0(m, r_end):
    # on the family's float data W = 0, so V and its bars are 0 and v is
    # v_1 = -log(1 + r^2), Delta^j v = Delta^j u_1, at and past r_end
    traj, _ = shoot(standard_config(m, r_end=r_end))
    radii = np.r_[0.0, np.geomspace(1e-3, 1.5 * r_end, 40)]
    v = compute_v(traj, radii)
    assert np.array_equal(v.values, -np.log1p(radii**2))
    assert not np.any(v.err)
    exact = standard_solution(m, 1.0, radii)
    for j in range(1, m):
        lap = compute_lap_v(traj, j, radii)
        assert np.array_equal(lap.values, exact.w[j]), j
        assert not np.any(lap.err), j


def test_near_standard_bars_come_from_the_deviation(std2):
    # u''(0) = -2.000001: W is small, and so are V's quadrature error and
    # its bars, which now cover no quadrature of e^{4u} itself
    traj, _ = shoot(ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -2.000001)))
    radii = np.geomspace(0.5, 400.0, 12)
    v = compute_v(traj, radii)
    assert np.all(v.err > 0) and np.max(v.err) < 1e-9
    assert np.all(np.abs(v.values + np.log1p(radii**2)) < 1e-3)


def test_refusal_prints_a_growing_density_once(std2):
    # u + 3 log r makes the tail density grow like s^4, a fitted q of -4:
    # the exponent reads s^4.00, never s^--4.00
    traj, _ = std2
    dev = traj.W.copy()
    dev[0, 1:] += 3 * np.log(traj.grid[1:])
    grown = dataclasses.replace(traj, W=dev)
    with pytest.raises(ValueError) as exc:
        compute_v(grown, [1.0])
    assert "exp(2mu) ~ s^4.00 (need q > 4+0.1" in str(exc.value)
    assert str(exc.value) == represent._refusal(grown)[0]
    assert "^--" not in str(exc.value)
    # compute_v's refusal comes first in the far-field rule, word for word
    assert far_field_refusal(grown, 0.0) == str(exc.value)


def test_nan_in_u_is_refused_at_the_end_and_skipped_inside(std2):
    traj, _ = std2
    # at the end the tail decay fit is NaN, which must not pass q > 2m + 0.1
    dev = traj.W.copy()
    dev[0, -1] = math.nan
    at_end = dataclasses.replace(traj, W=dev)
    refusal = represent._refusal(at_end)[0]
    assert refusal is not None and "s^nan" in refusal
    assert far_field_refusal(at_end, 0.0) == refusal
    with pytest.raises(ValueError):
        compute_v(at_end, [1.0])
    # inside, every moment reads the NaN density: v follows compute_lap_v's
    # rule, a NaN value or bar becomes NaN with an infinite bar
    dev = traj.W.copy()
    dev[0, np.searchsorted(traj.grid, 10.0)] = math.nan
    inside = dataclasses.replace(traj, W=dev)
    assert far_field_refusal(inside, 0.0) is None
    order = represent._moment_pass(inside, [0.0, 1.0, 5.0, 20.0, 200.0])
    for j in range(traj.m):
        prof = order(j)
        assert np.all(np.isnan(prof.values)), j
        assert np.all(prof.err == math.inf), j


_FAR = "; explicit radii are still evaluated"


def test_far_field_refuses_a_run_that_stopped_early():
    traj, rep = shoot(ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -1.7)))
    assert traj.termination == "not_entire"
    assert far_field_refusal(traj, rep.w0_error_estimate) == (
        "trajectory terminated with 'not_entire'; "
        "the representation integral needs a full run to r_end")


def test_far_field_refuses_a_short_run_for_its_length():
    # the lambda = 100 round sphere: compute_v accepts it and its estimate
    # passes, so the message names r_end alone
    traj, rep = shoot(ShootingConfig(m=1, initial_derivatives=(5.298317366548036,),
                                     r_end=50.0))
    assert represent._refusal(traj)[0] is None
    assert rep.w0_error_estimate <= 1e-3 * max(1.0, abs(float(traj.u[-1])))
    assert far_field_refusal(traj, rep.w0_error_estimate) == (
        "the far field needs r_end >= 100, got r_end = 50.0" + _FAR)


def test_far_field_refuses_an_estimate_above_its_bound(std2):
    traj, rep = std2
    bound = 1e-3 * max(1.0, abs(float(traj.u[-1])))
    assert far_field_refusal(traj, rep.w0_error_estimate) is None
    assert far_field_refusal(traj, bound) is None
    above = math.nextafter(bound, math.inf)
    assert far_field_refusal(traj, above) == (
        f"w0_error_estimate = {above:.3g} is above the far field's bound "
        f"1e-3 max(1, |u(r_end)|) = {bound:.3g}" + _FAR)


def test_far_field_refuses_a_nan_estimate(std2):
    traj, _ = std2
    bound = 1e-3 * max(1.0, abs(float(traj.u[-1])))
    assert far_field_refusal(traj, math.nan) == (
        f"w0_error_estimate = nan is above the far field's bound "
        f"1e-3 max(1, |u(r_end)|) = {bound:.3g}" + _FAR)


@pytest.fixture(scope="module")
def std1():
    """Standard m = 1 profile (lambda = 1) integrated out to r = 1000."""
    return shoot(standard_config(1))


@pytest.fixture(scope="module")
def big3():
    """m = 3 run of large conformal volume, (log 2, -1.5, 30) to r = 500."""
    return shoot(ShootingConfig(m=3, initial_derivatives=(math.log(2.0), -1.5, 30.0),
                                r_end=500.0))


def _view(traj, j, radii):
    """Delta^j v through the public function of order j."""
    return compute_v(traj, radii) if j == 0 else compute_lap_v(traj, j, radii)


def _bits(prof):
    return prof.values.tobytes(), prof.err.tobytes()


# the std runs have W = 0, and `_moment_pass` returns their closed form
# without forming a moment; off1, off2 and off3_500 integrate the same u
# with a density that is not 0, and so reach the moment machinery
STD_RUNS = ["std1", "std2", "std3_500"]
OFF_RUNS = ["off1", "off2", "off3_500"]
ALL_RUNS = [*STD_RUNS, "nonstd2", "big3", *OFF_RUNS]


@pytest.mark.parametrize("run", STD_RUNS)
def test_family_data_skip_the_moment_machinery(run, request, monkeypatch):
    # W = 0: v is v_mu and Delta^j v is Delta^j u_mu bit for bit, with
    # bars of 0.0, and no _SeparableIntegral is built
    traj, _ = request.getfixturevalue(run)
    radii = np.unique(_radii(traj))

    def never(*args, **kwargs):
        raise AssertionError("_SeparableIntegral built on W = 0")

    monkeypatch.setattr(represent, "_SeparableIntegral", never)
    family = [-np.log1p((traj.mu * radii) ** 2),
              *standard_solution(traj.m, traj.mu, radii).w[1:]]
    order = represent._moment_pass(traj, radii)
    for j in range(traj.m):
        prof = order(j)
        assert prof.values.tobytes() == (family[j] + 0.0).tobytes(), j
        assert prof.err.tobytes() == np.zeros_like(radii).tobytes(), j
        assert _bits(_view(traj, j, radii)) == _bits(prof), j
    assert math.copysign(1.0, order(0).values[0]) == 1.0  # v(0) is +0.0
    # refusal and the radii checks still come first
    with pytest.raises(ValueError, match="terminated with 'step_underflow'"):
        represent._moment_pass(dataclasses.replace(traj, termination="step_underflow"), radii)
    for bad in ([1.0, math.nan], [-1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError, match="eval_radii must be finite"):
            represent._moment_pass(traj, bad)


@pytest.mark.parametrize("run", ALL_RUNS)
def test_v_at_a_radius_depends_on_that_radius_alone(run, request):
    # the panel holding r is split at r with its own samples of g, so the
    # other radii of a call move no bit of a value or bar; making every
    # radius a grid node instead would move values by up to 4e-9 relative
    traj, _ = request.getfixturevalue(run)
    radii = np.unique(np.r_[0.0, np.geomspace(0.3, traj.r_max / 2, 6), traj.grid[60],
                            traj.r_max, 1.5 * traj.r_max])
    order = represent._moment_pass(traj, radii)
    for j in range(traj.m):
        batch = order(j)
        assert _bits(_view(traj, j, radii)) == _bits(batch), j
        for k, r in enumerate(radii):
            one = _view(traj, j, [r])
            assert one.values.tobytes() == batch.values[k:k + 1].tobytes(), (j, r)
            assert one.err.tobytes() == batch.err[k:k + 1].tobytes(), (j, r)


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


@pytest.mark.parametrize("run", ["nonstd2", "std3_500", *OFF_RUNS])
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


@pytest.mark.parametrize("run", ALL_RUNS)
def test_power_tables_keep_every_bit(run, request, monkeypatch):
    # v and Delta^j v with their bars, read off one pass and through the
    # public views, against the moment pass as it was
    traj, _ = request.getfixturevalue(run)
    radii = np.unique(_radii(traj))

    def profiles():
        order = represent._moment_pass(traj, radii)
        out = [_bits(order(j)) for j in range(traj.m)]
        assert [_bits(_view(traj, j, radii)) for j in range(traj.m)] == out
        return out

    got = profiles()
    monkeypatch.setattr(represent._SeparableIntegral, "_split",
                        lambda sep, p, side, log=False: _split_reference(sep, p, log)[
                            "PQ".index(side)])
    assert profiles() == got


_TINY = [5e-324, 1e-300, 1e-160, 1e-100, 1e-20]


@pytest.mark.parametrize("run", ["std2", "nonstd2", "std3_500", *OFF_RUNS])
def test_tiny_radii_read_the_limit_at_zero(run, request):
    # below about 1e-308^(1/(2m-2)) an inner sum's r^(-2j-2k) overflows
    # against a prefix moment that has underflowed to 0, and at 5e-324 the
    # split panel's midpoint rounds onto its end: both once gave NaN +- NaN
    traj, _ = request.getfixturevalue(run)
    radii = np.array([0.0, *_TINY])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        order = represent._moment_pass(traj, radii)
        for j in range(traj.m):
            prof = order(j)
            assert np.all(np.isfinite(prof.values) & np.isfinite(prof.err)), j
            # v(0) = 0 exactly and Delta^j v(0) is the limit; v(r) - v(0) is
            # O(r^2), far below r at these radii
            assert j > 0 or prof.values[0] == 0.0
            gap = np.abs(prof.values[1:] - prof.values[0])
            assert np.all(gap <= prof.err[1:] + radii[1:]), j


def _unguarded_quadratic(left, right, mid, f_left, f_right, f_mid):
    """`represent._quadratic` without its guard for a panel too narrow to
    hold its own midpoint."""
    h, tc = right - left, mid - left
    d2 = ((f_right - f_left) / h - (f_mid - f_left) / tc) / (h - tc)
    return f_left, (f_mid - f_left) / tc - d2 * tc, d2


@pytest.mark.parametrize("run", ALL_RUNS)
def test_narrow_panel_guards_move_no_finite_bit(run, request, monkeypatch):
    # the guards replace only what read NaN or inf without them: the tiny
    # radii, and a radius one ulp above a node, whose split panel is too
    # narrow for a midpoint of its own; on W = 0 the closed form reaches no
    # guard, and every value is finite with or without them
    traj, _ = request.getfixturevalue(run)
    nodes = traj.grid[[5, 60, 200]]
    radii = np.unique(np.r_[_radii(traj), _TINY, nodes, np.nextafter(nodes, math.inf)])

    def profiles():
        order = represent._moment_pass(traj, radii)
        return [order(j) for j in range(traj.m)]

    guarded = profiles()
    monkeypatch.setattr(represent, "_quadratic", _unguarded_quadratic)
    monkeypatch.setattr(represent, "_scaled", lambda c, r, e, moment: c * r**e * moment)
    with np.errstate(all="ignore"):
        plain = profiles()
    for j, (got, was) in enumerate(zip(guarded, plain)):
        for new, old in ((got.values, was.values), (got.err, was.err)):
            kept = np.isfinite(old)
            assert new[kept].tobytes() == old[kept].tobytes(), j
        mended = np.isin(radii, np.r_[_TINY, np.nextafter(nodes, math.inf)])
        assert np.all(np.isfinite(was.values[mended])) == (not traj.W.any()), j
        assert np.all(np.isfinite(got.values[mended])), j


@pytest.mark.parametrize("run", ["std2", "std3_500", "big3", *OFF_RUNS])
def test_every_order_from_one_pass_forms_each_moment_once(run, request, monkeypatch):
    # every moment that Delta^j v reads is one that v reads, so after v the
    # other orders form no moment at all, and none is formed twice; on
    # W = 0 no order forms a moment
    traj, _ = request.getfixturevalue(run)
    formed = collections.Counter()
    split = represent._SeparableIntegral._split

    def counted(sep, p, side, log=False):
        formed[id(sep), p, side, log] += 1
        return split(sep, p, side, log)

    monkeypatch.setattr(represent._SeparableIntegral, "_split", counted)
    order = represent._moment_pass(traj, np.unique(_radii(traj)))
    order(0)
    by_v = set(formed)
    for j in range(1, traj.m):
        order(j)
    assert set(formed) == by_v
    assert set(formed.values()) == ({1} if traj.W.any() else set())
    # the fine and decimated grids
    assert len({key[0] for key in formed}) == (2 if traj.W.any() else 0)


@pytest.mark.parametrize("run", ["std3_500", "big3", *OFF_RUNS])
def test_each_view_reads_only_its_own_order(run, request, monkeypatch):
    # on W = 0 a view reads no order: it is the closed form
    traj, _ = request.getfixturevalue(run)
    read = []
    integral = represent._SeparableIntegral.integral

    def recorded(sep, coeffs, j):
        read.append(j)
        return integral(sep, coeffs, j)

    monkeypatch.setattr(represent._SeparableIntegral, "integral", recorded)
    for j in range(traj.m):
        read.clear()
        _view(traj, j, np.unique(_radii(traj)))
        # the fine and decimated grids
        assert read == ([j, j] if traj.W.any() else []), j


_LOG2 = math.log(2.0)


@pytest.mark.parametrize("cfg, degree", [
    # the round sphere at lambda = 0.05, off the family in floats: v's bars
    # reach 1.5e-6 while the w0 estimate is 3e-11, and a floor of the
    # estimate alone let the fit read v's quadrature error as r^2 (lead
    # -2.2e-13), a wrong row (iv)
    (ShootingConfig(m=2, initial_laplacians=standard_laplacians(2, 0.05)), 0),
    (ShootingConfig(m=2, initial_derivatives=(_LOG2, -2.000001)), 2),
    (ShootingConfig(m=3, initial_derivatives=(_LOG2, -2.2, 4.0), r_end=500.0), 4),
    # the round sphere at lambda = 20: its float data are u_20's, so W = 0
    # and u and v are the closed form at every node, with no step and bars
    # of 0 (when u itself was shot from r = 1e-3, the far field's free
    # modes grew a 2e-11 error of the start to 0.65 at r = 1000, read as
    # degree 2)
    (ShootingConfig(m=2, initial_laplacians=standard_laplacians(2, 20.0)), 0),
], ids=["m2-lambda-0.05", "m2-d2-2.000001", "m3-r500", "m2-lambda-20"])
def test_fit_floor_counts_the_bars_of_v(cfg, degree):
    a = analyze(cfg)
    assert a.fit.inferred_degree == degree
    if degree == 0:
        assert a.verdict.criteria["iv"] == (0.0, "standard")
        assert a.verdict.overall == "standard"
        assert all(row != "nonstandard" for _, row in a.verdict.criteria.values())
    if cfg.initial_derivatives == (_LOG2, -2.000001):
        assert a.fit.leading_coefficient == pytest.approx(-1.745e-6, rel=1e-3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_deviation_density_is_the_fields_source(m):
    # the density V integrates (`shooter.deviation_source`) is the source
    # the shot integrated: E_mu expm1(2m W_0) where that product holds, and
    # the field's form past the clamp of 2m u at 700 and where E_mu is
    # subnormal or 0.0, for a reference at the low clip of reference_mu and
    # at mu = 1
    from polyliouville import shooter

    rng = np.random.default_rng(40 + m)
    sig_fact = (-1) ** m * math.factorial(2 * m - 1)
    for mu in (1.0, math.exp(-350.0 / m) / 2):
        field = shooter._field(m, mu)
        radii = np.sort(10.0 ** rng.uniform(-3.0, 1.0, 300) / mu ** rng.uniform(0.0, 1.2, 300))
        log_e = 2 * m * (math.log(2 * mu) - np.log1p((mu * radii) ** 2))
        w0 = (rng.uniform(-750.0, 800.0, radii.size) - log_e) / (2 * m)
        got = shooter.deviation_source(m, mu, radii, w0)
        want = [field(r, [x] + [0.0] * (2 * m))[2 * m - 1] / sig_fact
                for r, x in zip(radii.tolist(), w0.tolist())]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
