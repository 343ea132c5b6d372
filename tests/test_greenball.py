"""Green function of Delta^m on the unit ball, the radial Navier solver,
and the exponential-integrability experiment.

The m=1 and m=2 Green coefficients are classical hand computations; the
polynomial Navier oracles are verified exactly with PolynomialND before the
numeric solver is compared against them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyliouville.exactconst import PiRational, _iter_factor, constant_table
from polyliouville.greenball import (
    RadialProfile,
    _cumulative_trapezoid,
    _simpson,
    exp_integrability,
    green_ball,
    invert_minus_laplacian_radial,
    navier_solve_radial,
    panel_moment,
    powers,
)
from polyliouville.polyfield import PolynomialND


def test_green_m1_is_classical_log():
    g = green_ball(1)
    assert g.log_coeff == PiRational(Fraction(1, 2), -1)
    assert all(c.is_zero for c in g.poly_coeffs)
    assert g.sign_constants_exact == (PiRational(Fraction(1, 2), -1),)
    r = np.array([0.25, 0.5, 0.9])
    np.testing.assert_allclose(g.evaluate(r), np.log(r) / (2 * math.pi), rtol=1e-15)


def test_green_m2_coefficients():
    g = green_ball(2)
    assert g.log_coeff == PiRational(Fraction(-1, 8), -2)
    # basis order (1, r^2): constant -1/(32 pi^2), quadratic +1/(32 pi^2)
    assert g.poly_coeffs == (
        PiRational(Fraction(-1, 32), -2),
        PiRational(Fraction(1, 32), -2),
    )
    r = np.array([0.1, 0.3, 0.5, 0.99])
    closed = -np.log(r) / (8 * math.pi**2) + (r**2 - 1) / (32 * math.pi**2)
    np.testing.assert_allclose(g.evaluate(r), closed, rtol=0, atol=1e-17)


def test_green_m2_sign_constants():
    g = green_ball(2)
    assert g.sign_constants_exact == (
        PiRational(Fraction(1, 2), -2),
        PiRational(Fraction(1, 16), -2),
    )


def test_green_ball_takes_numpy_integers():
    assert green_ball(np.int64(3)) == green_ball(3)
    assert green_ball(np.int32(2)) == green_ball(2)


@pytest.mark.parametrize("m", range(1, 7))
def test_navier_residuals_exactly_zero(m):
    g = green_ball(m)
    residuals = g.navier_residuals_exact()
    assert len(residuals) == m
    assert all(res.is_zero for res in residuals)


@pytest.mark.parametrize("m", range(1, 7))
def test_sign_constants_strictly_positive(m):
    g = green_ball(m)
    assert len(g.sign_constants_exact) == m
    assert all(c.is_positive for c in g.sign_constants_exact)


def navier_v_at_origin(m):
    """v(0) for (-Delta)^m v = 1 on the unit ball of R^{2m}, Navier data,
    by m exact inversions of -Delta on powers of r: -Delta z = r^{2k}
    with z(1) = 0 is z = (1 - r^{2k+2}) / ((2k+2)(2k+2m))."""
    coeffs = [Fraction(1)]  # coeffs[k] multiplies r^{2k}
    for _ in range(m):
        out = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            step = c / ((2 * k + 2) * (2 * k + 2 * m))
            out[0] += step
            out[k + 1] -= step
        coeffs = out
    return coeffs[0]


@pytest.mark.parametrize("m", range(1, 9))
def test_green_representation_at_the_center(m):
    # v(0) = int_B (-1)^m G dy for the v above, an oracle for every b_k that
    # shares no formula with the boundary solve:
    # int_0^1 r^{2m-1} log r dr = -1/(2m)^2, int_0^1 r^{2k+2m-1} dr = 1/(2k+2m)
    g = green_ball(m)
    integral = g.log_coeff * Fraction(-1, (2 * m) ** 2)
    for k, b in enumerate(g.poly_coeffs):
        integral = integral + b * Fraction(1, 2 * k + 2 * m)
    omega = constant_table(m).omega_n
    assert omega * integral * (-1) ** m == PiRational(navier_v_at_origin(m))


def test_navier_v_at_origin_hand_values():
    assert [navier_v_at_origin(m) for m in (1, 2, 3)] == [
        Fraction(1, 4), Fraction(1, 96), Fraction(13, 69120)]


@pytest.mark.parametrize("m", range(1, 9))
def test_green_representation_on_the_boundary(m):
    # for u = r^{2j}, j < m, Delta^m u = 0, so Green's formula leaves only
    # boundary terms: u(0) = omega_{2m} sum_i (-1)^i c_i Delta^i u(1)
    g = green_ball(m)
    omega = constant_table(m).omega_n
    for j in range(m):
        acc = PiRational(0)
        for i, c in enumerate(g.sign_constants_exact):
            acc = acc + c * ((-1) ** i * _iter_factor(j, i, 2 * m))
        assert omega * acc == PiRational(int(j == 0)), j


def test_invert_minus_laplacian_constant_source():
    # -Delta v = 1 on B_1 in R^n gives v = (1 - r^2) / (2n)
    grid = np.linspace(0, 1, 801)
    for n in (2, 4, 6):
        v = invert_minus_laplacian_radial(grid, np.ones_like(grid), n)
        np.testing.assert_allclose(v, (1 - grid**2) / (2 * n), atol=1e-14)


def test_navier_zero_source():
    grid = np.linspace(0, 1, 101)
    v = navier_solve_radial(RadialProfile(grid, np.zeros_like(grid), m=2))
    assert np.all(v.values == 0)


def test_navier_m1_constant_source():
    grid = np.linspace(0, 1, 4001)
    v = navier_solve_radial(RadialProfile(grid, np.ones_like(grid), m=1))
    np.testing.assert_allclose(v.values, (1 - grid**2) / 4, atol=1e-12)


def radial_even_poly(coeffs, grid):
    """Evaluate sum_k c_k (1 - r^{2(k+1)}) on the grid."""
    t = grid**2
    return sum(float(ck) * (1.0 - t ** (k + 1)) for k, ck in enumerate(coeffs))


def check_navier_polynomial_oracle(m, coeffs):
    """Exact check that p = sum c_k (1 - |x|^{2(k+1)}) solves
    (-Delta)^m p = 1 + |x|^2 with Navier conditions, then compare the solver."""
    n = 2 * m
    rsq = PolynomialND.rsq(n)
    one = PolynomialND.constant(n, Fraction(1))
    p = PolynomialND.zero(n)
    power = one
    for ck in coeffs:
        power = power * rsq
        p = p + (one - power) * ck
    sign = Fraction((-1) ** m)
    assert p.iterated_laplacian(m) == (one + rsq) * sign
    edge = (1,) + (0,) * (n - 1)
    for i in range(m):
        assert p.iterated_laplacian(i).evaluate(edge) == 0

    grid = np.linspace(0, 1, 4001)
    f = RadialProfile(grid, 1.0 + grid**2, m=m)
    v = navier_solve_radial(f)
    expected = radial_even_poly(coeffs, grid)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(v.values - expected)) / scale < 5e-7


def test_navier_m2_polynomial_oracle():
    check_navier_polynomial_oracle(
        2, [Fraction(1, 48), Fraction(-1, 192), Fraction(-1, 1152)]
    )


def test_navier_m3_polynomial_oracle():
    check_navier_polynomial_oracle(
        3,
        [
            Fraction(37, 69120),
            Fraction(-11, 36864),
            Fraction(1, 23040),
            Fraction(1, 184320),
        ],
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_maximum_principle_chain(m):
    # nonnegative source gives nonnegative stages all the way down
    grid = np.linspace(0, 1, 2001)
    f = np.cos(3 * grid) + 1.0
    assert np.all(f >= 0)
    stage = f.copy()
    for _ in range(m):
        stage = invert_minus_laplacian_radial(grid, stage, 2 * m)
        assert np.min(stage) > -1e-15
    v = navier_solve_radial(RadialProfile(grid, f, m=m))
    assert np.min(v.values) > -1e-15
    np.testing.assert_allclose(v.values, stage, atol=1e-14)


def _panel_moment_reference(a, x, coef, p):
    """panel_moment as it was before power tables: a and x raised again for
    every term.  The table form must match it bit for bit."""
    out = 0.0
    for i in range(p + 1):
        w = math.comb(p, i) * a ** (p - i)
        for k, c in enumerate(coef):
            out = out + c * w * x ** (i + k + 1) / (i + k + 1)
    return out


def _invert_reference(grid, g, n):
    """invert_minus_laplacian_radial on _panel_moment_reference."""
    a, b = grid[:-1], grid[1:]
    x = np.diff(grid) / b
    panels = b * _panel_moment_reference(a / b, x, (g[:-1], np.diff(g) / x), n - 1)
    shrink = (a / b) ** (n - 1)
    integrand = np.zeros_like(grid)
    acc = 0.0
    for i, (q, panel) in enumerate(zip(shrink.tolist(), panels.tolist()), start=1):
        acc = acc * q + panel
        integrand[i] = acc
    cum = _cumulative_trapezoid(integrand, grid)
    return cum[-1] - cum


@pytest.mark.parametrize("ncoef", [2, 3])
@pytest.mark.parametrize("p", [*range(13), 63, 239])
def test_panel_moment_tables_keep_every_bit(p, ncoef):
    rng = np.random.default_rng(100 * p + ncoef)
    a, x = rng.uniform(0.0, 2.0, 64), rng.uniform(0.0, 1.0, 64)
    a[:8], x[4:12] = 0.0, 0.0
    coef = tuple(rng.normal(size=64) for _ in range(ncoef))
    want = _panel_moment_reference(a, x, coef, p)
    got = panel_moment(powers(a, p), powers(x, p + ncoef), coef, p)
    assert got.tobytes() == want.tobytes()
    # a table extended in place holds the same entries as a fresh one
    grown = powers(x, p + ncoef, powers(x, p // 2))
    assert [t.tobytes() for t in grown] == [t.tobytes() for t in powers(x, p + ncoef)]


@pytest.mark.parametrize("m", [1, 2, 3, 40])
def test_navier_solve_keeps_every_bit(m):
    grid = np.linspace(0, 1, 201)
    f = (1 - grid**2) ** 2 * np.exp(grid)
    want = f
    for _ in range(m):
        want = _invert_reference(grid, want, 2 * m)
    got = navier_solve_radial(RadialProfile(grid, f, m=m)).values
    assert got.tobytes() == want.tobytes()
    once = invert_minus_laplacian_radial(grid, f, 2 * m)
    assert once.tobytes() == _invert_reference(grid, f, 2 * m).tobytes()


def test_exp_integrability_zero_profile():
    grid = np.linspace(0, 1, 501)
    zero = np.zeros_like(grid)
    out1 = exp_integrability(RadialProfile(grid, zero, m=1), p=1.0)
    assert out1.value == pytest.approx(math.pi, rel=1e-10)
    assert not out1.overflow
    out2 = exp_integrability(RadialProfile(grid, zero, m=2), p=1.0)
    assert out2.value == pytest.approx(math.pi**2 / 2, rel=1e-10)


def test_exp_integrability_overflow_flag():
    grid = np.linspace(0, 1, 11)
    big = RadialProfile(grid, np.full_like(grid, 500.0), m=1)
    out = exp_integrability(big, p=1.0)
    assert out.overflow
    assert math.isinf(out.value)


def test_exp_integrability_scaling_covariance():
    # f_R(x) = R^{-2m} f(x/R) must reproduce I(R) = R^{2m} I(1)
    grid = np.linspace(0, 1, 2001)
    f1 = np.cos(grid) + 1.2
    base = exp_integrability(navier_solve_radial(RadialProfile(grid, f1, m=1)), p=0.8)
    for R in (2.0, 4.0):
        fR = RadialProfile(grid * R, (np.cos(grid) + 1.2) / R**2, m=1)
        out = exp_integrability(navier_solve_radial(fR), p=0.8)
        assert abs(out.value - R**2 * base.value) <= 1e-8 * R**2 * base.value


def test_profile_csv_round_trip(tmp_path):
    prof = RadialProfile(np.linspace(0, 1, 9), np.sin(np.linspace(0, 1, 9)), m=2)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    assert open(path).readline().strip() == "r,value"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], prof.grid)
    np.testing.assert_allclose(back[:, 1], prof.values, rtol=0, atol=1e-16)


def test_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.5, 0.4]), np.zeros(3), m=1)
    with pytest.raises(ValueError):
        RadialProfile(np.array([]), np.array([]), m=1)


@pytest.mark.parametrize("n", [*range(3, 13), 800, 801])
def test_quadrature_matches_scipy(n):
    # same arithmetic as scipy's rules, so equal to the last bit, for odd
    # and even node counts (the even one takes the last-interval correction)
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=n)
        assert _simpson(y, x) == scipy_integrate.simpson(y, x=x)
        assert np.array_equal(_cumulative_trapezoid(y, x),
                              scipy_integrate.cumulative_trapezoid(y, x, initial=0.0))
