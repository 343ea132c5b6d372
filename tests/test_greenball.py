"""Green function of Delta^m on balls, the radial Navier solver, and the
exponential-integrability experiment.

The m=1 and m=2 Green coefficients are classical hand computations; the
polynomial Navier oracles are verified exactly with PolynomialND before the
numeric solver is compared against them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyliouville.exactconst import PiRational
from polyliouville.greenball import (
    RadialProfile,
    _cumulative_trapezoid,
    _simpson,
    exp_integrability,
    green_ball,
    invert_minus_laplacian_radial,
    navier_solve_radial,
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
    np.testing.assert_allclose(
        g.sign_constants, [1 / (2 * math.pi**2), 1 / (16 * math.pi**2)], rtol=1e-15
    )


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


@pytest.mark.parametrize("m", [2, 3])
def test_rescaled_ball_keeps_navier_conditions(m):
    g = green_ball(m, radius=2)
    r_edge = np.array([2.0])
    assert abs(g.evaluate(r_edge)[0]) < 1e-14
    for i in range(1, m):
        assert abs(g.evaluate_iterated(r_edge, i)[0]) < 1e-14


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
    back = RadialProfile.from_csv(path, 2)
    np.testing.assert_array_equal(back.grid, prof.grid)
    np.testing.assert_allclose(back.values, prof.values, rtol=0, atol=1e-16)
    assert back.m == 2


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
