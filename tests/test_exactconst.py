"""Exact constants: gamma normalization, Pizzetti weights, log-kernel Laplacians.

Oracles here are derived independently of the implementation: closed-form
surface measures, the textbook Pizzetti weights for balls, and hand-computed
radial Laplacians of log(1/r).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyliouville.exactconst import (
    PiRational,
    constant_table,
    double_factorial,
    format_table,
    laplog_coefficients,
    pizzetti_coefficients,
    verify_gamma_identity,
)


def ball_pizzetti_weight(n, k):
    """Independent closed form: c_k = n / ((n+2k) * prod_{j<=k} 2j(2j+n-2))."""
    prod = 1
    for j in range(1, k + 1):
        prod *= (2 * j) * (2 * j + n - 2)
    return Fraction(n, (n + 2 * k) * prod)


@pytest.mark.parametrize("m", range(1, 11))
def test_gamma_identity_exact(m):
    assert verify_gamma_identity(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_gamma_matches_sphere_measure(m):
    # gamma_m = (2m-1)! |S^{2m}| / 2, checked in exact pi-rational arithmetic
    table = constant_table(m)
    expected = table.vol_sphere_2m * Fraction(math.factorial(2 * m - 1), 2)
    assert table.gamma_m == expected


def test_constant_table_m1():
    table = constant_table(1)
    assert table.n == 2
    assert table.omega_n == PiRational(Fraction(2), 1)
    assert table.vol_sphere_2m == PiRational(Fraction(4), 1)
    assert table.gamma_m == PiRational(Fraction(2), 1)


def test_constant_table_m2():
    table = constant_table(2)
    assert table.n == 4
    assert table.omega_n == PiRational(Fraction(2), 2)
    assert table.vol_sphere_2m == PiRational(Fraction(8, 3), 2)
    assert table.gamma_m == PiRational(Fraction(8), 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sigma_alternates(m):
    assert constant_table(m).sigma_m == (-1) ** m


def test_constant_table_rejects_m0():
    with pytest.raises(ValueError):
        constant_table(0)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_constant_table_takes_numpy_integers(m, kind):
    # a numpy integer m is the int m: same table, same printed table
    table = constant_table(kind(m))
    assert type(table.m) is int and table == constant_table(m)
    assert format_table(table) == format_table(constant_table(m))


@pytest.mark.parametrize("m", [True, 2.0, np.float64(2.0)])
def test_constant_table_refuses_a_bool_or_float_m(m):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        constant_table(m)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pizzetti_coefficients_closed_form(n):
    coeffs = pizzetti_coefficients(n, 6)
    assert coeffs[0] == 1
    for k, c in enumerate(coeffs):
        assert c == ball_pizzetti_weight(n, k)


def test_pizzetti_coefficients_count_is_exact():
    assert pizzetti_coefficients(4, 0) == []
    assert pizzetti_coefficients(4, 1) == [1]
    assert len(pizzetti_coefficients(4, 3)) == 3
    with pytest.raises(ValueError):
        pizzetti_coefficients(4, -1)


def test_pizzetti_table_matches_free_function():
    table = constant_table(2)
    free = pizzetti_coefficients(4, len(table.pizzetti_c))
    for c_table, c_free in zip(table.pizzetti_c, free):
        assert Fraction(c_table.numerator, c_table.denominator) == c_free
        assert c_table.pi_power == 0


def test_laplog_coefficients_hand_values():
    # (-Delta)^j log(1/r) = c_j r^{-2j} with c_1 = n-2 and the n=6 chain 4, 16
    assert laplog_coefficients(2) == (Fraction(2),)
    assert laplog_coefficients(3) == (Fraction(4), Fraction(16))


@pytest.mark.parametrize("m", [2, 3])
def test_laplog_recursion_finite_difference(m):
    # apply the radial Laplacian in R^{2m} numerically and compare levels
    n = 2 * m
    h = 1e-4
    r0 = 1.3
    coeffs = laplog_coefficients(m)
    for j in range(1, m):

        def f(r, jj=j - 1):
            if jj == 0:
                return -math.log(r)
            return float(coeffs[jj - 1]) * r ** (-2 * jj)

        lap = (f(r0 + h) - 2 * f(r0) + f(r0 - h)) / h**2
        lap += (n - 1) / r0 * (f(r0 + h) - f(r0 - h)) / (2 * h)
        assert -lap == pytest.approx(float(coeffs[j - 1]) * r0 ** (-2 * j), rel=1e-5)


def test_double_factorial_small_cases():
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(9) == 945


def test_format_table_shows_exact_gamma():
    text = format_table(constant_table(2))
    assert "gamma_m = 8 * pi^2" in text


fractions_st = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)
powers_st = st.integers(min_value=-3, max_value=3)


@given(a=fractions_st, b=fractions_st, c=fractions_st, p=powers_st, q=powers_st)
@settings(max_examples=60, deadline=None)
def test_pi_rational_ring_axioms(a, b, c, p, q):
    x = PiRational(a, p)
    y = PiRational(b, p)
    z = PiRational(c, q)
    assert x + y == y + x
    assert (x + y) - y == x
    assert x * z == z * x
    assert (x + y) * z == x * z + y * z
    if not z.is_zero:
        assert (x * z) / z == x
    assert float(x * z) == pytest.approx(float(x) * float(z), rel=1e-12, abs=1e-300)


@given(a=fractions_st.filter(lambda f: f != 0), p=powers_st, q=powers_st)
@settings(max_examples=30, deadline=None)
def test_pi_rational_mixed_addition_guard(a, p, q):
    x = PiRational(a, p)
    z = PiRational(Fraction(1), q)
    if p == q:
        assert (x + z) - z == x
    else:
        with pytest.raises(ValueError):
            _ = x + z


def test_pi_rational_sign_predicates():
    assert PiRational(Fraction(3, 7), 2).is_positive
    assert not PiRational(Fraction(-3, 7), 2).is_positive
    assert PiRational(Fraction(0), 5).is_zero


def _table_constants(m):
    t = constant_table(m)
    return [t.omega_n, t.vol_sphere_2m, t.gamma_m, *t.pizzetti_c,
            *(PiRational(c) for c in t.laplog_coeff)]


_CONSTANTS = [c for m in range(1, 11) for c in _table_constants(m)]


class TestMpmathOracle:
    """float() and decimal() against the mpmath evaluation they replace:
    q * pi^k at 40 digits rounded to a float, and nstr at digits + 15."""

    @staticmethod
    def mpmath_value(x, dps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(dps):
            return mpmath.mpf(x.numerator) / x.denominator * mpmath.pi ** x.pi_power

    def test_float_is_bit_equal(self):
        products = [a * b for a in _CONSTANTS[::3] for b in _CONSTANTS[1::3]]
        quotients = [a / b for a in _CONSTANTS[::4] for b in _CONSTANTS[2::4]]
        powers = [c ** k for c in _CONSTANTS for k in (-3, -1, 2, 5)]
        # past the float range both round to +-inf
        huge = [PiRational(Fraction(10 ** 400)), PiRational(Fraction(-10 ** 300), 10),
                PiRational(Fraction(2 ** 1024 - 2 ** 970))]
        values = _CONSTANTS + products + quotients + powers + huge
        assert len(values) > 1000
        for x in values:
            assert float(x) == float(self.mpmath_value(x, 40)), x

    @pytest.mark.parametrize("digits", [*range(1, 61), 200])
    def test_decimal_equals_nstr(self, digits):
        mpmath = pytest.importorskip("mpmath")
        for x in _CONSTANTS:
            assert x.decimal(digits) == mpmath.nstr(self.mpmath_value(x, digits + 15),
                                                    digits), (x, digits)

    @pytest.mark.parametrize("q, digits, text", [
        (Fraction(1, 4), 1, "0.3"),              # a binary-exact tie goes up
        (Fraction(-1, 4), 1, "-0.3"),
        (Fraction(1, 8), 2, "0.13"),
        (Fraction(3, 40), 1, "0.07"),            # any other tie goes down
        (Fraction(1, 640), 4, "0.001562"),       # pizzetti_c[2], m = 3
        (Fraction(1, 40), 1, "0.02"),            # pizzetti_c[1], m = 9
        (Fraction(125), 2, "1.3e+2"),
        (Fraction(1, 658944), 8, "1.5175796e-6"),     # pizzetti_c[3], m = 10
        (Fraction(185794560), 8, "1.8579456e+8"),     # laplog_coeff[5], m = 10
        (Fraction(0), 5, "0.0"),
    ])
    def test_decimal_ties_and_exponent_forms(self, q, digits, text):
        x = PiRational(q)
        assert x.decimal(digits) == text
        mpmath = pytest.importorskip("mpmath")
        assert mpmath.nstr(self.mpmath_value(x, digits + 15), digits) == text


def _long_division(q, digits):
    """(significant digits of q > 0 rounded half up at `digits`, exponent of
    the first one), digit by digit; a tie would be ambiguous, so none may occur."""
    n, d, exponent = q.numerator, q.denominator, 0
    while n < d:
        n, exponent = 10 * n, exponent - 1
    while n >= 10 * d:
        d, exponent = 10 * d, exponent + 1
    out = 0
    for _ in range(digits + 1):
        digit, n = divmod(n, d)
        out, n = 10 * out + digit, 10 * n
    assert not (out % 10 == 5 and n == 0)
    return (out + 5) // 10, exponent


@pytest.mark.parametrize("q", sorted({c.fraction for c in _CONSTANTS if c.pi_power == 0}))
def test_rational_decimal_matches_long_division(q):
    significand, exponent = _long_division(q, 100)
    expected = Fraction(significand) * Fraction(10) ** (exponent - 99)
    assert Fraction(PiRational(q).decimal(100)) == expected
