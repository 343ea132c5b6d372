"""Exact multivariate polynomials and mean-value identities.

ball_average integrates monomials exactly, and the Pizzetti expansion must
reproduce it term for term, so every assertion here is zero-tolerance. A
Taylor-shift translation followed by moment_average, a route independent of
ball_average's direct moment sum, is kept here as its oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyliouville.polyfield import (
    PolynomialND,
    almansi_random,
    ball_average,
    harmonic_projection,
    moment_average,
    pizzetti_check,
)
from polyliouville.exactconst import pizzetti_coefficients


def poly_from(n, items):
    P = PolynomialND.zero(n)
    for alpha, c in items:
        P = P + PolynomialND.monomial(n, alpha, Fraction(c))
    return P


# -- oracle: translate P to the centre, then average monomial by monomial ----


def translate(P, shift):
    """P(x) -> P(x + shift), exact, one variable at a time."""
    shift = [Fraction(s) for s in shift]
    assert len(shift) == P.n
    for i, a in enumerate(shift):
        if a:
            P = _shift_one(P, i, a)
    return P


def _shift_one(P, i, a):
    # group terms by the exponents of the other variables, then do a
    # univariate Taylor shift (Horner with (x + a)) per group
    groups = {}
    for alpha, c in P.terms.items():
        rest = alpha[:i] + alpha[i + 1:]
        groups.setdefault(rest, {})[alpha[i]] = c
    out = {}
    for rest, uni in groups.items():
        d = max(uni)
        shifted = [Fraction(0)] * (d + 1)
        for k in range(d, -1, -1):
            # shifted <- shifted * (x + a) + c_k
            nxt = [Fraction(0)] + shifted[:d]
            for j in range(d + 1):
                nxt[j] += shifted[j] * a
            nxt[0] += uni.get(k, 0)
            shifted = nxt
        for k, c in enumerate(shifted):
            out[rest[:i] + (k,) + rest[i:]] = c
    return PolynomialND(P.n, out)


def oracle_ball_average(P, x0, R):
    """Average over B_R(x0) of the translated polynomial, by moment_average."""
    return sum((Fraction(c) * moment_average(alpha, P.n, "ball", R).value
                for alpha, c in translate(P, x0).terms.items()), Fraction(0))


def test_monomial_evaluate():
    P = PolynomialND.monomial(2, (2, 1), Fraction(3))
    assert P.evaluate((2, 5)) == 60
    assert P.degree() == 3


def test_evaluate_rejects_wrong_point_length():
    P = PolynomialND.monomial(2, (2, 3))
    assert P.evaluate((2, 1)) == 4
    with pytest.raises(ValueError):
        P.evaluate((2,))
    with pytest.raises(ValueError):
        P.evaluate((2, 1, 5))


def test_laplacian_hand_values():
    # harmonic: x^2 - y^2
    H = poly_from(2, [((2, 0), 1), ((0, 2), -1)])
    assert H.laplacian().is_zero
    # |x|^2 in R^n has Laplacian 2n
    for n in (2, 3, 4, 6):
        L = PolynomialND.rsq(n).laplacian()
        assert L == PolynomialND.constant(n, Fraction(2 * n))
    # |x|^4 in R^4: Laplacian is 24 |x|^2
    Q = PolynomialND.rsq(4) * PolynomialND.rsq(4)
    assert Q.laplacian() == PolynomialND.rsq(4) * Fraction(24)


def test_iterated_laplacian_matches_repeated():
    P = almansi_random(2, 4, 6, seed=5)
    stepwise = P
    for j in range(3):
        assert P.iterated_laplacian(j) == stepwise
        stepwise = stepwise.laplacian()


def test_harmonic_projection_properties():
    H = poly_from(2, [((2, 0), 1), ((0, 2), -1)])
    assert harmonic_projection(H) == H
    assert harmonic_projection(PolynomialND.rsq(2)).is_zero
    for seed in (0, 1, 2):
        P = almansi_random(2, 4, 6, seed=seed)
        proj = harmonic_projection(P)
        assert proj.laplacian().is_zero
        assert proj.degree() <= P.degree()


def test_almansi_random_is_deterministic():
    A = almansi_random(3, 6, 5, seed=42)
    B = almansi_random(3, 6, 5, seed=42)
    assert A == B
    assert A.n == 6
    assert not A.is_zero
    # Almansi layers contribute at most |x|^{2(m-1)} times a degree-d harmonic
    assert A.degree() <= 2 * 2 + 5


def test_ball_average_hand_value():
    # mean of x^2 - y^2 over any ball centered at (1,2) is 1 - 4 = -3
    P = poly_from(2, [((2, 0), 1), ((0, 2), -1)])
    assert ball_average(P, (1, 2), 3) == Fraction(-3)
    assert ball_average(P, (1, 2), Fraction(1, 7)) == Fraction(-3)


def test_ball_average_rsq():
    # mean of |x|^2 over B_R(0) in R^n is n R^2 / (n + 2)
    for n in (2, 4):
        val = ball_average(PolynomialND.rsq(n), (0,) * n, Fraction(3, 2))
        assert val == Fraction(n, n + 2) * Fraction(9, 4)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 2), (6, 3)])
def test_pizzetti_exact_on_random_cases(n, m):
    for i in range(8):
        deg = i % 7
        x0 = tuple((seed_bit % 3) - 1 for seed_bit in range(i, i + n))
        rep = pizzetti_check(almansi_random(m, n, deg, seed=97 * i + 1), m, x0, 1 + i % 3)
        assert rep.exact
        assert rep.residual == 0
        assert rep.lhs == rep.rhs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pizzetti_remainder_law(m):
    # for P = |x|^{2m} only the k = m term of the expansion survives at 0
    n = 2 * m
    P = PolynomialND.constant(n, Fraction(1))
    for _ in range(m):
        P = P * PolynomialND.rsq(n)
    top = P.iterated_laplacian(m)
    expected_top = Fraction(1)
    for j in range(1, m + 1):
        expected_top *= (2 * j) * (2 * j + n - 2)
    assert top == PolynomialND.constant(n, expected_top)
    c_m = pizzetti_coefficients(n, m + 1)[m]
    for R in (Fraction(1), Fraction(3, 2), Fraction(2)):
        assert ball_average(P, (0,) * n, R) == c_m * R ** (2 * m) * expected_top


def _rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))


def test_ball_average_matches_translation_oracle():
    # 324 seeded cases: n = 1..6, Almansi order m = 1..3, rational centres and
    # radii (R = 0 included), every seventh centre at the origin, every fifth
    # polynomial made non-polyharmonic by an extra monomial, and case 0 zero
    rng = random.Random(20081)
    for case in range(324):
        n, m = 1 + case % 6, 1 + (case // 6) % 3
        if case == 0:
            P = PolynomialND.zero(n)
        else:
            P = almansi_random(m, n, rng.randint(0, 4), seed=case) * _rational(rng, -9, 9)
        if case % 5 == 1:
            alpha = tuple(rng.randint(0, 3) for _ in range(n))
            P = P + PolynomialND.monomial(n, alpha, _rational(rng, -9, 9))
        x0 = (0,) * n if case % 7 == 0 else tuple(_rational(rng, -3, 3) for _ in range(n))
        R = _rational(rng, 0, 6)
        assert ball_average(P, x0, R) == oracle_ball_average(P, x0, R), (case, P, x0, R)
    assert ball_average(PolynomialND.zero(3), (1, 2, 3), 2) == 0


def test_ball_average_rejects_float_radius():
    P = PolynomialND.monomial(2, (2, 0))
    with pytest.raises(TypeError, match="floats are not accepted"):
        ball_average(P, (1, 0), 0.5)
    with pytest.raises(TypeError, match="floats are not accepted"):
        pizzetti_check(P, 1, (1, 0), 0.5)


def test_ball_average_rejects_float_centre():
    P = PolynomialND.monomial(2, (2, 0))
    with pytest.raises(TypeError, match="floats are not accepted"):
        ball_average(P, (1.0, 0), 1)


def test_ball_average_rejects_negative_radius():
    P = PolynomialND.monomial(2, (2, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        ball_average(P, (1, 0), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        pizzetti_check(P, 1, (1, 0), Fraction(-1, 2))


def test_ball_average_rejects_wrong_centre_length():
    P = PolynomialND.monomial(2, (2, 0))
    with pytest.raises(ValueError):
        ball_average(P, (1, 0, 0), 1)
    with pytest.raises(ValueError):
        pizzetti_check(P, 1, (1,), 1)


def test_moment_average_values():
    ball = moment_average((2, 0), 2)
    assert (ball.coefficient, ball.exponent) == (Fraction(1, 4), 2)
    sphere = moment_average((2, 0), 2, domain="sphere")
    assert (sphere.coefficient, sphere.exponent) == (Fraction(1, 2), 2)
    assert moment_average((1, 0), 2).coefficient == 0
    mixed = moment_average((2, 2), 2)
    assert (mixed.coefficient, mixed.exponent) == (Fraction(1, 24), 4)


def test_moment_average_ball_sphere_relation():
    # radial integration only contributes n/(n+d) relative to the sphere mean
    for alpha, n in [((2, 0), 2), ((4, 2), 2), ((2, 2, 0), 3), ((0, 2, 2, 0), 4)]:
        d = sum(alpha)
        ball = moment_average(alpha, n)
        sphere = moment_average(alpha, n, domain="sphere")
        assert ball.coefficient == sphere.coefficient * Fraction(n, n + d)


def test_moment_average_rejects_float_radius():
    with pytest.raises(TypeError, match="floats are not accepted"):
        moment_average((2, 0), 2, radius=0.5)


def test_moment_average_rejects_negative_radius():
    with pytest.raises(ValueError, match="nonnegative"):
        moment_average((2, 0), 2, radius=-1)
    assert moment_average((2, 0), 2, radius=Fraction(1, 2)).value == Fraction(1, 16)


def test_moment_average_validates_alpha_length():
    with pytest.raises(ValueError):
        moment_average((1, 2), 3, domain="sphere")


coeff_st = st.integers(min_value=-5, max_value=5)
alpha_st = st.tuples(st.integers(0, 3), st.integers(0, 3))
items_st = st.lists(st.tuples(alpha_st, coeff_st), min_size=1, max_size=5)
point_st = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(items=items_st, shift=point_st, x=point_st)
@settings(max_examples=60, deadline=None)
def test_translate_evaluate_identity(items, shift, x):
    P = poly_from(2, items)
    lhs = translate(P, shift).evaluate(x)
    rhs = P.evaluate((x[0] + shift[0], x[1] + shift[1]))
    assert lhs == rhs


@given(a=items_st, b=items_st, x=point_st)
@settings(max_examples=60, deadline=None)
def test_ring_homomorphism_at_points(a, b, x):
    P = poly_from(2, a)
    Q = poly_from(2, b)
    assert (P + Q).evaluate(x) == P.evaluate(x) + Q.evaluate(x)
    assert (P * Q).evaluate(x) == P.evaluate(x) * Q.evaluate(x)
    assert (P + Q).laplacian() == P.laplacian() + Q.laplacian()


@given(a=items_st, b=items_st)
@settings(max_examples=40, deadline=None)
def test_product_degree_additive(a, b):
    P = poly_from(2, a)
    Q = poly_from(2, b)
    if not P.is_zero and not Q.is_zero:
        assert (P * Q).degree() == P.degree() + Q.degree()
