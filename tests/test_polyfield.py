"""Exact multivariate polynomials and mean-value identities.

ball_average integrates monomials exactly, and the Pizzetti expansion must
reproduce it term for term, so every assertion here is zero-tolerance. A
Taylor-shift translation followed by moment_average, a route independent of
ball_average's direct moment sum, is kept here as its oracle. Likewise the
Fischer recursion for the harmonic part, a route independent of
almansi_random's closed form, is kept here as that generator's oracle, and
the Fraction-valued evaluate route as the oracle of pizzetti_check's
integer right-hand side. The generator's integer form is checked against
the Fraction form it stands for, the integer ring operations against plain
Fraction-dict sums, products and Laplacians, and two frozen digests pin the
exact layer's outputs byte for byte.
"""

import hashlib
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyliouville.polyfield import (
    PolynomialND,
    almansi_random,
    ball_average,
    moment_average,
    pizzetti_check,
)
from polyliouville.exactconst import PiRational, pizzetti_coefficients


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
    return sum((Fraction(c) * moment_average(alpha, P.n, R).value
                for alpha, c in translate(P, x0).terms.items()), Fraction(0))


# -- oracle: harmonic parts by the Fischer recursion ------------------------


def _fischer_solve(g, c):
    """Solve c*u + |x|^2 Delta(u) = g for homogeneous g, exactly.

    The recursion reduces the degree by two each step: with d = deg g,
    u = (g - |x|^2 t) / c where t solves the same equation for Delta(g)
    with constant c + 2n + 4(d-2). Terminates because Delta eventually
    annihilates g.
    """
    if g.is_zero:
        return g
    d = g.degree()
    t = _fischer_solve(g.laplacian(), c + 2 * g.n + 4 * (d - 2))
    return (g - PolynomialND.rsq(g.n) * t) * Fraction(1, c)


def harmonic_projection(q):
    """Sum over degrees d of the harmonic part h_d of q_d = h_d + |x|^2 w."""
    out = PolynomialND.zero(q.n)
    for d in range(q.degree() + 1):
        qd = PolynomialND(q.n, {a: c for a, c in q.terms.items() if sum(a) == d})
        g = qd.laplacian()
        if d <= 1 or g.is_zero:
            out = out + qd
        else:
            out = out + qd - PolynomialND.rsq(q.n) * _fischer_solve(g, 2 * q.n + 4 * (d - 2))
    return out


def oracle_almansi_random(m, n, d, seed):
    """almansi_random's draws, with each harmonic part by the Fischer recursion."""
    rng = random.Random(seed)
    total = PolynomialND.zero(n)
    rsq_k = PolynomialND.constant(n, 1)
    for _ in range(m):
        for _ in range(60):
            dk = rng.randint(0, d)
            q = PolynomialND.zero(n)
            for _ in range(1 + rng.randrange(2)):
                cuts = sorted(rng.randrange(dk + 1) for _ in range(n - 1)) if n > 1 else []
                alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [dk]))
                num = rng.choice([c for c in range(-5, 6) if c])
                q = q + PolynomialND.monomial(n, alpha, Fraction(num, rng.choice([1, 1, 2, 3])))
            h = harmonic_projection(q)
            if not h.is_zero:
                break
        total = total + rsq_k * h
        rsq_k = rsq_k * PolynomialND.rsq(n)
    return total


def oracle_pizzetti_rhs(P, m, x0, R):
    """sum_{i<m} c_i R^{2i} (Delta^i P)(x0) by Fraction-valued evaluate."""
    cs = pizzetti_coefficients(P.n, m)
    return sum((cs[i] * Fraction(R) ** (2 * i) * Fraction(P.iterated_laplacian(i).evaluate(x0))
                for i in range(m)), Fraction(0))


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


def test_almansi_random_matches_fischer_oracle():
    # 1008 seeded cases: every (m, n, d) with m = 1..4, n = 1..7, d = 0..8,
    # four seeds each; Delta^m P = 0 and Delta^{m-1} P != 0 on each
    cases = 0
    for m in range(1, 5):
        for n in range(1, 8):
            for d in range(9):
                for k in range(4):
                    seed = 1000 * m + 100 * n + 10 * d + k
                    P = almansi_random(m, n, d, seed)
                    assert P == oracle_almansi_random(m, n, d, seed), (m, n, d, seed)
                    top = P.iterated_laplacian(m - 1)
                    assert not top.is_zero
                    assert top.laplacian().is_zero
                    cases += 1
    assert cases == 1008


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


def test_pizzetti_rhs_matches_evaluate_route():
    # the integer right-hand side against the Fraction evaluate route, at the
    # Almansi order m (residual 0) and at m + 1, on polyharmonic polynomials
    # and on ones made non-polyharmonic by an extra monomial
    rng = random.Random(20082)
    for case in range(120):
        n, m = 1 + case % 6, 1 + (case // 6) % 4
        P = almansi_random(m, n, rng.randint(0, 6), seed=case) * _rational(rng, -9, 9)
        if case % 2:
            alpha = tuple(rng.randint(0, 4) for _ in range(n))
            P = P + PolynomialND.monomial(n, alpha, _rational(rng, -9, 9))
        x0 = tuple(_rational(rng, -3, 3) for _ in range(n))
        R = _rational(rng, 0, 6)
        for order in (m, m + 1):
            rep = pizzetti_check(P, order, x0, R)
            assert rep.rhs == oracle_pizzetti_rhs(P, order, x0, R), (case, order)
            assert rep.lhs == ball_average(P, x0, R)
            assert rep.residual == rep.lhs - rep.rhs
        if case % 2 == 0:
            assert pizzetti_check(P, m, x0, R).exact


def test_almansi_integer_form_equals_fraction_form():
    # the generator's integer form and the same polynomial built from its
    # Fractions compare and hash equal, and the Fractions are reduced
    for seed in range(12):
        P = almansi_random(1 + seed % 3, 2 + seed % 5, seed % 7, seed)
        Q = PolynomialND(P.n, P.terms)
        assert P == Q and hash(P) == hash(Q)
        assert all(type(c) is Fraction and c == Fraction(c.numerator, c.denominator)
                   for c in P.terms.values())
        assert pickle.loads(pickle.dumps(P)) == P


def test_terms_are_read_only():
    for P in (almansi_random(2, 3, 4, seed=1), PolynomialND.rsq(3)):
        alpha = next(iter(P.terms))
        with pytest.raises(TypeError):
            P.terms[alpha] = Fraction(7)
        with pytest.raises(AttributeError):
            P.terms = {}


def test_adding_a_non_polynomial_raises_type_error():
    P = PolynomialND.monomial(2, (1, 0))
    for op in (lambda: P + 1, lambda: P - 1, lambda: 1 + P, lambda: 1 - P):
        with pytest.raises(TypeError):
            op()


def test_integer_path_keeps_exact_input_rules():
    P = almansi_random(2, 2, 4, seed=3)
    for check in (lambda x0, R: ball_average(P, x0, R),
                  lambda x0, R: pizzetti_check(P, 2, x0, R)):
        with pytest.raises(TypeError, match="floats are not accepted"):
            check((1, 0.5), 2)
        with pytest.raises(TypeError, match="floats are not accepted"):
            check((1, 0), 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            check((1, 0), -1)
        # str and Decimal are not exact numbers, though Fraction() parses them
        for x0, R in (((1, "1/2"), 2), ((1, 0), "2"),
                      ((1, Decimal("0.5")), 2), ((1, 0), Decimal(2))):
            with pytest.raises(TypeError):
                check(x0, R)


def test_exact_input_is_int_or_fraction():
    # one rule for PiRational and every polyfield entry point: floats, str
    # and Decimal raise, numpy integers count as the ints they are
    P = almansi_random(2, 2, 4, seed=3)
    for bad in (lambda: PiRational(0.5), lambda: PiRational("1/3", 1),
                lambda: PiRational(Decimal("0.5")),
                lambda: PolynomialND(2, {(1, 0): "1/2"}), lambda: P * "1/2",
                lambda: P.evaluate(("1/3", 0)),
                lambda: moment_average((2, 0), 2, radius="1/2")):
        with pytest.raises(TypeError):
            bad()
    for three in (3, Fraction(3), np.int64(3)):
        x = PiRational(three, 1)
        assert x == PiRational(Fraction(3), 1) and str(x) == "3 * pi"
        assert type(x.numerator) is int
        assert P * three == P * Fraction(3)
        assert PolynomialND(2, {(1, 0): three}) == PolynomialND.monomial(2, (1, 0), 3)
        assert P.evaluate((three, 1)) == P.evaluate((Fraction(3), Fraction(1)))
        assert ball_average(P, (three, 0), 2) == oracle_ball_average(P, (3, 0), 2)
        assert moment_average((2, 0), 2, radius=three).value == Fraction(9, 4)


def test_integer_path_matches_fraction_route():
    # int centres and radii, R = 0 and the zero polynomial included, give
    # the answers of the same Fraction inputs and of the oracles
    for case in range(24):
        n, m = 1 + case % 4, 1 + case % 3
        P = PolynomialND.zero(n) if case == 0 else almansi_random(m, n, case % 6, seed=case)
        x0 = tuple((case >> k) % 3 - 1 for k in range(n))
        R = case % 4
        frac_x0, frac_R = tuple(Fraction(x) for x in x0), Fraction(R)
        assert ball_average(P, x0, R) == ball_average(P, frac_x0, frac_R) \
            == oracle_ball_average(P, x0, R), case
        rep = pizzetti_check(P, m, x0, R)
        assert rep.exact and rep.residual == 0, case
        assert rep.rhs == pizzetti_check(P, m, frac_x0, frac_R).rhs \
            == oracle_pizzetti_rhs(P, m, x0, R), case


def test_non_polyharmonic_integer_case_is_not_exact():
    # Delta^m P != 0: the residual is the evaluate route's, not zero
    P = almansi_random(2, 3, 4, seed=8) + PolynomialND.monomial(3, (2, 2, 2), 5)
    x0 = (1, -1, 2)
    for order in (1, 2, 3):
        rep = pizzetti_check(P, order, x0, 3)
        assert not rep.exact
        assert rep.residual == ball_average(P, x0, 3) - oracle_pizzetti_rhs(P, order, x0, 3) != 0


def test_pizzetti_check_refuses_m_below_one():
    # the empty sum is 0, so an m = 0 check would have residual 5, not 0
    P = PolynomialND.monomial(2, (0, 0), 5)
    for m in (0, -1):
        with pytest.raises(ValueError, match="need m >= 1"):
            pizzetti_check(P, m, (0, 0), 1)


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_reproduce_paper_almansi_digest_frozen():
    # repr of the 200 Almansi polynomials of reproduce-paper's Pizzetti row
    reprs = [repr(almansi_random(1 + i % 3, (2, 3, 4, 6)[i % 4], i % 7, 7000 + i))
             for i in range(200)]
    assert _sha256_lines(reprs) == \
        "f8474243776badbca266fa18591e3521166ceb86763dc513681750a64b7c7eba"


def test_pizzetti_sweep_digest_frozen():
    # (lhs, rhs, residual) of `pizzetti --m 3 --n 6 --cases 50 --seed 11`
    rows = []
    for i in range(50):
        case_seed = 11 * 100003 + i
        P = almansi_random(3, 6, i % 7, case_seed)
        x0 = tuple((((case_seed >> k) % 5) - 2 for k in range(6)))
        rep = pizzetti_check(P, 3, x0, 1 + (i % 3))
        rows.append(f"{rep.lhs} {rep.rhs} {rep.residual}")
    assert rows[:2] == ["73/15 73/15 0", "-9514/15 -9514/15 0"]
    assert _sha256_lines(rows) == \
        "a99c0bbabe699c11e3d39617d2826fdcdd01d5d95bc4da7cba6ac3f3c9f2efb1"


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
    assert moment_average((1, 0), 2).coefficient == 0
    mixed = moment_average((2, 2), 2)
    assert (mixed.coefficient, mixed.exponent) == (Fraction(1, 24), 4)


def test_moment_average_rejects_float_radius():
    with pytest.raises(TypeError, match="floats are not accepted"):
        moment_average((2, 0), 2, radius=0.5)


def test_moment_average_rejects_negative_radius():
    with pytest.raises(ValueError, match="nonnegative"):
        moment_average((2, 0), 2, radius=-1)
    assert moment_average((2, 0), 2, radius=Fraction(1, 2)).value == Fraction(1, 16)


def test_moment_average_validates_alpha_length():
    with pytest.raises(ValueError):
        moment_average((1, 2), 3)


coeff_st = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
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


# -- Fraction-dict ring operations, the oracle of the stored integer form ----


def fraction_dict(items):
    out = {}
    for alpha, c in items:
        out[alpha] = out.get(alpha, Fraction(0)) + c
    return out


def fraction_sum(f, g):
    out = dict(f)
    for alpha, c in g.items():
        out[alpha] = out.get(alpha, Fraction(0)) + c
    return out


def fraction_product(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def fraction_laplacian(f):
    out = {}
    for alpha, c in f.items():
        for i, e in enumerate(alpha):
            if e >= 2:
                key = alpha[:i] + (e - 2,) + alpha[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e * (e - 1)
    return out


@given(a=items_st, b=items_st, x=point_st)
@settings(max_examples=60, deadline=None)
def test_ring_homomorphism_at_points(a, b, x):
    P = poly_from(2, a)
    Q = poly_from(2, b)
    assert (P + Q).evaluate(x) == P.evaluate(x) + Q.evaluate(x)
    assert (P * Q).evaluate(x) == P.evaluate(x) * Q.evaluate(x)
    assert (P + Q).laplacian() == P.laplacian() + Q.laplacian()
    # the integer ring operations land on the one form of the Fraction result
    f, g = fraction_dict(a), fraction_dict(b)
    for got, want in ((P + Q, fraction_sum(f, g)), (P * Q, fraction_product(f, g)),
                      (P.laplacian(), fraction_laplacian(f))):
        want = PolynomialND(2, want)
        assert got == want and hash(got) == hash(want)


@given(a=items_st, b=items_st)
@settings(max_examples=40, deadline=None)
def test_product_degree_additive(a, b):
    P = poly_from(2, a)
    Q = poly_from(2, b)
    if not P.is_zero and not Q.is_zero:
        assert (P * Q).degree() == P.degree() + Q.degree()
