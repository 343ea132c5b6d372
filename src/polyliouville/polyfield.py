"""Exact multivariate polynomial calculus over the rationals.

Polynomials live in n variables with rational coefficients and support the
iterated Laplacian, exact moment and ball averages, the Pizzetti
ball-average identity, and a seeded generator of Almansi-type
polyharmonic polynomials sum_k |x|^{2k} h_k with each h_k harmonic, the
harmonic part of a random homogeneous draw in closed form.

Sphere average of a monomial x^alpha over S^{n-1}(R), all alpha_i even::

    prod_i (alpha_i - 1)!!  /  [ n (n+2) ... (n + |alpha| - 2) ]  *  R^{|alpha|}

and zero when any alpha_i is odd. The ball average carries the extra factor
n / (n + |alpha|), leaving prod_i (alpha_i - 1)!! / prod_{j=1}^{|alpha|/2}
(n + 2j) * R^{|alpha|}. ball_average sums these ball moments directly over
the binomial expansion of each monomial about the centre, in integers,
without ever building the translated polynomial.

The exact layer of the Pizzetti sweep runs in integers: ball_average, the
right-hand side of pizzetti_check and almansi_random work on integer
numerators over one denominator and build a rational only at the end.

PolynomialND coefficients are fractions.Fraction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactconst import double_factorial, pizzetti_coefficients

_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("polyfield is exact, floats are not accepted")
    return Fraction(x)


class PolynomialND:
    """Polynomial in n variables, stored as {exponent tuple: coefficient}.

    Instances are immutable in spirit: all operations return new objects and
    zero coefficients are dropped on construction.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = _rat(coeff)
            if c != 0:
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for n={n}")
                clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PolynomialND":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "PolynomialND":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n: int, alpha, coeff=1) -> "PolynomialND":
        return cls(n, {tuple(alpha): coeff})

    @classmethod
    def rsq(cls, n: int) -> "PolynomialND":
        """|x|^2 as a polynomial."""
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            terms[tuple(e)] = 1
        return cls(n, terms)

    # -- basics --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, PolynomialND) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            c = self.terms[alpha]
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(alpha) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "PolynomialND") -> "PolynomialND":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, _ZERO) + c
        return PolynomialND(self.n, out)

    def __sub__(self, other: "PolynomialND") -> "PolynomialND":
        return self + (other * -1)

    def __mul__(self, other):
        if not isinstance(other, PolynomialND):
            c = _rat(other)
            return PolynomialND(self.n, {a: v * c for a, v in self.terms.items()})
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, _ZERO) + ca * cb
        return PolynomialND(self.n, out)

    __rmul__ = __mul__

    # -- calculus --------------------------------------------------------

    def laplacian(self) -> "PolynomialND":
        return PolynomialND(self.n, _laplacian_terms(self.terms))

    def iterated_laplacian(self, j: int) -> "PolynomialND":
        out = self
        for _ in range(j):
            out = out.laplacian()
        return out

    def evaluate(self, point) -> Fraction:
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        pt = [_rat(x) for x in point]
        total = _ZERO
        for a, c in self.terms.items():
            v = c
            for x, e in zip(pt, a):
                if e:
                    v = v * x ** e
            total += v
        return total


# -- coefficient dicts ---------------------------------------------------
#
# The exact layer runs on plain {exponent tuple: coefficient} dicts, mostly
# integer numerators over one denominator kept alongside, and builds a
# PolynomialND (or a Fraction) only at the end.


def _laplacian_terms(terms: dict) -> dict:
    """Laplacian of a coefficient dict; zero sums may stay as entries."""
    out = {}
    for a, c in terms.items():
        for i, e in enumerate(a):
            if e >= 2:
                key = a[:i] + (e - 2,) + a[i + 1:]
                out[key] = out.get(key, 0) + c * (e * (e - 1))
    return out


def _times_rsq(terms: dict) -> dict:
    """|x|^2 times a coefficient dict."""
    out = {}
    for a, c in terms.items():
        for i, e in enumerate(a):
            key = a[:i] + (e + 2,) + a[i + 1:]
            out[key] = out.get(key, 0) + c
    return out


def _add_scaled(acc: dict, terms: dict, s: int) -> None:
    """acc += s * terms, in place."""
    for a, c in terms.items():
        acc[a] = acc.get(a, 0) + s * c


def _over_lcm(P: "PolynomialND") -> tuple[int, dict]:
    """(C, N) with C the lcm of P's denominators and P = N / C, N integer."""
    C = math.lcm(1, *(c.denominator for c in P.terms.values()))
    return C, {a: c.numerator * (C // c.denominator) for a, c in P.terms.items()}


# -- moments ------------------------------------------------------------


@dataclass(frozen=True)
class MomentValue:
    """Exact average of x^alpha as coefficient * R^exponent."""

    coefficient: Fraction
    exponent: int
    radius: Fraction | None = None

    @property
    def value(self) -> Fraction:
        if self.radius is None:
            raise ValueError("no numeric radius attached")
        return Fraction(self.coefficient) * Fraction(self.radius) ** self.exponent


def moment_average(alpha, n: int, radius=None) -> MomentValue:
    """Exact average of the monomial x^alpha over the ball B_R.

    Parameters
    ----------
    alpha : multi-index (length n)
    n : ambient dimension
    radius : optional exact radius R >= 0 (a float raises TypeError, a
        negative value ValueError); when given, .value is available

    Returns zero (as a MomentValue) when any entry of alpha is odd.
    """
    if len(alpha) != n:
        raise ValueError("alpha length must equal n")
    deg = sum(alpha)
    rad = None if radius is None else _radius(radius)
    if any(a % 2 for a in alpha):
        return MomentValue(Fraction(0), deg, rad)
    num = 1
    for a in alpha:
        num *= double_factorial(a - 1)
    den = 1
    for k in range(1, deg // 2 + 1):
        den *= n + 2 * k - 2
    return MomentValue(Fraction(num, den) * Fraction(n, n + deg), deg, rad)


def _radius(R) -> Fraction:
    R = _rat(R)
    if R < 0:
        raise ValueError(f"radius must be nonnegative, got {R}")
    return R


def ball_average(P: PolynomialND, x0, R) -> Fraction:
    """Exact average of P over the ball B_R(x0), by a direct moment sum.

    With x = x0 + y, x^alpha averages to the sum over even beta <= alpha of
    prod_i C(alpha_i, beta_i) x0_i^{alpha_i - beta_i} times the ball moment
    of y^beta, R^{|beta|} prod_i (beta_i - 1)!! / prod_{j=1}^{|beta|/2} (n + 2j);
    the translated polynomial is never built. Per monomial the beta-sum is a
    convolution over k = |beta|/2 of one short list per coordinate, summed
    in integers: x0 = a/q and R = b/q over a common q, coefficients over
    their lcm C, moments over L = prod_{j=1}^{deg/2} (n + 2j), every term
    over q^deg. x0 and R must be exact (floats raise TypeError), R >= 0.
    """
    n = P.n
    x0 = [_rat(s) for s in x0]
    if len(x0) != n:
        raise ValueError(f"centre has length {len(x0)}, expected {n}")
    R = _radius(R)
    deg = max(P.degree(), 0)
    q = math.lcm(R.denominator, *(s.denominator for s in x0))
    a = [s.numerator * (q // s.denominator) for s in x0]
    b2 = (R.numerator * (q // R.denominator)) ** 2
    C, N = _over_lcm(P)
    # w[k] = b^{2k} L / prod_{j=1}^{k} (n + 2j), so w[0] = L
    w = [b2 ** k * math.prod(range(n + 2 * k + 2, n + deg + 1, 2)) for k in range(deg // 2 + 1)]
    lists = {(i, e): [math.comb(e, 2 * t) * a[i] ** (e - 2 * t) * double_factorial(2 * t - 1)
                      for t in range(e // 2 + 1)]
             for i, e in {(i, e) for alpha in P.terms for i, e in enumerate(alpha) if e}}
    total = 0
    for alpha, c in N.items():
        g = [1]
        for i, e in enumerate(alpha):
            if e:
                f, h = lists[i, e], [0] * (len(g) + e // 2)
                for s, gs in enumerate(g):
                    for t, ft in enumerate(f):
                        h[s + t] += gs * ft
                g = h
        moment_sum = sum(gk * wk for gk, wk in zip(g, w))
        total += c * q ** (deg - sum(alpha)) * moment_sum
    return Fraction(total, C * w[0] * q ** deg)


# -- Pizzetti check -------------------------------------------------------


@dataclass(frozen=True)
class PizzettiReport:
    lhs: Fraction
    rhs: Fraction
    residual: Fraction

    @property
    def exact(self) -> bool:
        return self.residual == 0


def pizzetti_check(P: PolynomialND, m: int, x0, R) -> PizzettiReport:
    """Compare the exact ball average of P with the m-term Pizzetti sum.

    lhs  = average of P over B_R(x0)
    rhs  = sum_{i=0}^{m-1} c_i R^{2i} (Delta^i P)(x0)

    The residual is exactly zero whenever Delta^m P = 0, and equals
    c_m R^{2m} (Delta^m P)(x0) for any P of degree <= 2m. x0 and R must be
    exact and R nonnegative, as for ball_average.

    rhs runs in integers, like ball_average: P = N / C over the lcm C of
    its coefficients' denominators, x0 = a / q over a common q, and the
    Laplacians act on the integer dict N. With deg_i the degree bound
    deg P - 2i of Delta^i N, each term is one Fraction

        c_i R^{2i} sum_alpha (Delta^i N)_alpha a^alpha q^{deg_i - |alpha|} / (C q^{deg_i}).
    """
    R = _radius(R)
    lhs = ball_average(P, x0, R)
    x0 = [_rat(s) for s in x0]
    q = math.lcm(1, *(s.denominator for s in x0))
    a = [s.numerator * (q // s.denominator) for s in x0]
    C, N = _over_lcm(P)
    deg = P.degree()
    rhs = Fraction(0)
    for i, c in enumerate(pizzetti_coefficients(P.n, m)):
        if not N:
            break
        total = 0
        for alpha, v in N.items():
            if v:
                for ai, e in zip(a, alpha):
                    if e:
                        v *= ai ** e
                total += v * q ** (deg - sum(alpha))
        rhs += Fraction(c.numerator * R.numerator ** (2 * i) * total,
                        c.denominator * R.denominator ** (2 * i) * C * q ** deg)
        N = _laplacian_terms(N)
        deg -= 2
    return PizzettiReport(lhs=lhs, rhs=rhs, residual=lhs - rhs)


# -- Almansi generator ------------------------------------------------------


def _random_homogeneous(rng: random.Random, n: int, d: int) -> dict:
    """One or two random monomials of degree d, numerators over 6."""
    terms = {}
    for _ in range(1 + rng.randrange(2)):
        cuts = sorted(rng.randrange(d + 1) for _ in range(n - 1)) if n > 1 else []
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        num = rng.choice([c for c in range(-5, 6) if c])
        den = rng.choice([1, 1, 2, 3])
        terms[alpha] = terms.get(alpha, 0) + num * (6 // den)
    return terms


def _harmonic_part(q: dict, n: int, d: int) -> tuple[dict, int]:
    """Harmonic part of a homogeneous q of degree d, as (H, K) with h = H / K.

    K = prod_{i=1}^{J} 2i (n+2d-2-2i) with J = d // 2, and
    H = sum_{j=0}^{J} (-1)^j w_j |x|^{2j} Delta^j q with the integer weight
    w_j = prod_{i=j+1}^{J} 2i (n+2d-2-2i), which is K times the closed-form
    coefficient derived in almansi_random. H is summed by Horner's rule in
    |x|^2 from j = J down, so w_j and finally K build up as it goes.
    """
    laps = [q]
    for _ in range(d // 2):
        laps.append(_laplacian_terms(laps[-1]))
    acc: dict = {}
    w = 1
    for j in range(d // 2, -1, -1):
        acc = _times_rsq(acc)
        _add_scaled(acc, laps[j], -w if j % 2 else w)
        if j:
            w *= 2 * j * (n + 2 * d - 2 - 2 * j)
    return acc, w  # w_0 = K


def almansi_random(m: int, n: int, d: int, seed: int) -> PolynomialND:
    """Seeded random polyharmonic polynomial P = sum_k |x|^{2k} h_k, k < m.

    Each h_k is the harmonic part of a random sparse homogeneous q of
    degree d_k <= d; draws are retried (a bounded number of times) until
    every component is nonzero, which guarantees Delta^j P != 0 for j < m
    while Delta^m P = 0.

    The harmonic part has a closed form. For f homogeneous of degree e,

        Delta(|x|^{2j} f) = |x|^{2j} Delta f + 2j (n + 2e + 2j - 2) |x|^{2j-2} f,

    from Delta |x|^{2j} = 2j (n + 2j - 2) |x|^{2j-2} and Euler's
    x . grad f = e f. Put h = sum_{j=0}^{J} a_j |x|^{2j} Delta^j q with
    J = d // 2 and a_0 = 1. Taking f = Delta^j q (e = d - 2j), the
    |x|^{2j} Delta^{j+1} q terms of Delta h cancel pairwise (telescope)
    exactly when a_{j+1} 2(j+1) (n + 2d - 4 - 2j) = -a_j, and the last one
    vanishes since deg Delta^J q <= 1. Hence

        h = sum_{j=0}^{J} (-1)^j |x|^{2j} Delta^j q / (2^j j! prod_{i=1}^{j} (n+2d-2-2i))

    is harmonic, and q - h is a multiple of |x|^2, so h is the harmonic
    part of the Fischer decomposition q = h + |x|^2 w. Every factor
    n + 2d - 2 - 2i >= n + d - 2 is positive for 1 <= i <= J.

    Everything runs on integer dicts: q over 6, h = H / (6 K) by
    _harmonic_part, then P = sum_k |x|^{2k} H_k / D_k over the lcm of the
    D_k by Horner's rule in |x|^2; the one PolynomialND is built last.
    """
    if m < 1 or n < 1 or d < 0:
        raise ValueError("need m >= 1, n >= 1, d >= 0")
    rng = random.Random(seed)
    layers = []
    for _ in range(m):
        for _ in range(60):
            dk = rng.randint(0, d)
            H, K = _harmonic_part(_random_homogeneous(rng, n, dk), n, dk)
            if any(H.values()):
                layers.append((H, 6 * K))
                break
        else:  # pragma: no cover - d = 0 draws cannot be zero
            layers.append(({(0,) * n: 1}, 1))
    D = math.lcm(*(den for _, den in layers))
    acc: dict = {}
    for H, den in reversed(layers):
        acc = _times_rsq(acc)
        _add_scaled(acc, H, D // den)
    return PolynomialND(n, {a: Fraction(c, D) for a, c in acc.items() if c})
