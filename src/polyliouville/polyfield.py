"""Exact multivariate polynomial calculus over the rationals.

Polynomials live in n variables with rational coefficients and support the
iterated Laplacian, exact moment and ball averages, the Pizzetti
ball-average identity, and a seeded generator of Almansi-type
polyharmonic polynomials sum_k |x|^{2k} h_k with each h_k harmonic.

Sphere average of a monomial x^alpha over S^{n-1}(R), all alpha_i even::

    prod_i (alpha_i - 1)!!  /  [ n (n+2) ... (n + |alpha| - 2) ]  *  R^{|alpha|}

and zero when any alpha_i is odd. The ball average carries the extra factor
n / (n + |alpha|), leaving prod_i (alpha_i - 1)!! / prod_{j=1}^{|alpha|/2}
(n + 2j) * R^{|alpha|}. ball_average sums these ball moments directly over
the binomial expansion of each monomial about the centre, in integers,
without ever building the translated polynomial.

Exact arithmetic uses gmpy2.mpq when available (several times faster than
fractions.Fraction) and falls back to the stdlib otherwise. Both types
interoperate and compare equal, so callers may pass either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactconst import double_factorial, pizzetti_coefficients

try:
    from gmpy2 import mpq as _RAT
except ImportError:  # pragma: no cover - environment without gmpy2
    _RAT = Fraction

_ZERO = _RAT(0)


def _rat(x) -> "_RAT":
    if isinstance(x, float):
        raise TypeError("polyfield is exact, floats are not accepted")
    if isinstance(x, Fraction):
        return _RAT(x.numerator, x.denominator)
    return _RAT(x)


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

    def __pow__(self, k: int) -> "PolynomialND":
        if k < 0:
            raise ValueError("negative power")
        out = PolynomialND.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus --------------------------------------------------------

    def laplacian(self) -> "PolynomialND":
        out = {}
        for a, c in self.terms.items():
            for i in range(self.n):
                if a[i] >= 2:
                    b = list(a)
                    b[i] -= 2
                    key = tuple(b)
                    out[key] = out.get(key, _ZERO) + c * (a[i] * (a[i] - 1))
        return PolynomialND(self.n, out)

    def iterated_laplacian(self, j: int) -> "PolynomialND":
        out = self
        for _ in range(j):
            out = out.laplacian()
        return out

    def evaluate(self, point) -> "_RAT":
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

    def homogeneous_part(self, d: int) -> "PolynomialND":
        return PolynomialND(self.n, {a: c for a, c in self.terms.items() if sum(a) == d})


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


def moment_average(alpha, n: int, domain: str = "ball", radius=None) -> MomentValue:
    """Exact average of the monomial x^alpha over a ball or sphere of radius R.

    Parameters
    ----------
    alpha : multi-index (length n)
    n : ambient dimension
    domain : "ball" averages over B_R, "sphere" over S^{n-1}(R)
    radius : optional exact radius R >= 0 (a float raises TypeError, a
        negative value ValueError); when given, .value is available

    Returns zero (as a MomentValue) when any entry of alpha is odd.
    """
    if len(alpha) != n:
        raise ValueError("alpha length must equal n")
    if domain not in ("ball", "sphere"):
        raise ValueError("domain must be 'ball' or 'sphere'")
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
    coeff = Fraction(num, den)
    if domain == "ball":
        coeff *= Fraction(n, n + deg)
    return MomentValue(coeff, deg, rad)


def _radius(R) -> Fraction:
    R = Fraction(_rat(R))
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
    C = math.lcm(1, *(c.denominator for c in P.terms.values()))
    # w[k] = b^{2k} L / prod_{j=1}^{k} (n + 2j), so w[0] = L
    w = [b2 ** k * math.prod(range(n + 2 * k + 2, n + deg + 1, 2)) for k in range(deg // 2 + 1)]
    lists = {(i, e): [math.comb(e, 2 * t) * a[i] ** (e - 2 * t) * double_factorial(2 * t - 1)
                      for t in range(e // 2 + 1)]
             for i, e in {(i, e) for alpha in P.terms for i, e in enumerate(alpha) if e}}
    total = 0
    for alpha, c in P.terms.items():
        g = [1]
        for i, e in enumerate(alpha):
            if e:
                f, h = lists[i, e], [0] * (len(g) + e // 2)
                for s, gs in enumerate(g):
                    for t, ft in enumerate(f):
                        h[s + t] += gs * ft
                g = h
        moment_sum = sum(gk * wk for gk, wk in zip(g, w))
        total += c.numerator * (C // c.denominator) * q ** (deg - sum(alpha)) * moment_sum
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
    """
    R = _radius(R)
    lhs = ball_average(P, x0, R)
    cs = pizzetti_coefficients(P.n, m)
    rhs = Fraction(0)
    Q = P
    for i in range(m):
        rhs += cs[i] * R ** (2 * i) * Fraction(Q.evaluate(x0))
        Q = Q.laplacian()
    return PizzettiReport(lhs=lhs, rhs=rhs, residual=lhs - rhs)


# -- harmonic projection and Almansi generator ----------------------------


def _fischer_solve(g: PolynomialND, c: int) -> PolynomialND:
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


def harmonic_projection(q: PolynomialND) -> PolynomialND:
    """Harmonic component of q in the Fischer decomposition, exactly.

    Each homogeneous part q_k is written q_k = h_k + |x|^2 w with
    Delta h_k = 0; the |x|^2-multiple is subtracted. The result is the sum
    of the harmonic components over all degrees.
    """
    out = PolynomialND.zero(q.n)
    for d in range(q.degree() + 1):
        qd = q.homogeneous_part(d)
        if qd.is_zero:
            continue
        if d <= 1:
            out = out + qd
            continue
        g = qd.laplacian()
        if g.is_zero:
            out = out + qd
            continue
        w = _fischer_solve(g, 2 * q.n + 4 * (d - 2))
        out = out + qd - PolynomialND.rsq(q.n) * w
    return out


def _random_homogeneous(rng: random.Random, n: int, d: int) -> PolynomialND:
    terms = {}
    for _ in range(1 + rng.randrange(2)):
        cuts = sorted(rng.randrange(d + 1) for _ in range(n - 1)) if n > 1 else []
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        num = rng.choice([c for c in range(-5, 6) if c])
        den = rng.choice([1, 1, 2, 3])
        terms[alpha] = terms.get(alpha, _ZERO) + _RAT(num, den)
    return PolynomialND(n, terms)


def almansi_random(m: int, n: int, d: int, seed: int) -> PolynomialND:
    """Seeded random polyharmonic polynomial P = sum_k |x|^{2k} h_k, k < m.

    Each h_k is the harmonic projection of a random sparse polynomial of
    degree <= d; draws are retried (a bounded number of times) until every
    component is nonzero, which guarantees Delta^j P != 0 for j < m while
    Delta^m P = 0.
    """
    if m < 1 or n < 1 or d < 0:
        raise ValueError("need m >= 1, n >= 1, d >= 0")
    rng = random.Random(seed)
    rsq = PolynomialND.rsq(n)
    total = PolynomialND.zero(n)
    for k in range(m):
        h = PolynomialND.zero(n)
        for _ in range(60):
            dk = rng.randint(0, d)
            h = harmonic_projection(_random_homogeneous(rng, n, dk))
            if not h.is_zero:
                break
        if h.is_zero:  # pragma: no cover - d = 0 draws cannot be zero
            h = PolynomialND.constant(n, 1)
        total = total + rsq ** k * h
    return total
