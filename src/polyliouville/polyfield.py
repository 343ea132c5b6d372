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

A PolynomialND has one form: integer numerators N over one denominator D,
with gcd(D, all N) = 1. The ring operations, the Laplacian, the generator,
ball_average and pizzetti_check all run on N and D, so the exact layer of
the Pizzetti sweep runs in integers from the generator to the verdict;
PizzettiReport.exact compares (numerator, denominator) pairs by
cross-multiplication, and a sweep that only asks for verdicts builds no
Fraction at all. Fractions appear only where read: the read-only `terms`
view, evaluate, and the reported averages.

Every number handed in (coefficients, scalar factors, points, centres and
radii) must be exact: an int or Fraction, or another numbers.Rational such
as a numpy integer. A float, str or Decimal raises TypeError; the rule is
exactconst._exact, the one shared with PiRational.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .exactconst import _exact, double_factorial, pizzetti_coefficients


class PolynomialND:
    """Polynomial in n variables with rational coefficients.

    Stored as integer numerators N, a dict {exponent tuple: nonzero int},
    over one denominator D > 0 with gcd(D, all N) = 1, so each polynomial
    has exactly one (D, N). Instances are immutable: all operations return
    new objects, run on the integer numerators, and compare and hash by
    (n, D, N). `terms` is a read-only {exponent tuple: Fraction} view built
    on each read.
    """

    __slots__ = ("n", "_den", "_nums")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = _exact(coeff)
            if c != 0:
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for n={n}")
                clean[tuple(mono)] = c
        # the lcm of reduced denominators leaves gcd(D, all N) = 1
        D = math.lcm(1, *(c.denominator for c in clean.values()))
        self._den = D
        self._nums = {a: c.numerator * (D // c.denominator) for a, c in clean.items()}

    @classmethod
    def _over(cls, n: int, den: int, nums: dict) -> "PolynomialND":
        """N / D from valid exponent tuples, integers N and D > 0; zero
        entries are dropped and the common gcd divided out."""
        nums = {a: c for a, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {a: c // g for a, c in nums.items()}
        P = cls.__new__(cls)
        P.n, P._den, P._nums = n, den, nums
        return P

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exponent tuple: Fraction}, reduced."""
        D = self._den
        return MappingProxyType({a: Fraction(c, D) for a, c in self._nums.items()})

    def __reduce__(self):
        return PolynomialND._over, (self.n, self._den, self._nums)

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
        return cls._over(n, 1, _times_rsq({(0,) * n: 1}))

    # -- basics --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(a) for a in self._nums), default=-1)

    def __eq__(self, other):
        return isinstance(other, PolynomialND) \
            and (self.n, self._den, self._nums) == (other.n, other._den, other._nums)

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._nums.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = self.terms
        bits = []
        for alpha in sorted(terms, key=lambda a: (sum(a), a), reverse=True):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(alpha) if e)
            bits.append(f"{terms[alpha]}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "PolynomialND") -> "PolynomialND":
        return self._plus(other, 1)

    def __sub__(self, other: "PolynomialND") -> "PolynomialND":
        return self._plus(other, -1)

    def _plus(self, other, s: int):
        """self + s * other over the lcm of the two denominators."""
        if not isinstance(other, PolynomialND):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        D = math.lcm(self._den, other._den)
        out: dict = {}
        _add_scaled(out, self._nums, D // self._den)
        _add_scaled(out, other._nums, s * (D // other._den))
        return PolynomialND._over(self.n, D, out)

    def __mul__(self, other):
        if not isinstance(other, PolynomialND):
            c = _exact(other)
            out: dict = {}
            _add_scaled(out, self._nums, c.numerator)
            return PolynomialND._over(self.n, self._den * c.denominator, out)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = {}
        for a, ca in self._nums.items():
            for b, cb in other._nums.items():
                key = tuple(map(operator.add, a, b))
                out[key] = out.get(key, 0) + ca * cb
        return PolynomialND._over(self.n, self._den * other._den, out)

    __rmul__ = __mul__

    # -- calculus --------------------------------------------------------

    def laplacian(self) -> "PolynomialND":
        return PolynomialND._over(self.n, self._den, _laplacian_terms(self._nums))

    def iterated_laplacian(self, j: int) -> "PolynomialND":
        out = self
        for _ in range(j):
            out = out.laplacian()
        return out

    def evaluate(self, point) -> Fraction:
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        pt = [_exact(x) for x in point]
        total = Fraction(0)
        for a, c in self.terms.items():
            v = c
            for x, e in zip(pt, a):
                if e:
                    v = v * x ** e
            total += v
        return total


# -- coefficient dicts ---------------------------------------------------
#
# The exact layer runs on plain {exponent tuple: integer numerator} dicts
# over a denominator kept alongside. The tables below depend only on small
# integers, so bounded caches keep them across the cases of a sweep.


@functools.lru_cache(maxsize=4096)
def _laplacian_edges(alpha: tuple) -> tuple:
    """(beta, e (e - 1)) for each x_i^e of x^alpha with e >= 2: the
    Laplacian of x^alpha is the sum of e (e - 1) x^beta."""
    return tuple((alpha[:i] + (e - 2,) + alpha[i + 1:], e * (e - 1))
                 for i, e in enumerate(alpha) if e >= 2)


@functools.lru_cache(maxsize=4096)
def _rsq_edges(alpha: tuple) -> tuple:
    """The exponents of |x|^2 x^alpha, one per coordinate."""
    return tuple(alpha[:i] + (e + 2,) + alpha[i + 1:] for i, e in enumerate(alpha))


def _laplacian_terms(terms) -> dict:
    """Laplacian of a coefficient dict; zero sums may stay as entries."""
    out = {}
    for a, c in terms.items():
        for key, f in _laplacian_edges(a):
            out[key] = out.get(key, 0) + c * f
    return out


def _times_rsq(terms: dict) -> dict:
    """|x|^2 times a coefficient dict."""
    out = {}
    for a, c in terms.items():
        for key in _rsq_edges(a):
            out[key] = out.get(key, 0) + c
    return out


def _add_scaled(acc: dict, terms: dict, s: int) -> None:
    """acc += s * terms, in place."""
    for a, c in terms.items():
        acc[a] = acc.get(a, 0) + s * c


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
        return self.coefficient * self.radius ** self.exponent


def moment_average(alpha, n: int, radius=None) -> MomentValue:
    """Exact average of the monomial x^alpha over the ball B_R.

    Parameters
    ----------
    alpha : multi-index (length n)
    n : ambient dimension
    radius : optional exact radius R >= 0 (a negative one raises
        ValueError); when given, .value is available

    Returns zero (as a MomentValue) when any entry of alpha is odd.
    """
    if len(alpha) != n:
        raise ValueError("alpha length must equal n")
    deg = sum(alpha)
    rad = None if radius is None else _exact(radius)
    if rad is not None and rad < 0:
        raise ValueError(f"radius must be nonnegative, got {rad}")
    if any(a % 2 for a in alpha):
        return MomentValue(Fraction(0), deg, rad)
    num = 1
    for a in alpha:
        num *= double_factorial(a - 1)
    den = 1
    for k in range(1, deg // 2 + 1):
        den *= n + 2 * k - 2
    return MomentValue(Fraction(num, den) * Fraction(n, n + deg), deg, rad)


def _centre_radius(n: int, x0, R) -> tuple[int, list[int], int]:
    """(q, a, b) with x0 = a / q and R = b / q over one q > 0.

    All-int input skips the Fraction route; x0 and R must be exact, x0 of
    length n and R >= 0.
    """
    vals = [*x0, R]
    if all(type(v) is int for v in vals):
        q = 1
    else:
        vals = [_exact(v) for v in vals]
        q = math.lcm(*(v.denominator for v in vals))
        vals = [v.numerator * (q // v.denominator) for v in vals]
    b = vals.pop()
    if len(vals) != n:
        raise ValueError(f"centre has length {len(vals)}, expected {n}")
    if b < 0:
        raise ValueError(f"radius must be nonnegative, got {Fraction(b, q)}")
    return q, vals, b


@functools.lru_cache(maxsize=1024)
def _coordinate_list(a: int, e: int) -> tuple:
    """C(e, 2t) a^{e-2t} (2t - 1)!! for t = 0..e/2: the even-power part of
    (a + y)^e, each y^{2t} weighted by its moment numerator (2t - 1)!!."""
    return tuple(math.comb(e, 2 * t) * a ** (e - 2 * t) * double_factorial(2 * t - 1)
                 for t in range(e // 2 + 1))


def _ball_sum(P: PolynomialND, q: int, a: list, b: int) -> tuple[int, int]:
    """(numerator, denominator) of the average of P over B_{b/q}(a/q)."""
    n = P.n
    deg = max(P.degree(), 0)
    C, N = P._den, P._nums
    b2 = b * b
    # w[k] = b^{2k} L / prod_{j=1}^{k} (n + 2j), so w[0] = L
    w = [b2 ** k * math.prod(range(n + 2 * k + 2, n + deg + 1, 2)) for k in range(deg // 2 + 1)]
    total = 0
    for alpha, c in N.items():
        g = None
        for ai, e in zip(a, alpha):
            if e:
                f = _coordinate_list(ai, e)
                if g is None:
                    g = f
                    continue
                h = [0] * (len(g) + e // 2)
                for s, gs in enumerate(g):
                    for t, ft in enumerate(f, s):
                        h[t] += gs * ft
                g = h
        moment_sum = w[0] if g is None else sum(map(operator.mul, g, w))
        total += c * q ** (deg - sum(alpha)) * moment_sum
    return total, C * w[0] * q ** deg


def ball_average(P: PolynomialND, x0, R) -> Fraction:
    """Exact average of P over the ball B_R(x0), by a direct moment sum.

    With x = x0 + y, x^alpha averages to the sum over even beta <= alpha of
    prod_i C(alpha_i, beta_i) x0_i^{alpha_i - beta_i} times the ball moment
    of y^beta, R^{|beta|} prod_i (beta_i - 1)!! / prod_{j=1}^{|beta|/2} (n + 2j);
    the translated polynomial is never built. Per monomial the beta-sum is a
    convolution over k = |beta|/2 of one short list per coordinate, summed
    in integers: x0 = a/q and R = b/q over a common q (q = 1 for int x0
    and R, with no Fraction built), P = N / C as it is stored, moments
    over L = prod_{j=1}^{deg/2} (n + 2j), every term over q^deg. The one
    Fraction is the result. x0 and R must be exact, R >= 0.
    """
    return Fraction(*_ball_sum(P, *_centre_radius(P.n, x0, R)))


# -- Pizzetti check -------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _pizzetti_integers(n: int, m: int) -> tuple[int, tuple]:
    """(K, k) with c_i = k_i / K for the first m Pizzetti coefficients."""
    cs = pizzetti_coefficients(n, m)
    K = math.lcm(*(c.denominator for c in cs))
    return K, tuple(c.numerator * (K // c.denominator) for c in cs)


class PizzettiReport:
    """Ball average (lhs) against the Pizzetti sum (rhs) of one check.

    Both sides are kept as (numerator, denominator) integer pairs; `exact`
    compares them by cross-multiplication, and lhs, rhs and residual =
    lhs - rhs are reduced Fractions built when read.
    """

    __slots__ = ("_lhs", "_rhs")

    def __init__(self, lhs: tuple[int, int], rhs: tuple[int, int]):
        self._lhs, self._rhs = lhs, rhs

    @property
    def lhs(self) -> Fraction:
        return Fraction(*self._lhs)

    @property
    def rhs(self) -> Fraction:
        return Fraction(*self._rhs)

    @property
    def residual(self) -> Fraction:
        return self.lhs - self.rhs

    @property
    def exact(self) -> bool:
        (a, b), (c, d) = self._lhs, self._rhs
        return a * d == c * b

    def __eq__(self, other):
        return isinstance(other, PizzettiReport) \
            and (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __repr__(self):
        return f"PizzettiReport(lhs={self.lhs!r}, rhs={self.rhs!r}, residual={self.residual!r})"


def pizzetti_check(P: PolynomialND, m: int, x0, R) -> PizzettiReport:
    """Compare the exact ball average of P with the m-term Pizzetti sum.

    lhs  = average of P over B_R(x0)
    rhs  = sum_{i=0}^{m-1} c_i R^{2i} (Delta^i P)(x0)

    The residual is exactly zero whenever Delta^m P = 0, and equals
    c_m R^{2m} (Delta^m P)(x0) for any P of degree <= 2m. m must be >= 1
    (ValueError otherwise); x0 and R must be exact and R nonnegative, as
    for ball_average.

    Both sides run in integers, on P's stored numerators N over C
    and on x0 = a / q, R = b / q (no Fraction built for int x0 and R). The
    Laplacians act on N, and c_i = k_i / K over one K per (n, m). With
    deg P's degree, every rhs term shares the denominator K C q^deg:

        rhs = sum_i k_i b^{2i} sum_alpha (Delta^i N)_alpha a^alpha q^{deg - 2i - |alpha|} / (K C q^deg).

    The report keeps both sides as integer pairs; see PizzettiReport.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    n = P.n
    q, a, b = _centre_radius(n, x0, R)
    lhs = _ball_sum(P, q, a, b)
    C, N = P._den, P._nums
    K, ks = _pizzetti_integers(n, m)
    deg = max(P.degree(), 0)
    total = 0
    for i, k in enumerate(ks):
        if i:
            N = _laplacian_terms(N)
        t = 0
        for alpha, v in N.items():
            if v:
                for ai, e in zip(a, alpha):
                    if e:
                        v *= ai ** e
                t += v * q ** (deg - 2 * i - sum(alpha))
        total += k * b ** (2 * i) * t
    return PizzettiReport(lhs, (total, K * C * q ** deg))


# -- Almansi generator ------------------------------------------------------


_NUMERATORS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def _random_homogeneous(rng: random.Random, n: int, d: int) -> dict:
    """One or two random monomials of degree d, numerators over 6."""
    terms = {}
    for _ in range(1 + rng.randrange(2)):
        cuts = sorted(rng.randrange(d + 1) for _ in range(n - 1)) if n > 1 else []
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        num = rng.choice(_NUMERATORS)
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
    _harmonic_part, then P = sum_k |x|^{2k} H_k / D_k over the lcm D of the
    D_k by Horner's rule in |x|^2. The result is those integer numerators
    over D, put in lowest terms (zero entries dropped, the common gcd
    divided out) as every PolynomialND is.
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
    return PolynomialND._over(n, D, acc)
