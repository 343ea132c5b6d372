"""Exact constants for the polyharmonic Liouville equation on R^{2m}.

Everything here is integer or rational arithmetic in the standard library.
The factor pi stays symbolic inside :class:`PiRational` and only turns into
a number at module boundaries: a correctly rounded float, or a rounded
decimal string, both from an enclosure of pi computed in Python integers
by Machin's formula.

Conventions, with n = 2m the ambient dimension::

    omega_n        = |S^{2m-1}| = (2 pi)^m / (2m-2)!!
    vol_sphere_2m  = |S^{2m}|   = 2 (2 pi)^m / (2m-1)!!
    gamma_m        = omega_n * 2^{2m-2} * ((m-1)!)^2
    sigma_m        = (-1)^m

    identity:  (2m-1)! * |S^{2m}| == 2 * gamma_m        (exact, all m >= 1)

Double factorials use the convention 0!! = (-1)!! = 1.

Exact input is an int, a Fraction or another numbers.Rational (numpy
integers included).  `_exact` turns it into a Fraction and raises
TypeError on anything else: floats, numpy floats, str, Decimal.  It is
the one rule, for PiRational and for every entry point of `polyfield`.
An order m passes `_order` in the same way: a Python or numpy integer
>= 1, kept as an int; a bool or a float raises ValueError.  It is the rule
of `constant_table`, `greenball.green_ball` and `shooter.ShootingConfig`.

Pizzetti coefficients (ball averages of polyharmonic functions)::

    c_0 = 1
    c_i = [n / (n + 2i)] * (n-2)!! / ( (2i)!! * (2i+n-2)!! ),   i >= 1

so that the average of h over B_R(x0) equals sum_i c_i R^{2i} (Delta^i h)(x0)
whenever the series terminates (h polynomial) or Delta^m h = 0.

Iterated Laplacians of the logarithm, for 1 <= j <= m-1::

    (-Delta)^j log(1/|x|) = 2^{2j-1} (j-1)! (m-1)! / (m-j-1)!  *  |x|^{-2j}
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from decimal import ROUND_HALF_DOWN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction


@functools.cache
def _pi_scaled(bits: int) -> int:
    """An integer p with |pi * 2**bits - p| < 1.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239), summed in fixed
    point with guard bits that outweigh the truncation of every term.
    """
    guard = bits.bit_length() + 10
    one = 1 << (bits + guard)

    def arccot(x):
        total = term = one // x
        k, x2 = 1, x * x
        while term:
            term //= x2
            k += 2
            total += -(term // k) if k % 4 == 3 else term // k
        return total

    pi = 16 * arccot(5) - 4 * arccot(239)
    return (pi + (1 << (guard - 1))) >> guard


def _exact(x) -> Fraction:
    """x as a Fraction; TypeError unless x is rational (see the module
    docstring).  int() keeps numpy's fixed-width integers out of it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, numbers.Real):
        raise TypeError(f"exact input only, floats are not accepted: got {x!r}")
    raise TypeError(f"exact input must be int or Fraction, not {type(x).__name__}")


def _order(m) -> int:
    """m as an int; ValueError unless m is an integer >= 1 (see the module
    docstring)."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return operator.index(m)


def _to_float(x: Fraction) -> float:
    """x correctly rounded (int / int is), overflowing to +-inf as IEEE
    rounding does where float(Fraction) raises."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def double_factorial(k: int) -> int:
    """k!! with the convention 0!! = (-1)!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial undefined for {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class PiRational:
    """An exact scalar q * pi^k with q rational and k an integer.

    Addition and subtraction are only defined between equal pi powers;
    multiplication and division combine powers. Negative pi powers are
    allowed (Green function coefficients carry pi in the denominator).
    """

    fraction: Fraction
    pi_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fraction", _exact(self.fraction))
        if not isinstance(self.pi_power, int):
            raise TypeError("pi_power must be an integer")
        # normal form: zero has pi_power 0 so equality is structural
        if self.fraction == 0 and self.pi_power != 0:
            object.__setattr__(self, "pi_power", 0)

    @property
    def numerator(self) -> int:
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        return self.fraction.denominator

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "PiRational":
        """other as a PiRational; an inexact scalar raises TypeError."""
        return other if isinstance(other, PiRational) else PiRational(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.fraction == 0:
            return other
        if other.fraction == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms exactly"
            )
        return PiRational(self.fraction + other.fraction, self.pi_power)

    __radd__ = __add__

    def __neg__(self):
        return PiRational(-self.fraction, self.pi_power)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return PiRational(self.fraction * other.fraction, self.pi_power + other.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.fraction == 0:
            raise ZeroDivisionError("division by zero PiRational")
        return PiRational(self.fraction / other.fraction, self.pi_power - other.pi_power)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("PiRational only supports integer powers")
        if k < 0 and self.fraction == 0:
            raise ZeroDivisionError("zero to a negative power")
        return PiRational(self.fraction ** k, self.pi_power * k)

    @property
    def is_positive(self) -> bool:
        return self.fraction > 0

    @property
    def is_zero(self) -> bool:
        return self.fraction == 0

    # -- conversions --------------------------------------------------

    def _rounded(self, rounding, bits: int):
        """rounding(q * pi^k) for a monotone rounding function.

        With k != 0 it rounds both ends of an enclosure of q * pi^k, from pi
        to `bits` bits, and doubles the bits until the two agree; q * pi^k
        is irrational, so it is never a tie and the loop ends.
        """
        if self.pi_power == 0:
            return rounding(self.fraction)
        while True:
            p = _pi_scaled(bits)
            lo, hi = (rounding(self.fraction * Fraction(p + s, 1 << bits) ** self.pi_power)
                      for s in (-1, 1))
            if lo == hi:
                return lo
            bits *= 2

    def __float__(self) -> float:
        return self._rounded(_to_float, 64)

    def decimal(self, digits: int = 30) -> str:
        """Decimal expansion to `digits` significant digits, to nearest.

        The text is mpmath's nstr, byte for byte: positional when the
        leading digit's exponent e satisfies min(-(digits // 3), -5) < e <
        digits, else "d.ddde+E" / "d.ddde-E", with trailing zeros stripped
        down to ".0".  So are its ties, which only a rational can have:
        mpmath holds a power-of-two denominator exactly and rounds its ties
        away from zero (1/4 -> "0.3"), but truncates the binary expansion of
        any other rational, whose ties therefore go toward zero
        (3/40 -> "0.07").
        """
        den = self.denominator
        ctx = Context(prec=digits,
                      rounding=ROUND_HALF_UP if den & (den - 1) == 0 else ROUND_HALF_DOWN)
        value = self._rounded(lambda x: ctx.divide(Decimal(x.numerator), x.denominator),
                              digits * 10 // 3 + 40)
        sign, coeff, _ = value.as_tuple()
        text = "".join(map(str, coeff)).rstrip("0")
        exponent = value.adjusted()
        suffix = ""
        if not min(-(digits // 3), -5) < exponent < digits:
            head, tail, suffix = text[0], text[1:], f"e{exponent:+d}"
        elif exponent < 0:
            head, tail = "0", "0" * (-exponent - 1) + text
        else:
            text = text.ljust(exponent + 1, "0")
            head, tail = text[:exponent + 1], text[exponent + 1:]
        return f"{'-' if sign else ''}{head}.{tail.rstrip('0') or '0'}{suffix}"

    def __str__(self) -> str:
        q = self.fraction
        head = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.pi_power == 0 or q == 0:
            return head
        tail = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"{head} * {tail}"


def _iter_factor(k: int, i: int, n: int) -> int:
    """Delta^i r^{2k} = _iter_factor * r^{2(k-i)} in R^n; zero for i > k.

    C_k = _iter_factor(k, k, n) = Delta^k r^{2k} is the constant that maps
    a radial Taylor coefficient to an iterated Laplacian at the origin:
    Delta^k u(0) = C_k u^{(2k)}(0) / (2k)!.
    """
    if i > k:
        return 0
    out = 1
    for t in range(i):
        out *= (2 * k - 2 * t) * (2 * k - 2 * t + n - 2)
    return out


def pizzetti_coefficients(n: int, count: int) -> list[Fraction]:
    """First `count` coefficients c_0 .. c_{count-1} for dimension n.

    c_i is the weight of R^{2i} (Delta^i h)(x0) in the exact ball-average
    expansion of h over B_R(x0). count = 0 gives the empty list; a
    negative count raises ValueError.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = [Fraction(1)] if count else []
    for i in range(1, count):
        c = Fraction(n, n + 2 * i) * Fraction(
            double_factorial(n - 2),
            double_factorial(2 * i) * double_factorial(2 * i + n - 2),
        )
        out.append(c)
    return out


def laplog_coefficients(m: int) -> tuple[Fraction, ...]:
    """Coefficients of |x|^{-2j} in (-Delta)^j log(1/|x|) on R^{2m}.

    Entry k of the returned tuple corresponds to j = k + 1, for
    1 <= j <= m-1. Empty for m = 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for j in range(1, m):
        num = 2 ** (2 * j - 1) * math.factorial(j - 1) * math.factorial(m - 1)
        out.append(Fraction(num, math.factorial(m - j - 1)))
    return tuple(out)


@dataclass(frozen=True)
class ConstantTable:
    """All exact constants attached to one order m (dimension n = 2m)."""

    m: int
    n: int
    omega_n: PiRational
    vol_sphere_2m: PiRational
    gamma_m: PiRational
    pizzetti_c: tuple[PiRational, ...]      # c_0 .. c_m
    laplog_coeff: tuple[Fraction, ...]      # j = 1 .. m-1
    sigma_m: int


def constant_table(m: int) -> ConstantTable:
    """Build the exact constant table for a given order m >= 1."""
    m = _order(m)
    n = 2 * m
    omega = PiRational(Fraction(2 ** m, double_factorial(2 * m - 2)), m)
    vol = PiRational(Fraction(2 ** (m + 1), double_factorial(2 * m - 1)), m)
    gamma = omega * PiRational(Fraction(2 ** (2 * m - 2) * math.factorial(m - 1) ** 2))
    cs = tuple(PiRational(c) for c in pizzetti_coefficients(n, m + 1))
    return ConstantTable(
        m=m,
        n=n,
        omega_n=omega,
        vol_sphere_2m=vol,
        gamma_m=gamma,
        pizzetti_c=cs,
        laplog_coeff=laplog_coefficients(m),
        sigma_m=(-1) ** m,
    )


def verify_gamma_identity(m: int) -> bool:
    """Exact check of (2m-1)! * |S^{2m}| == 2 * gamma_m."""
    t = constant_table(m)
    lhs = PiRational(Fraction(math.factorial(2 * m - 1))) * t.vol_sphere_2m
    rhs = PiRational(Fraction(2)) * t.gamma_m
    return lhs == rhs


def format_table(table: ConstantTable, digits: int = 30) -> str:
    """Render a constant table as "name = exact  (decimal)" lines.

    The exact form is "p/q * pi^k"; the decimal expansion carries `digits`
    significant digits.  Pure integers skip the redundant decimal.
    """
    rows: list[tuple[str, str, str | None]] = [
        ("m", str(table.m), None),
        ("n", str(table.n), None),
        ("omega_n", str(table.omega_n), table.omega_n.decimal(digits)),
        ("vol_sphere_2m", str(table.vol_sphere_2m), table.vol_sphere_2m.decimal(digits)),
        ("gamma_m", str(table.gamma_m), table.gamma_m.decimal(digits)),
    ]
    for i, c in enumerate(table.pizzetti_c):
        rows.append((f"pizzetti_c[{i}]", str(c), c.decimal(digits)))
    for k, c in enumerate(table.laplog_coeff):
        pr = PiRational(c)
        rows.append((f"laplog_coeff[{k + 1}]", str(pr), pr.decimal(digits)))
    rows.append(("sigma_m", str(table.sigma_m), None))
    return "\n".join(
        f"{a} = {b}" if c is None else f"{a} = {b}  ({c})" for a, b, c in rows
    )
