"""Exact constants for the polyharmonic Liouville equation on R^{2m}.

Everything here is integer or rational arithmetic. The factor pi stays
symbolic inside :class:`PiRational` and only turns into a float at module
boundaries (round-to-nearest via mpmath).

Conventions, with n = 2m the ambient dimension::

    omega_n        = |S^{2m-1}| = (2 pi)^m / (2m-2)!!
    vol_sphere_2m  = |S^{2m}|   = 2 (2 pi)^m / (2m-1)!!
    gamma_m        = omega_n * 2^{2m-2} * ((m-1)!)^2
    sigma_m        = (-1)^m

    identity:  (2m-1)! * |S^{2m}| == 2 * gamma_m        (exact, all m >= 1)

Double factorials use the convention 0!! = (-1)!! = 1.

Pizzetti coefficients (ball averages of polyharmonic functions)::

    c_0 = 1
    c_i = [n / (n + 2i)] * (n-2)!! / ( (2i)!! * (2i+n-2)!! ),   i >= 1

so that the average of h over B_R(x0) equals sum_i c_i R^{2i} (Delta^i h)(x0)
whenever the series terminates (h polynomial) or Delta^m h = 0.

Iterated Laplacians of the logarithm, for 1 <= j <= m-1::

    (-Delta)^j log(1/|x|) = 2^{2j-1} (j-1)! (m-1)! / (m-j-1)!  *  |x|^{-2j}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath


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
        object.__setattr__(self, "fraction", Fraction(self.fraction))
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
        if isinstance(other, PiRational):
            return other
        if isinstance(other, (int, Fraction)):
            return PiRational(Fraction(other), 0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PiRational(self.fraction * other.fraction, self.pi_power + other.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.fraction == 0:
            raise ZeroDivisionError("division by zero PiRational")
        return PiRational(self.fraction / other.fraction, self.pi_power - other.pi_power)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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

    def __float__(self) -> float:
        with mpmath.workdps(40):
            return float(mpmath.mpf(self.fraction.numerator)
                         / self.fraction.denominator * mpmath.pi ** self.pi_power)

    def decimal(self, digits: int = 30) -> str:
        """Decimal expansion to the given number of significant digits."""
        with mpmath.workdps(digits + 15):
            val = (mpmath.mpf(self.fraction.numerator) / self.fraction.denominator
                   * mpmath.pi ** self.pi_power)
            return mpmath.nstr(val, digits)

    def __str__(self) -> str:
        q = self.fraction
        head = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.pi_power == 0 or q == 0:
            return head
        tail = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"{head} * {tail}"


def pizzetti_coefficients(n: int, count: int) -> list[Fraction]:
    """First `count` coefficients c_0 .. c_{count-1} for dimension n.

    c_i is the weight of R^{2i} (Delta^i h)(x0) in the exact ball-average
    expansion of h over B_R(x0).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    out = [Fraction(1)]
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
    if m < 1:
        raise ValueError("m must be >= 1")
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


def laplog_value(m: int, j: int, r: float) -> float:
    """Value of (-Delta)^j log(1/|x|) at |x| = r, for 1 <= j <= m-1."""
    if not 1 <= j <= m - 1:
        raise ValueError(f"j must satisfy 1 <= j <= m-1, got j={j}, m={m}")
    if r <= 0:
        raise ValueError("r must be positive")
    coeff = laplog_coefficients(m)[j - 1]
    return float(coeff) * r ** (-2 * j)


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
