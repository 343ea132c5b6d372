"""Navier Green function of Delta^m on the unit ball of R^{2m}, radial solves.

The Green function with pole at the center is radial and has the exact form

    G(x) = a log|x| + sum_{k=0}^{m-1} b_k |x|^{2k},
    a = (-1)^{m+1} / gamma_m,

where the polynomial coefficients are fixed by the Navier conditions
Delta^i G = 0 on |x| = 1 for i = 0 .. m-1.  One exact rule,
`_boundary_jet`, gives (d/dr)^d Delta^i G at r = 1 for d = 0, 1, and the
triangular solve (Delta^i r^{2k} vanishes at r = 1 for k < i), the
residuals and the sign constants all read it.

navier_solve_radial inverts (-Delta)^m with Navier conditions on a radial
grid by m iterated Dirichlet inversions of -Delta,

    z(r) = int_r^R s^{1-n} int_0^s t^{n-1} g(t) dt ds,

using cumulative trapezoid sums. Trapezoid error on smooth data is itself a
smooth function of the endpoint (Euler-Maclaurin), so applying a discrete
Laplacian to the output does not amplify the quadrature error; definite
integrals without a running endpoint use composite Simpson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactconst import PiRational, _iter_factor, _order, constant_table, laplog_coefficients


@dataclass
class RadialProfile:
    """Samples of a radial function on [0, R]: grid, values, order m."""

    grid: np.ndarray
    values: np.ndarray
    m: int
    err: np.ndarray | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have equal shape")
        if self.grid.size == 0:
            raise ValueError("grid must not be empty")
        if self.grid[0] < 0:
            raise ValueError("radii must be nonnegative")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")

    def to_csv(self, path, header=("r", "value")) -> None:
        cols = [self.grid, self.values]
        if len(header) == 3:
            err = self.err if self.err is not None else np.zeros_like(self.grid)
            cols.append(err)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- exact Green function --------------------------------------------------


@dataclass(frozen=True)
class GreenBall:
    """Exact radial Navier Green function of Delta^m on the unit ball.

    poly_coeffs[k] multiplies r^{2k}; sign_constants_exact[i] is
    (-1)^i d/dr Delta^{m-1-i} G at r = 1.
    """

    m: int
    log_coeff: PiRational
    poly_coeffs: tuple[PiRational, ...]
    sign_constants_exact: tuple[PiRational, ...]

    def navier_residuals_exact(self) -> list[PiRational]:
        """Delta^i G at the boundary r = 1, i = 0..m-1.

        All entries are exactly zero by construction; exposed so tests can
        assert it in PiRational arithmetic.
        """
        laplog = laplog_coefficients(self.m)
        return [_boundary_jet(self.log_coeff, self.poly_coeffs, i, 0, laplog)
                for i in range(self.m)]

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = float(self.log_coeff) * np.log(r)
        for k, c in enumerate(self.poly_coeffs):
            out = out + float(c) * r ** (2 * k)
        return out


def _boundary_jet(a, b, i: int, d: int, laplog) -> PiRational:
    """(d/dr)^d Delta^i G at r = 1, d = 0 or 1, for G = a log r + sum_k
    b[k] r^{2k} in R^{2m}, m = len(b), with laplog_coefficients(m) given.

    Delta^i log r is log r at i = 0, else (-1)^{i+1} laplog[i-1] r^{-2i},
    and Delta^i r^{2k} = _iter_factor(k, i, 2m) r^{2(k-i)}: 0 for k < i,
    and a constant at k = i, whose d/dr is 0, so the sum starts at i + d."""
    n = 2 * len(b)
    log_term = Fraction(d) if i == 0 else (-1) ** (i + 1) * laplog[i - 1] * (-2 * i) ** d
    acc = a * log_term
    for k in range(i + d, len(b)):
        acc = acc + b[k] * Fraction(_iter_factor(k, i, n) * (2 * (k - i)) ** d)
    return acc


def green_ball(m: int) -> GreenBall:
    """Exact Navier Green function of Delta^m on the unit ball in R^{2m}.

    Navier condition i fixes b_i = -(Delta^i G(1) with b_i still 0) /
    _iter_factor(i, i, 2m), top down from i = m-1, and c_i = (-1)^i d/dr
    Delta^{m-1-i} G(1): both are read from `_boundary_jet`."""
    m = _order(m)
    table = constant_table(m)
    laplog = table.laplog_coeff
    a = PiRational(Fraction((-1) ** (m + 1))) / table.gamma_m
    b = [0] * m
    for i in range(m - 1, -1, -1):
        b[i] = -_boundary_jet(a, b, i, 0, laplog) / _iter_factor(i, i, 2 * m)
    sce = tuple(_boundary_jet(a, b, m - 1 - i, 1, laplog) * Fraction((-1) ** i)
                for i in range(m))
    return GreenBall(m=m, log_coeff=a, poly_coeffs=tuple(b), sign_constants_exact=sce)


# -- radial Navier solve ---------------------------------------------------


def powers(x, top: int, table: list | None = None) -> list:
    """The power table [x**0, x**1, ..., x**top] that panel_moment reads.

    A table of the same x passed in is extended in place through x**top,
    so each power is taken once however many moments read it.  Every entry
    is the plain `x ** e`, so a moment from tables has the bits of one
    that raised x again for every term."""
    table = [] if table is None else table
    table.extend(x ** e for e in range(len(table), top + 1))
    return table


def panel_moment(a_pow, x_pow, coef, p: int):
    """int_a^{a+x} (c0 + c1 tau + ...) s^p ds, tau = s - a, elementwise,
    from the power tables a_pow of a (through a**p) and x_pow of x (through
    x**(p + len(coef))); see `powers`.

    s^p is expanded binomially about a into nonnegative terms, so the
    weight's high-order vanishing at 0 costs no accuracy; plain trapezoid
    misjudges int_0^h t^{n-1} g dt by an O(1) relative factor.  Against
    the linear interpolant of g the weights on the panel-end values stay
    nonnegative (the discrete maximum principle of navier_solve_radial)."""
    out = 0.0
    for i in range(p + 1):
        w = math.comb(p, i) * a_pow[p - i]
        for k, c in enumerate(coef):
            out = out + c * w * x_pow[i + k + 1] / (i + k + 1)
    return out


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integrals of y over x, starting from 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule on the strictly increasing nodes x.

    An odd node count takes the parabola through each consecutive node
    triple (unequal spacing allowed).  An even count does the same on all
    but the last interval, which gets Cartwright's three-point correction
    (Cartwright 2017, Eq. 8, recast for the last interval); two nodes take
    the trapezoid.  The arithmetic is that of scipy 1.17's
    `scipy.integrate.simpson(y, x=x)`, operation for operation."""
    n = y.size
    if n == 2:
        return 0.5 * (x[1] - x[0]) * (y[1] + y[0])
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2 : stop + 2 : 2] * (2.0 - ratio)))
    if n % 2 == 0:
        # 0-d arrays, so that ** takes numpy's array power as scipy's does
        a, b = np.squeeze(h[-2:-1]), np.squeeze(h[-1:])
        alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        beta = (b**2 + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def _radial_inverter(grid: np.ndarray, n: int):
    """invert_minus_laplacian_radial on one grid and dimension, as a
    function of g alone: the panel power tables are built once and serve
    every source g."""
    grid = np.asarray(grid, dtype=float)
    a, b = grid[:-1], grid[1:]
    # -z'(r) = int_0^r (t/r)^{n-1} g dt, with g linear on each panel [a, b].
    # Each panel is scaled by its right end, acc <- acc (a/b)^{n-1} +
    # int_a^b (t/b)^{n-1} g dt, so that no power of a small radius
    # underflows to 0 at large n.
    x = np.diff(grid) / b
    ratio_pow, x_pow = powers(a / b, n - 1), powers(x, n + 1)
    shrink = ratio_pow[n - 1].tolist()

    def invert(g: np.ndarray) -> np.ndarray:
        panels = b * panel_moment(ratio_pow, x_pow, (g[:-1], np.diff(g) / x), n - 1)
        integrand = np.zeros_like(grid)
        acc = 0.0
        for i, (q, panel) in enumerate(zip(shrink, panels.tolist()), start=1):
            acc = acc * q + panel
            integrand[i] = acc
        cum = _cumulative_trapezoid(integrand, grid)
        return cum[-1] - cum

    return invert


def invert_minus_laplacian_radial(grid: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Solve -Delta z = g radially on [0, R], z(R) = 0, z'(0) = 0."""
    return _radial_inverter(grid, n)(g)


def navier_solve_radial(f: RadialProfile) -> RadialProfile:
    """Solve (-Delta)^m v = f on the ball with Navier conditions, radially.

    m = f.m iterated Dirichlet inversions of -Delta on the profile's grid,
    all reading one set of panel power tables.  The grid must start at 0.
    For f >= 0 every intermediate stage is >= 0 (discrete maximum
    principle, inherited from nonnegative quadrature weights).
    """
    m = f.m
    if f.grid[0] != 0.0:
        raise ValueError("grid must start at r = 0")
    invert = _radial_inverter(f.grid, 2 * m)
    v = f.values
    for _ in range(m):
        v = invert(v)
    return RadialProfile(grid=f.grid.copy(), values=v, m=m)


@dataclass(frozen=True)
class ExpIntegral:
    """Value of the exponential integrability functional, and whether its
    exponent overflowed (the value is then +inf)."""

    value: float
    overflow: bool


_EXP_CAP = 700.0  # exp overflows float64 just above this


def exp_integrability(v: RadialProfile, p: float = 1.0) -> ExpIntegral:
    """I = int_{B_R} exp(2 m p |v|) dx with m = v.m, by composite Simpson on
    v's grid.

    If the exponent exceeds the float64 range anywhere, the integral is
    reported as +infinity with the overflow flag set instead of raising.
    """
    m = v.m
    expo = 2.0 * m * p * np.abs(v.values)
    omega = float(constant_table(m).omega_n)
    if np.max(expo) > _EXP_CAP:
        return ExpIntegral(value=math.inf, overflow=True)
    integrand = np.exp(expo) * v.grid ** (2 * m - 1)
    return ExpIntegral(value=omega * float(_simpson(integrand, v.grid)), overflow=False)
