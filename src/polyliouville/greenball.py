"""Navier Green function of Delta^m on balls in R^{2m}, and radial solves.

The Green function with pole at the center is radial and has the exact form

    G_R(x) = a log(|x|/R) + sum_{k=0}^{m-1} b_k (|x|/R)^{2k},
    a = (-1)^{m+1} / gamma_m,

where the polynomial coefficients are fixed by the Navier conditions
Delta^i G_R = 0 on |x| = R for i = 0 .. m-1. The system is triangular
because Delta^i r^{2k} vanishes at the boundary for k < i, so everything
is solved exactly in PiRational arithmetic.

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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactconst import PiRational, constant_table, laplog_coefficients


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

    @property
    def radius(self) -> float:
        return float(self.grid[-1])

    def to_csv(self, path, header=("r", "value")) -> None:
        cols = [self.grid, self.values]
        if len(header) == 3:
            err = self.err if self.err is not None else np.zeros_like(self.grid)
            cols.append(err)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def from_csv(cls, path, m: int) -> "RadialProfile":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        err = data[:, 2] if data.shape[1] > 2 else None
        return cls(grid=data[:, 0], values=data[:, 1], m=m, err=err)


# -- exact Green function --------------------------------------------------


def _iter_factor(k: int, i: int, n: int) -> int:
    """Delta^i r^{2k} = _iter_factor * r^{2(k-i)}; zero for i > k."""
    if i > k:
        return 0
    out = 1
    for t in range(i):
        out *= (2 * k - 2 * t) * (2 * k - 2 * t + n - 2)
    return out


@dataclass(frozen=True)
class GreenBall:
    """Exact radial Navier Green function of Delta^m on the ball B_R.

    poly_coeffs[k] multiplies r^{2k} in the raw radial variable; the
    constant term additionally carries const_log_shift = -a log(R), which
    vanishes at radius 1 (and is the only non-PiRational piece for R != 1).
    """

    m: int
    radius: Fraction
    log_coeff: PiRational
    poly_coeffs: tuple[PiRational, ...]
    const_log_shift: float
    sign_constants_exact: tuple[PiRational, ...]
    sign_constants: tuple[float, ...] = field(default=())

    def unit_poly_coeffs(self) -> tuple[PiRational, ...]:
        """Coefficients of (r/R)^{2k}, i.e. the radius-1 solution."""
        R = PiRational(self.radius)
        return tuple(c * R ** (2 * k) for k, c in enumerate(self.poly_coeffs))

    def navier_residuals_exact(self) -> list[PiRational]:
        """Delta^i G at the boundary, i = 0..m-1, in normalized coordinates.

        All entries are exactly zero by construction; exposed so tests can
        assert it in PiRational arithmetic.
        """
        n = 2 * self.m
        bhat = self.unit_poly_coeffs()
        out = []
        for i in range(self.m):
            acc = self.log_coeff * _dlog_iter_value(self.m, i)
            for k in range(i, self.m):
                acc = acc + bhat[k] * _iter_factor(k, i, n)
            out.append(acc)
        return out

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = float(self.log_coeff) * np.log(r) + self.const_log_shift
        for k, c in enumerate(self.poly_coeffs):
            out = out + float(c) * r ** (2 * k)
        return out

    def evaluate_iterated(self, r, i: int) -> np.ndarray:
        """Delta^i G at radius r (i >= 1), as floats."""
        if not 1 <= i <= self.m - 1:
            raise ValueError("need 1 <= i <= m-1")
        n = 2 * self.m
        r = np.asarray(r, dtype=float)
        lc = laplog_coefficients(self.m)[i - 1]
        out = float(self.log_coeff) * (-1) ** (i + 1) * float(lc) * r ** (-2.0 * i)
        for k in range(i, self.m):
            out = out + float(self.poly_coeffs[k]) * _iter_factor(k, i, n) * r ** (2.0 * (k - i))
        return out


def _dlog_iter_value(m: int, i: int):
    """Delta^i log(r) at r = 1, exact: 0 for i = 0, else (-1)^{i+1} Lc_i."""
    if i == 0:
        return Fraction(0)
    lc = laplog_coefficients(m)[i - 1]
    return Fraction((-1) ** (i + 1)) * lc


def green_ball(m: int, radius=1) -> GreenBall:
    """Exact Navier Green function of Delta^m on B_radius in R^{2m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = 2 * m
    table = constant_table(m)
    a = PiRational(Fraction((-1) ** (m + 1))) / table.gamma_m

    # triangular solve at radius 1, top condition first
    bhat: list[PiRational | None] = [None] * m
    for i in range(m - 1, 0, -1):
        acc = a * _dlog_iter_value(m, i)
        for k in range(i + 1, m):
            acc = acc + bhat[k] * _iter_factor(k, i, n)
        bhat[i] = -acc / _iter_factor(i, i, n)
    bhat[0] = PiRational(0)
    if m > 1:
        s = PiRational(0)
        for k in range(1, m):
            s = s + bhat[k]
        bhat[0] = -s

    # rescale to the requested radius (exact for the power terms)
    coeffs = tuple(bhat[k] * PiRational(radius ** (-2 * k)) for k in range(m))
    shift = -float(a) * math.log(float(radius))

    # sign constants c_i = (-1)^i d/dr Delta^{m-1-i} G at r = radius
    sce = []
    for i in range(m):
        q = m - 1 - i
        if q == 0:
            acc = a * Fraction(1)
        else:
            acc = a * (_dlog_iter_value(m, q) * Fraction(-2 * q))
        for k in range(max(q, 1), m):
            acc = acc + bhat[k] * Fraction(_iter_factor(k, q, n) * 2 * (k - q))
        acc = acc * PiRational(radius ** (-2 * q - 1))
        sce.append(acc * Fraction((-1) ** i))
    sce = tuple(sce)

    return GreenBall(
        m=m,
        radius=radius,
        log_coeff=a,
        poly_coeffs=coeffs,
        const_log_shift=shift,
        sign_constants_exact=sce,
        sign_constants=tuple(float(c) for c in sce),
    )


# -- radial Navier solve ---------------------------------------------------


def panel_moment(a, x, coef, p: int):
    """int_a^{a+x} (c0 + c1 tau + ...) s^p ds, tau = s - a, elementwise.

    s^p is expanded binomially about a into nonnegative terms, so the
    weight's high-order vanishing at 0 costs no accuracy; plain trapezoid
    misjudges int_0^h t^{n-1} g dt by an O(1) relative factor.  Against
    the linear interpolant of g the weights on the panel-end values stay
    nonnegative (the discrete maximum principle of navier_solve_radial)."""
    out = 0.0
    for i in range(p + 1):
        w = math.comb(p, i) * a ** (p - i)
        for k, c in enumerate(coef):
            out = out + c * w * x ** (i + k + 1) / (i + k + 1)
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


def invert_minus_laplacian_radial(grid: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Solve -Delta z = g radially on [0, R], z(R) = 0, z'(0) = 0."""
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    # t^{n-1} against the linear interpolant of g, exactly on each panel
    panels = panel_moment(grid[:-1], h, (g[:-1], np.diff(g) / h), n - 1)
    inner = np.concatenate([[0.0], np.cumsum(panels)])
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(grid > 0, inner / np.where(grid > 0, grid, 1.0) ** (n - 1), 0.0)
    cum = _cumulative_trapezoid(integrand, grid)
    return cum[-1] - cum


def navier_solve_radial(f: RadialProfile, m: int | None = None) -> RadialProfile:
    """Solve (-Delta)^m v = f on the ball with Navier conditions, radially.

    m iterated Dirichlet inversions of -Delta on the profile's grid. The
    grid must start at 0. For f >= 0 every intermediate stage is >= 0
    (discrete maximum principle, inherited from nonnegative quadrature
    weights).
    """
    m = f.m if m is None else m
    if f.grid[0] != 0.0:
        raise ValueError("grid must start at r = 0")
    n = 2 * m
    v = f.values
    for _ in range(m):
        v = invert_minus_laplacian_radial(f.grid, v, n)
    return RadialProfile(grid=f.grid.copy(), values=v, m=m)


@dataclass(frozen=True)
class ExpIntegral:
    """Result of the exponential integrability functional."""

    value: float
    overflow: bool
    p: float
    m: int


_EXP_CAP = 700.0  # exp overflows float64 just above this


def exp_integrability(v: RadialProfile, m: int | None = None, p: float = 1.0) -> ExpIntegral:
    """I = int_{B_R} exp(2 m p |v|) dx, by composite Simpson on v's grid.

    If the exponent exceeds the float64 range anywhere, the integral is
    reported as +infinity with the overflow flag set instead of raising.
    """
    m = v.m if m is None else m
    expo = 2.0 * m * p * np.abs(v.values)
    omega = float(constant_table(m).omega_n)
    if np.max(expo) > _EXP_CAP:
        return ExpIntegral(value=math.inf, overflow=True, p=p, m=m)
    integrand = np.exp(expo) * v.grid ** (2 * m - 1)
    return ExpIntegral(value=omega * float(_simpson(integrand, v.grid)),
                       overflow=False, p=p, m=m)
