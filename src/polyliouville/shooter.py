"""Radial shooting integrator for (-Delta)^m u = (2m-1)! exp(2m u) on R^{2m}.

A radial solution is evolved as the first-order system in the iterated
Laplacians

    w_j = Delta^j u,   p_j = d/dr w_j,        j = 0 .. m-1,

which closes because Delta w_j = w_{j+1} and Delta^m u is supplied by the
equation itself: w_m = sigma_m (2m-1)! exp(2m w_0) with sigma_m = (-1)^m.
The conformal volume

    alpha(R) = (1 / |S^{2m}|) * omega_{2m} * int_0^R exp(2m w_0(s)) s^{2m-1} ds

rides along as one extra quadrature state, so every trajectory carries its
own normalized volume without post-hoc integration error.

The system is integrated by the package's own DOP853 stepper
(`dop853.solve_ivp`, Hairer-Norsett-Wanner's 8th-order Dormand-Prince
pair with 7th-order dense output), called through this module's global
`solve_ivp` so that it can be wrapped or replaced from outside.

Initial data live at r = 0, either as A_j = Delta^j u(0) or as the even
derivatives u^{(2j)}(0) (odd ones vanish for smooth radial data).  The
integration starts at r0 = max(1e-6, min(1e-2, abs_tol^(1/4))) from a
fourth-order Taylor expansion to sidestep the coordinate singularity of the
radial Laplacian.

The closed-form family

    u_lam(x) = log(2 lam / (1 + lam^2 |x|^2)),

the pullback of the round-sphere metric, has Delta^j u_lam = lam^{2j} G_j(t)
with t = lam^2 r^2, and each G_j is a polynomial with integer coefficients
in x = 1/(1+t).  It is evaluated by Horner's rule in x and serves as the
reference for every w_j and p_j without finite differencing.

A run ends in one of three terminations.  "reached_end": it got to
r_end.  "not_entire" (m = 2 only): u' turned positive, which no entire
finite-volume solution does (see `shoot`), so the run stops there; data
with Delta u(0) >= 0 stop at the start radius without integrating.
"step_underflow": the step controller gave up short of r_end.  The
exponential source is clamped at exp(700) inside the vector field so the
right-hand side stays total past a blow-up.  A finite-radius blow-up goes
like u ~ -log(R - r), so u climbs to about 30 before R - r falls to
float64 resolution and the steps underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dop853 import solve_ivp
from .exactconst import constant_table, pizzetti_coefficients
from .tailfit import LimitEstimate, PolyFit1D, fit_even_polynomial, tail_limit

__all__ = [
    "ShootingConfig",
    "RadialTrajectory",
    "SolveReport",
    "StandardSolution",
    "rhs",
    "series_start",
    "derivs_to_laplacians",
    "shoot",
    "diagnose",
    "standard_solution",
    "standard_laplacians",
    "standard_config",
    "scalar_curvature",
    "conformal_factor_ratio",
]

_EXP_CAP = 700.0  # exp argument clamp; keeps the vector field total

# The step controller runs tighter than the requested trajectory accuracy:
# local errors accumulate over ~10^3 steps and, for m >= 2, are further
# amplified by the growing polyharmonic modes (up to r^{2m-2}) of the
# linearized tail system.  Calibrated on the closed-form family with DOP853:
# a request of 1e-10 returns u accurate to 7.5e-11 (m = 2) and 4.5e-9
# (m = 3) on [0, 50].  A safety of 0.3 saves only 22% of the m = 2
# evaluations and loses a factor 5 in that accuracy.
_TOL_SAFETY = 0.03

# Companion run for the error estimate integrates at this multiple of the
# main tolerances; the end-value difference overestimates the main run's
# own error.  On the closed-form family (m = 1, 2 to r = 1000, m = 3 to
# r = 500) the estimate is 4.6x to 18x the true end-point error of u.
_COMPANION_FACTOR = 8.0

# Ratio of consecutive radii of the sampling grid.
_GRID_RATIO = 1.01

# solve_ivp status -> termination label: 1 is the m = 2 event on u' > 0,
# also given to m = 2 data with Delta u(0) >= 0, which stop at r0
_TERMINATION = {0: "reached_end", 1: "not_entire", -1: "step_underflow"}


def derivs_to_laplacians(m, even_derivs):
    """Convert radial even derivatives (u(0), u''(0), ..., u^{(2m-2)}(0))
    to the iterated Laplacians A_j = Delta^j u(0).

    A_j = [n / (c_j (n+2j) (2j)!)] * u^{(2j)}(0) with c_j the ball-average
    coefficients of the mean value expansion (A_0 = u(0) since c_0 = 1).
    """
    if len(even_derivs) != m:
        raise ValueError(f"expected {m} derivative values, got {len(even_derivs)}")
    n = 2 * m
    ball_c = pizzetti_coefficients(n, m)
    out = []
    for j, d in enumerate(even_derivs):
        factor = Fraction(n) / (ball_c[j] * (n + 2 * j) * math.factorial(2 * j))
        out.append(float(factor) * d)
    return tuple(out)


@dataclass(frozen=True)
class ShootingConfig:
    """Initial data, end radius and requested accuracy of one radial run.

    Exactly one of initial_laplacians (A_0..A_{m-1}) and initial_derivatives
    (u(0), u''(0), ..., u^{(2m-2)}(0)) must be provided; derivatives are
    converted on construction, and the data must be finite.  rel_tol and
    abs_tol are the requested trajectory accuracies; the step controller
    runs tighter internally.  r_end must be positive and finite.
    """

    m: int
    initial_laplacians: tuple[float, ...] | None = None
    initial_derivatives: tuple[float, ...] | None = None
    r_end: float = 1000.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if (self.initial_laplacians is None) == (self.initial_derivatives is None):
            raise ValueError(
                "provide exactly one of initial_laplacians and initial_derivatives"
            )
        if self.initial_laplacians is None:
            object.__setattr__(
                self,
                "initial_laplacians",
                derivs_to_laplacians(self.m, self.initial_derivatives),
            )
        else:
            object.__setattr__(
                self, "initial_laplacians", tuple(float(a) for a in self.initial_laplacians)
            )
        if len(self.initial_laplacians) != self.m:
            raise ValueError(
                f"expected {self.m} initial values, got {len(self.initial_laplacians)}"
            )
        if not all(map(math.isfinite, self.initial_laplacians)):
            raise ValueError(f"initial data must be finite, got {self.initial_laplacians}")
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if not (self.r_end > 0 and math.isfinite(self.r_end)):
            raise ValueError(f"r_end must be positive and finite, got {self.r_end}")
        if self.start_radius() >= self.r_end:
            raise ValueError("start radius must be below r_end")

    @property
    def n(self) -> int:
        return 2 * self.m

    def start_radius(self) -> float:
        return max(1e-6, min(1e-2, self.abs_tol**0.25))


def _vector_field(m: int):
    """The augmented vector field (r, y) -> dy/dr of the radial system.

    y = (w_0..w_{m-1}, p_0..p_{m-1}, alpha); the returned derivative has the
    same layout.  The equation is written once here and serves both `shoot`
    and `rhs` (which passes y without alpha; alpha' does not depend on it).
    For m = 1..3 (3 to 7 entries), scalar arithmetic on y.tolist() costs
    about half as much per call as slice updates of a numpy array.
    """
    n = 2 * m
    tab = constant_table(m)
    sig_fact = tab.sigma_m * math.factorial(2 * m - 1)
    ratio = float(tab.omega_n / tab.vol_sphere_2m)

    def field(r, y):
        y = y.tolist()
        w, p = y[:m], y[m : 2 * m]
        expo = math.exp(min(2 * m * w[0], _EXP_CAP))
        damp = -(n - 1) / r
        dp = [damp * pj + wj for pj, wj in zip(p, w[1:])]
        dp.append(damp * p[-1] + sig_fact * expo)
        return np.array(p + dp + [ratio * expo * r ** (2 * m - 1)])

    return field


def rhs(state, r, m):
    """Vector field of the 2m-dimensional radial system at radius r > 0.

    state = (w_0..w_{m-1}, p_0..p_{m-1}).  This is the field `shoot`
    integrates, without its alpha quadrature row, so the reduction can be
    checked against closed-form solutions.
    """
    if r <= 0:
        raise ValueError("the radial system is defined for r > 0")
    state = np.asarray(state, dtype=float)
    if state.shape != (2 * m,):
        raise ValueError(f"state must have length {2 * m}")
    return _vector_field(m)(r, state)[: 2 * m]


def series_start(config: ShootingConfig):
    """Taylor-expanded state at the start radius r0.

    Returns (r0, y0) with y0 = (w, p, alpha).  Each w_j is expanded to
    O(r0^6) using A_m = sigma_m (2m-1)! exp(2m A_0) and, differentiating
    the equation once with grad u(0) = 0, A_{m+1} = A_m * 2m * A_1 (for
    m = 1 the value A_1 is A_m itself).
    """
    m, n = config.m, config.n
    a = list(config.initial_laplacians)
    tab = constant_table(m)
    a_m = tab.sigma_m * math.factorial(2 * m - 1) * math.exp(
        min(2 * m * a[0], _EXP_CAP)
    )
    a.append(a_m)
    a.append(a_m * 2 * m * a[1])
    r0 = config.start_radius()
    w0 = np.array(
        [
            a[j] + a[j + 1] * r0**2 / (2 * n) + a[j + 2] * r0**4 / (8 * n * (n + 2))
            for j in range(m)
        ]
    )
    p0 = np.array(
        [
            a[j + 1] * r0 / n + a[j + 2] * r0**3 / (2 * n * (n + 2))
            for j in range(m)
        ]
    )
    ratio = float(tab.omega_n / tab.vol_sphere_2m)
    alpha0 = ratio * math.exp(min(2 * m * a[0], _EXP_CAP)) * r0 ** (2 * m) / (2 * m)
    return r0, np.concatenate([w0, p0, [alpha0]])


@dataclass
class RadialTrajectory:
    """Sampled radial solution with its running conformal volume.

    grid starts at r = 0; w and p have shape (m, len(grid)); alpha is the
    normalized volume of B_r.  Off the grid, `sample_w` interpolates w_j
    from the stored w_j and p_j.  termination is "reached_end";
    "not_entire" (m = 2) when the run stopped at the first u' > 0, or at
    the start radius when Delta u(0) >= 0; or
    "step_underflow" when the steps underflowed short of r_end (a blow-up).
    """

    m: int
    grid: np.ndarray
    w: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    termination: str
    config: ShootingConfig
    nfev: int = 0

    def __post_init__(self):
        npts = self.grid.size
        if self.w.shape != (self.m, npts) or self.p.shape != (self.m, npts):
            raise ValueError("w and p must have shape (m, len(grid))")
        if self.alpha.shape != (npts,):
            raise ValueError("alpha must match the grid")

    @property
    def u(self) -> np.ndarray:
        return self.w[0]

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    @property
    def alpha_final(self) -> float:
        return float(self.alpha[-1])

    def sample_w(self, j: int, radii) -> np.ndarray:
        """w_j at the given radii by piecewise cubic Hermite interpolation.

        Each panel's cubic matches the stored w_j and p_j = w_j' at both
        ends, so node values come back exactly and w_j'(0) = 0 holds
        through p_j(0) = 0.  Radii outside the grid take the cubic of the
        nearest end panel."""
        r = np.asarray(radii, dtype=float)
        grid, w, p = self.grid, self.w[j], self.p[j]
        i = np.clip(np.searchsorted(grid, r, side="right") - 1, 0, grid.size - 2)
        h = grid[i + 1] - grid[i]
        t = (r - grid[i]) / h
        return ((1 + 2 * t) * (1 - t) ** 2 * w[i] + t**2 * (3 - 2 * t) * w[i + 1]
                + h * t * (1 - t) * ((1 - t) * p[i] - t * p[i + 1]))

    def tail_indices(self, frac: float = 0.8) -> np.ndarray:
        return np.nonzero(self.grid >= frac * self.r_max)[0]

    def alpha_tail_change(self) -> float:
        """Relative change of alpha over the tail window."""
        a_end = self.alpha_final
        return abs(a_end - self.alpha[self.tail_indices()[0]]) / max(abs(a_end), 1e-300)

    def alpha_converged(self) -> bool:
        """Whether the conformal volume has converged: alpha changed by at
        most 1e-3 (relative) over the tail window."""
        return self.alpha_tail_change() <= 1e-3

    def rescaled(self, scale: float) -> "RadialTrajectory":
        """Trajectory of u_s(x) = u(s x) + log s, the conformal rescaling.

        Iterated Laplacians pick up s^{2j}, radial derivatives one more s,
        and the normalized volume alpha is invariant.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        s = float(scale)
        powers = s ** (2 * np.arange(self.m))
        w = self.w * powers[:, None]
        w[0] = w[0] + math.log(s)
        p = self.p * (s * powers)[:, None]
        cfg = replace(
            self.config,
            initial_laplacians=tuple(
                a * s ** (2 * j) + (math.log(s) if j == 0 else 0.0)
                for j, a in enumerate(self.config.initial_laplacians)
            ),
            initial_derivatives=None,
            r_end=self.config.r_end / s,
        )
        return RadialTrajectory(
            m=self.m,
            grid=self.grid / s,
            w=w,
            p=p,
            alpha=self.alpha.copy(),
            termination=self.termination,
            config=cfg,
            nfev=self.nfev,
        )

    def to_csv(self, path) -> None:
        """Columns r, w0, p0, w1, p1, ..., alpha_R, R_scalar at 17 digits."""
        cols = [self.grid]
        names = ["r"]
        for j in range(self.m):
            cols.extend([self.w[j], self.p[j]])
            names.extend([f"w{j}", f"p{j}"])
        cols.append(self.alpha)
        names.append("alpha_R")
        cols.append(scalar_curvature(self))
        names.append("R_scalar")
        data = np.column_stack(cols)
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in data:
                fh.write(",".join("%.17g" % x for x in row) + "\n")


def _geometric_grid(r0: float, r_end: float) -> np.ndarray:
    count = int(math.ceil(math.log(r_end / r0) / math.log(_GRID_RATIO)))
    pts = r0 * _GRID_RATIO ** np.arange(count + 1)
    pts = pts[pts < r_end * (1 - 1e-12)]
    return np.append(pts, r_end)


def _m2_u_prime(r, y):
    """Terminal event of m = 2 runs: p_0 = u' (y[2]) crossing zero upwards."""
    return y[2]


_m2_u_prime.terminal = True
_m2_u_prime.direction = 1


def _integrate(config: ShootingConfig, t_eval, rtol, atol, events=None):
    r0, y0 = series_start(config)
    return solve_ivp(
        _vector_field(config.m),
        (r0, config.r_end),
        y0,
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        events=events,
    )


def shoot(config: ShootingConfig) -> tuple[RadialTrajectory, "SolveReport"]:
    """Integrate one radial trajectory on [0, r_end] and diagnose its tail.

    Dormand-Prince adaptive stepping (`dop853.solve_ivp`: 8th order, with
    5th- and 3rd-order error estimates and 7th-order dense output), sampled
    on a geometric grid of ratio 1.01.
    The returned grid always contains r = 0 (exact data) and ends at the
    last grid radius the run passed.  The report's w0_error_estimate comes
    from a companion integration at 8x looser tolerance: the global error
    grows with the tolerance, so the end-value difference bounds the main
    run's error (by 4.6x to 18x on the closed-form family).  No run
    raises; one that stops short of r_end ends in "not_entire" or
    "step_underflow".

    For m = 2 the main run stops at the first upward zero of u'
    ("not_entire"), because every entire solution with finite volume has
    u' < 0 for r > 0.  Such a solution is u = v + p with
    v(x) = (3!/gamma_2) int log(|y|/|x - y|) e^{4u(y)} dy (see `represent`)
    and p a polynomial of degree <= 2 with Delta p = lim Delta u <= 0 as
    r -> oo (the source paper; Lin 1998).  In R^4,
    Delta_x log(1/|x - y|) = -2/|x - y|^2 < 0, so Delta v < 0 and
    Delta u = Delta v + Delta p < 0.  For radial u,
    u'(r) = r^{-3} int_0^r Delta u(s) s^3 ds, hence u'(r) < 0.  A single
    u' > 0 thus proves the data lie off every entire solution.  The
    event watches u' and not Delta u: u' ~ -2/r decays more slowly than
    Delta u ~ -4/r^2, so far-field rounding cannot push it across zero.
    Data with Delta u(0) >= 0 break the same sign at r = 0 and start with
    u' > 0 (at Delta u(0) = 0 through Delta^2 u(0) = 3! e^{4u(0)} > 0), so
    no upward crossing could stop them.  Such a shot ends in "not_entire"
    at the start radius, with the series-start state and no integration
    (nfev 0).  The companion run has no event; it runs
    only after "reached_end".  Other m carry no event: for m = 1,
    Delta u = -e^{2u} < 0 on every run, so u' never turns positive; for
    m >= 3 no sign theorem holds (m = 3 data (log 2, -2, 14) turn u' > 0
    near r = 1.46 and still reach r_end).
    """
    m = config.m
    rtol = config.rel_tol * _TOL_SAFETY
    atol = config.abs_tol * _TOL_SAFETY
    if m == 2 and config.initial_laplacians[1] >= 0:
        r0, y0 = series_start(config)
        t, y, status, nfev = np.array([r0]), y0[:, None], 1, 0
    else:
        grid = _geometric_grid(config.start_radius(), config.r_end)
        sol = _integrate(config, grid, rtol, atol, _m2_u_prime if m == 2 else None)
        t, y, status, nfev = sol.t, sol.y, sol.status, sol.nfev
    termination = _TERMINATION[status]

    a0 = np.asarray(config.initial_laplacians, dtype=float)
    full_t = np.concatenate([[0.0], t])
    full_y = np.column_stack([np.concatenate([a0, np.zeros(m), [0.0]]), y])
    traj = RadialTrajectory(
        m=m,
        grid=full_t,
        w=full_y[:m],
        p=full_y[m : 2 * m],
        alpha=full_y[2 * m],
        termination=termination,
        config=config,
        nfev=nfev,
    )

    w0_err = math.nan
    if termination == "reached_end":
        coarse = _integrate(
            config,
            np.array([config.r_end]),
            rtol * _COMPANION_FACTOR,
            atol * _COMPANION_FACTOR,
        )
        if coarse.status == 0:
            diff = abs(float(coarse.y[0, -1]) - traj.w[0, -1])
            floor = rtol * max(1.0, float(np.max(np.abs(traj.w[0]))))
            w0_err = max(diff, floor)
    return traj, diagnose(traj, w0_error_estimate=w0_err)


def scalar_curvature(traj: RadialTrajectory) -> np.ndarray:
    """Scalar curvature of g = exp(2u) |dx|^2 along the trajectory.

    R_g = -2 (2m-1) e^{-2u} (Delta u + (m-1) |grad u|^2); the m = 1 branch
    is the Gauss identity R = 2 e^{-2u} (-Delta u) with Delta u = -e^{2u}
    read from the equation itself.  Overflow of e^{-2u} (deeply negative u)
    maps to +-inf rather than raising.
    """
    m = traj.m
    w0 = traj.w[0]
    if m == 1:
        lap = -np.exp(np.minimum(2 * w0, _EXP_CAP))
    else:
        lap = traj.w[1]
    bracket = lap + (m - 1) * traj.p[0] ** 2
    with np.errstate(over="ignore"):
        return -2 * (2 * m - 1) * np.exp(-2 * w0) * bracket


def conformal_factor_ratio(traj: RadialTrajectory) -> np.ndarray:
    """rho_1 = e^{2u} (1 + r^2)^2 / 4, the volume density relative to the
    lam = 1 closed-form profile; constant 1/lam^2 exactly on that family."""
    expo = 2 * traj.w[0] + 2 * np.log1p(traj.grid**2) - math.log(4.0)
    with np.errstate(over="ignore"):
        return np.exp(np.minimum(expo, _EXP_CAP))


# --- closed-form family: Delta^j u_lam = lam^{2j} G_j(t), t = lam^2 r^2 ---

def _standard_chain(m: int) -> list[list[int]]:
    """Integer coefficients c (c[k] multiplies x^k, x = 1/(1+t)) of G_j
    for j = 1..m-1.

    In t the radial Laplacian is 4t d^2/dt^2 + 2n d/dt with n = 2m; as
    dx/dt = -x^2 it maps x^k to 4k(k+1-m) x^{k+1} - 4k(k+1) x^{k+2}, and
    G_1 = (4-4m) x - 4 x^2 is the image of u = log(2 lam) - log(1+t).
    """
    g = [0, 4 - 4 * m, -4]
    chain = []
    for _ in range(m - 1):
        chain.append(g)
        nxt = [0] * (len(g) + 2)
        for k, c in enumerate(g):
            nxt[k + 1] += 4 * k * (k + 1 - m) * c
            nxt[k + 2] -= 4 * k * (k + 1) * c
        g = nxt
    return chain


def _t_derivative(c: list[int]) -> list[int]:
    """Coefficients in x of dG/dt for G = sum_k c[k] x^k."""
    return [0] + [-k * ck for k, ck in enumerate(c)]


def _horner(c: list[int], x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for ck in reversed(c):
        acc = acc * x + float(ck)
    return acc


@dataclass(frozen=True)
class StandardSolution:
    """Closed-form profile u = log(2 lam / (1 + lam^2 s^2)), s = |r - x0|,
    and its Laplacian chain.

    w[j], p[j] hold Delta^j u and its radial derivative for j = 0..m-1.
    """

    m: int
    lam: float
    r: np.ndarray
    w: np.ndarray
    p: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.w[0]

    @property
    def du(self) -> np.ndarray:
        return self.p[0]


def standard_solution(m: int, lam: float, r, x0_offset: float = 0.0) -> StandardSolution:
    """Evaluate the closed-form family along a ray.

    x0_offset shifts the center along the ray: all chain values are radial
    about the center, so they are functions of s = |r - x0_offset|; the
    reported derivatives are with respect to r (sign flips left of the
    center)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = r - x0_offset
    t = (lam * s) ** 2
    x = 1.0 / (1.0 + t)
    w = np.empty((m, r.size))
    p = np.empty_like(w)
    w[0] = math.log(2 * lam) - np.log1p(t)
    p[0] = -2 * lam**2 * s / (1.0 + t)
    for j, c in enumerate(_standard_chain(m), start=1):
        w[j] = lam ** (2 * j) * _horner(c, x)
        p[j] = 2 * lam ** (2 * j + 2) * s * _horner(_t_derivative(c), x)
    return StandardSolution(m=m, lam=lam, r=r, w=w, p=p)


def standard_laplacians(m: int, lam: float) -> tuple[float, ...]:
    """Initial data (Delta^j u_lam)(0), j = 0..m-1, for the closed form."""
    out = [math.log(2 * lam)]
    for j, c in enumerate(_standard_chain(m), start=1):
        out.append(float(sum(c)) * lam ** (2 * j))
    return tuple(out)


def standard_config(m: int, lam: float = 1.0, **kwargs) -> ShootingConfig:
    return ShootingConfig(
        m=m, initial_laplacians=standard_laplacians(m, lam), **kwargs
    )


# --- post-run diagnostics ---

@dataclass
class SolveReport:
    """Tail diagnostics of one trajectory, the classifier's raw input."""

    m: int
    termination: str
    r_reached: float
    alpha_final: float
    delta_limits: list[LimitEstimate]
    growth_fit: PolyFit1D | None
    scalar_curvature_tail: tuple[np.ndarray, np.ndarray] | None
    rho1_tail: tuple[np.ndarray, np.ndarray] | None
    w0_error_estimate: float

    @property
    def growth_exponent(self) -> int | None:
        return None if self.growth_fit is None else self.growth_fit.inferred_degree

    def to_json_dict(self) -> dict:
        verdict_inputs: dict = {}
        if self.scalar_curvature_tail is not None:
            r, vals = self.scalar_curvature_tail
            verdict_inputs["scalar_curvature_tail"] = {
                "r": [float(x) for x in r],
                "value": [float(x) for x in vals],
            }
        if self.rho1_tail is not None:
            r, vals = self.rho1_tail
            verdict_inputs["rho1_tail"] = {
                "r": [float(x) for x in r],
                "value": [float(x) for x in vals],
            }
        if self.growth_fit is not None:
            verdict_inputs["growth_leading_coefficient"] = (
                self.growth_fit.leading_coefficient
            )
            verdict_inputs["growth_residual_rms"] = self.growth_fit.residual_rms
        return {
            "m": self.m,
            "termination": self.termination,
            "r_reached": self.r_reached,
            "alpha_final": self.alpha_final,
            "delta_limits": [
                {
                    "j": j + 1,
                    "value": est.value,
                    "confidence": est.confidence,
                    "n_samples": est.n_samples,
                }
                for j, est in enumerate(self.delta_limits)
            ],
            "growth_exponent": self.growth_exponent,
            "w0_error_estimate": self.w0_error_estimate,
            "verdict_inputs": verdict_inputs,
        }


def diagnose(traj: RadialTrajectory, w0_error_estimate: float = math.nan) -> SolveReport:
    """Extract the tail quantities the classifier consumes.

    Limits of Delta^j u are fitted as a + b/r^2 over the outer 20% of the
    run; the growth exponent comes from an even-polynomial fit of u over
    [r_max/100, r_max] capped at degree 2m-2 (wide window on purpose: over
    a narrow tail window a polynomial can mimic the log decay of the
    closed-form family).  Both are skipped when the run blew up or died
    early.
    """
    m = traj.m
    ran_full = traj.termination == "reached_end"
    idx = traj.tail_indices()
    delta_limits: list[LimitEstimate] = []
    growth_fit = None
    curout = None
    rhoout = None
    if ran_full and idx.size >= 12:
        for j in range(1, m):
            delta_limits.append(tail_limit(traj.grid[idx], traj.w[j][idx]))
        wide = np.nonzero(traj.grid >= max(1.0, traj.r_max / 100.0))[0]
        max_deg = max(0, 2 * m - 2)
        if wide.size >= max_deg // 2 + 3:
            floor = 20.0 * max(1.0, math.log(traj.r_max))
            growth_fit = fit_even_polynomial(
                (traj.grid[wide], traj.w[0][wide]), max_deg, contribution_floor=floor
            )
        cur = scalar_curvature(traj)
        rho = conformal_factor_ratio(traj)
        curout = (traj.grid[idx], cur[idx])
        rhoout = (traj.grid[idx], rho[idx])
    return SolveReport(
        m=m,
        termination=traj.termination,
        r_reached=traj.r_max,
        alpha_final=traj.alpha_final,
        delta_limits=delta_limits,
        growth_fit=growth_fit,
        scalar_curvature_tail=curout,
        rho1_tail=rhoout,
        w0_error_estimate=w0_error_estimate,
    )
