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
derivatives u^{(2j)}(0) (odd ones vanish for smooth radial data).  Near
the origin the solution is its power series u = sum_k a_k r^{2k}, whose
coefficients follow from the data by two short recurrences (`_series`).
Each shot sums that series, exactly to rounding, on [0, r0], where r0 is
a quarter of its radius of convergence (0.26 for the round sphere with
lam = 1), and the stepper takes over at r0.  This sidesteps the
coordinate singularity of the radial Laplacian and the stepper's work
where the series alone is exact.  Every run steps at rtol = 3e-12 and
atol = 3e-14 (see _TOL_SAFETY).  The sampling grid is geometric from
r = 1e-3 whatever r0 is; its points below r0 come from the series.

The closed-form family

    u_lam(x) = log(2 lam / (1 + lam^2 |x|^2)),

the pullback of the round-sphere metric, has Delta^j u_lam = lam^{2j} G_j(t)
with t = lam^2 r^2, and each G_j is a polynomial with integer coefficients
in x = 1/(1+t).  It is evaluated by Horner's rule in x and serves as the
reference for every w_j and p_j without finite differencing.

A run ends in one of three terminations.  "reached_end": it got to
r_end.  "not_entire" (m = 2 only): u' turned positive, which no entire
finite-volume solution does (see `shoot`), so the run stops there; data
with Delta u(0) >= 0 stop at the first radius, 1e-3 or r0 if smaller,
without integrating.
"step_underflow": the step controller gave up short of r_end.  A
finite-radius blow-up ends so: it goes like u ~ -log(R - r), so u climbs
to about 30 before R - r falls to float64 resolution and the steps
underflow.  A solver failure can end so too: standard m = 8 is entire,
yet it stops at r = 17.874 after 27 359 nfev.  The label does not tell
the two apart.  The exponential source is clamped at exp(700) inside the
vector field so the right-hand side stays total past a blow-up.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dop853 import solve_ivp
from .exactconst import _iter_factor, _order, constant_table
from .tailfit import LimitEstimate, tail_limit

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
# linearized tail system.  Calibrated on the closed-form family with DOP853
# from a start at r = 1e-3: a request of 1e-10 returned u accurate to
# 7.5e-11 (m = 2) and 4.5e-9 (m = 3) on [0, 50], and a safety of 0.3
# saved only 22% of the m = 2 evaluations and lost a factor 5 in that
# accuracy.  From the series start the same request gives 8.0e-11 (m = 2)
# and 2.4e-11 to 2.4e-9 (m = 3, by OpenBLAS kernel).
_TOL_SAFETY = 0.03
_RTOL = 1e-10 * _TOL_SAFETY  # 3e-12: the step controller's fixed tolerances
_ATOL = 1e-12 * _TOL_SAFETY  # 3e-14
_R0 = 1e-3  # the first radius of the sampling grid

# The radial power series (`_series`): its number of terms past the first,
# in s = r^2, and the share of its radius of convergence it is used on.
# At a quarter of that radius the terms fall like 16^-k, so 40 of them
# leave the truncated tail far below float64 rounding.
_SERIES_TERMS = 40
_SERIES_REACH = 0.25
_EPS = np.finfo(float).eps

# Companion run for the error estimate integrates at this multiple of the
# main tolerances; the end-value difference overestimates the main run's
# own error.  On the closed-form family (m = 1, 2 to r = 1000, m = 3 to
# r = 500) the estimate is 4.8x to 21x the true end-point error of u, and
# up to 1500x where the m = 3 run happens to end closer to the closed form.
_COMPANION_FACTOR = 8.0

# Ratio of consecutive radii of the sampling grid.
_GRID_RATIO = 1.01

# solve_ivp status -> termination label: 1 is the m = 2 event on u' > 0,
# also given to an m = 2 shot whose series turns u' > 0 below r0
_TERMINATION = {0: "reached_end", 1: "not_entire", -1: "step_underflow"}


def derivs_to_laplacians(m, even_derivs):
    """Convert radial even derivatives (u(0), u''(0), ..., u^{(2m-2)}(0))
    to the iterated Laplacians A_j = Delta^j u(0).

    A_j = [C_j / (2j)!] * u^{(2j)}(0) with C_j = Delta^j r^{2j} in R^{2m}:
    of the Taylor terms u^{(2k)}(0) r^{2k} / (2k)!, only k = j leaves a
    constant under Delta^j (A_0 = u(0) since C_0 = 1).
    """
    if len(even_derivs) != m:
        raise ValueError(f"expected {m} derivative values, got {len(even_derivs)}")
    return tuple(float(Fraction(_iter_factor(j, j, 2 * m), math.factorial(2 * j))) * d
                 for j, d in enumerate(even_derivs))


@dataclass(frozen=True)
class ShootingConfig:
    """Initial data and end radius of one radial run.

    Exactly one of initial_laplacians (A_0..A_{m-1}) and initial_derivatives
    (u(0), u''(0), ..., u^{(2m-2)}(0)) must be provided; derivatives are
    converted on construction, and the data must be finite.  r_end must be
    finite and exceed the grid's start radius 1e-3.  m is a Python or numpy
    integer, kept as an int; a bool or a float is refused.  The accuracy is
    fixed: every run uses the module's tolerances _RTOL and _ATOL.
    """

    m: int
    initial_laplacians: tuple[float, ...] | None = None
    initial_derivatives: tuple[float, ...] | None = None
    r_end: float = 1000.0

    def __post_init__(self):
        object.__setattr__(self, "m", _order(self.m))
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
        if not (self.r_end > 0 and math.isfinite(self.r_end)):
            raise ValueError(f"r_end must be positive and finite, got {self.r_end}")
        if self.r_end <= _R0:
            raise ValueError(f"r_end must exceed the start radius {_R0}, got {self.r_end}")

    @property
    def n(self) -> int:
        return 2 * self.m


_FIELD_SOURCE = """\
def field(r, y):
    {w}, {p}, _ = y
    {body}

def stage(r, y, dy, h):
    {stage_args}
    {body}
"""

_FIELD_BODY = (
    "x = {two_m} * w0",
    "expo = exp({cap!r} if x > {cap!r} else x)",
    "damp = {damp} / r",
    "return [{p}, {dp}, {alpha}]",
)


@functools.cache
def _vector_field(m: int):
    """The augmented vector field (r, y) -> dy/dr of the radial system,
    with its fused stage kernel as the attribute `stage`.

    y = (w_0..w_{m-1}, p_0..p_{m-1}, alpha) is a sequence of floats, and
    the field returns a list of floats in the same layout.  The equation
    is written once, in the template _FIELD_SOURCE, and serves both
    `shoot` and `rhs`.  For each m the template is filled in as
    straight-line float code: y is unpacked into w0.., p0.. (alpha' does
    not depend on alpha), the constants become literals, and

        expo = exp(min(2m w_0, 700)),   damp = -(2m-1) / r,
        p_j' = damp p_j + w_{j+1}   (j < m-1),
        p_{m-1}' = damp p_{m-1} + sigma_m (2m-1)! expo,
        alpha' = (omega_{2m} / |S^{2m}|) expo r^(2m-1),

    in this order of operations.  The clamp is written
    `700.0 if x > 700.0 else x`, which is how the builtin min(x, 700.0)
    decides, NaN included, without the call.

    `field.stage(r, y, dy, h)` is the same body on the stage argument
    y + dy h, which a Runge-Kutta stage would otherwise build as a list:
    it equals field(r, [yi + di * h for yi, di in zip(y, dy)]) bit for
    bit, as w0 = y[0] + dy[0] * h, ... is the same product and sum per
    component, and it skips the alpha component, which the field ignores.
    `dop853.solve_ivp` calls it for every stage.  Both functions are
    compiled once per m and cached: they are pure, and at m = 2 a call
    costs well under a microsecond.
    """
    tab = constant_table(m)
    w = [f"w{j}" for j in range(m)]
    p = [f"p{j}" for j in range(m)]
    dp = [f"damp * {pj} + {wj}" for pj, wj in zip(p, w[1:])]
    dp.append(f"damp * {p[-1]} + {tab.sigma_m * math.factorial(2 * m - 1)} * expo")
    ratio = float(tab.omega_n / tab.vol_sphere_2m)
    body = "\n    ".join(_FIELD_BODY).format(
        p=", ".join(p), dp=", ".join(dp), two_m=2 * m, cap=_EXP_CAP,
        damp=-(2 * m - 1), alpha=f"{ratio!r} * expo * r ** {2 * m - 1}",
    )
    stage_args = "\n    ".join(f"{name} = y[{i}] + dy[{i}] * h" for i, name in enumerate(w + p))
    source = _FIELD_SOURCE.format(
        w=", ".join(w), p=", ".join(p), body=body, stage_args=stage_args
    )
    namespace = {"exp": math.exp}
    exec(compile(source, f"<vector field m={m}>", "exec"), namespace)
    field = namespace["field"]
    field.stage = namespace["stage"]
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
    # the field also unpacks alpha, on which no derivative depends
    return np.array(_vector_field(m)(r, state.tolist() + [0.0])[: 2 * m])


@functools.cache
def _series_tables(m: int):
    """The data-free tables of `_series` at order m, built once per m; its
    arrays are read-only.

    C_k for k < m (diag); C_k / C_{k-m} (lift, the a_k recurrence); the
    index l + j of the a_k that row w_j reads at power l (l + 1 + j for
    p_j), l = 0..terms, with the factors C_{l+j} / C_l of w_j (w_factor)
    and 2(l+1) C_{l+1+j} / C_{l+1} of p_j (p_factor); the powers ks =
    0..terms; the power of r on each row; the source constant
    sigma_m (2m-1)! and the alpha row's ratio omega_{2m} / |S^{2m}|.
    """
    n, terms = 2 * m, _SERIES_TERMS
    diag = tuple(_iter_factor(j, j, n) for j in range(m))
    lift = tuple(_iter_factor(k, m, n) for k in range(terms + m + 1))
    index = np.add.outer(np.arange(m), np.arange(terms + 1))
    w_factor = np.array([[_iter_factor(l + j, j, n) for l in range(terms + 1)]
                         for j in range(m)], dtype=float)
    p_factor = np.array([[2 * (l + 1) * _iter_factor(l + 1 + j, j, n) for l in range(terms + 1)]
                         for j in range(m)], dtype=float)
    ks = np.arange(terms + 1)
    power = np.array([0] * m + [1] * m + [2 * m])
    for table in (index, w_factor, p_factor, ks, power):
        table.setflags(write=False)
    tab = constant_table(m)
    source = tab.sigma_m * math.factorial(2 * m - 1)
    ratio = float(tab.omega_n / tab.vol_sphere_2m)
    return diag, lift, index, w_factor, p_factor, ks, power, source, ratio


def _series(config: ShootingConfig):
    """The radial power series of config's solution and the radius it earns.

    Returns (at, r0): at(radii) gives the state rows (w, p, alpha) at the
    radii as an array of shape (2m+1, len(radii)), and r0 is where the
    stepper takes over.  With s = r^2, u = sum_k a_k s^k and
    exp(2mu) = sum_k b_k s^k, the equation and d/ds exp(2mu) = 2m u_s exp(2mu)
    give

        a_{k+m} C_{k+m} / C_k = sigma_m (2m-1)! b_k,
        k b_k = 2m sum_{i=1..k} i a_i b_{k-i},

    from a_j = A_j / C_j (j < m) and b_0 = exp(2m A_0), clamped as in the
    vector field; C_k = Delta^k r^{2k}.  Every row follows termwise:
    w_j = sum_l a_{l+j} (C_{l+j} / C_l) s^l, p_j = dw_j/dr, and alpha
    integrates b_k s^k r^{2m-1}.  The coefficients are kept in x = s / S
    with S = min(r_end^2, 1 / max_{k=1..m} |a_k|^(1/k)), the radius in s
    that the data set, so that they stay of order one and never
    overflow.  r0 is a quarter of the root test's
    radius of convergence in r (from the upper half of the a_k), at most
    half of r_end, and halved until the last two terms of every row are
    below eps of its sum; each row is then exact to rounding on [0, r0].
    """
    m, terms = config.m, _SERIES_TERMS
    diag, lift, index, w_factor, p_factor, ks, power, source, ratio = _series_tables(m)
    a = [c / diag[j] for j, c in enumerate(config.initial_laplacians)]
    b = [math.exp(min(2 * m * a[0], _EXP_CAP))]
    reach = max(abs(c) ** (1 / k) for k, c in enumerate(a[1:] + [source * b[0] / lift[m]], 1))
    scale = config.r_end**2 if reach * config.r_end**2 <= 1 else 1 / reach
    a = [c * scale**j for j, c in enumerate(a)]
    ia = [j * c for j, c in enumerate(a)]  # i a_i, the convolution's weights
    source *= scale**m
    for k in range(1, terms + m + 1):
        if k >= m:
            a.append(source * b[k - m] / lift[k])
            ia.append(k * a[k])
        if k <= terms:
            b.append(2 * m / k * sum(map(operator.mul, ia[1 : k + 1], b[k - 1 :: -1])))
    a = np.array(a)
    alpha = ratio * np.array(b) / (2 * ks + 2 * m)
    coef = np.vstack([a[index] * w_factor, a[index + 1] * p_factor, alpha])
    # row factors S^-j (w_j), S^-(j+1) r (p_j) and r^2m (alpha)
    factor = np.array([scale**-j for j in range(m)] + [scale ** -(j + 1) for j in range(m)] + [1.0])

    def at(radii):
        r = np.asarray(radii, dtype=float)
        x = r * r / scale
        # Horner's rule in x, elementwise: a radius's value depends on that
        # radius alone, whichever radii are evaluated with it
        acc = np.repeat(coef[:, -1:], r.size, axis=1)
        for c in coef[:, -2::-1].T:
            acc *= x
            acc += c[:, None]
        return acc * factor[:, None] * r ** power[:, None]

    def earns(r):
        part = coef * (r * r / scale) ** ks
        return np.all(np.abs(part[:, -2:]).sum(axis=1) <= _EPS * np.abs(part.sum(axis=1)))

    top = np.max(np.abs(a[terms // 2 : terms + 1]) ** (1 / ks[terms // 2 :]))
    r0 = 0.5 * config.r_end
    if top > 0:
        r0 = min(r0, _SERIES_REACH * math.sqrt(scale / top))
    while r0 > 0 and not earns(r0):
        r0 *= 0.5
    return at, r0


def series_start(config: ShootingConfig):
    """Where the stepper starts: (r0, y0) with y0 = (w, p, alpha) from the
    radial power series at the radius r0 it earns (see `_series`)."""
    at, r0 = _series(config)
    return r0, at([r0])[:, 0]


@dataclass
class RadialTrajectory:
    """Sampled radial solution with its running conformal volume.

    grid starts at r = 0, so the r = 0 column of w holds the initial data
    A_j = Delta^j u(0) and that of p is 0; w and p have shape
    (m, len(grid)); alpha is the normalized volume of B_r.  Off the grid,
    `sample_w` interpolates w_j from the stored w_j and p_j.  termination
    is "reached_end"; "not_entire" (m = 2) when the run stopped at the
    first u' > 0, or at the first radius (1e-3, or r0 if smaller) when
    Delta u(0) >= 0; or "step_underflow" when the step controller gave up
    short of r_end (a blow-up or a solver failure).
    """

    m: int
    grid: np.ndarray
    w: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    termination: str
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

    def tail_indices(self) -> np.ndarray:
        """Grid indices of the tail window r >= 0.8 r_max."""
        return np.nonzero(self.grid >= 0.8 * self.r_max)[0]

    def alpha_tail_change(self) -> float:
        """Relative change of alpha over the tail window."""
        a_end = self.alpha_final
        return abs(a_end - self.alpha[self.tail_indices()[0]]) / max(abs(a_end), 1e-300)

    def rescaled(self, scale: float) -> "RadialTrajectory":
        """Trajectory of u_s(x) = u(s x) + log s, the conformal rescaling,
        for a finite scale s > 0.

        Iterated Laplacians pick up s^{2j}, radial derivatives one more s,
        and the normalized volume alpha is invariant.  The r = 0 column is
        the rescaled initial data.
        """
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        s = float(scale)
        powers = s ** (2 * np.arange(self.m))
        w = self.w * powers[:, None]
        w[0] = w[0] + math.log(s)
        return replace(self, grid=self.grid / s, w=w, p=self.p * (s * powers)[:, None],
                       alpha=self.alpha.copy())

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


def _integrate(config: ShootingConfig, r0, y0, t_eval, looser=1.0, events=None):
    """One run from (r0, y0) at `looser` times the fixed tolerances."""
    return solve_ivp(
        _vector_field(config.m),
        (r0, config.r_end),
        y0,
        t_eval=t_eval,
        rtol=_RTOL * looser,
        atol=_ATOL * looser,
        events=events,
    )


def shoot(config: ShootingConfig) -> tuple[RadialTrajectory, "SolveReport"]:
    """Integrate one radial trajectory on [0, r_end] and diagnose its tail.

    The grid is geometric, of ratio 1.01 from r = 1e-3.  Its points below
    r0 come from the radial power series (`_series`), and from r0 on
    Dormand-Prince adaptive stepping (`dop853.solve_ivp`: 8th order, with
    5th- and 3rd-order error estimates and 7th-order dense output) starts
    from the series state at r0 and samples the rest; the series costs no
    nfev.  The returned grid always contains r = 0 (exact data) and ends
    at the last grid radius the run passed.  The report's
    w0_error_estimate comes from a companion integration from the same
    start at 8x looser tolerance: the global error
    grows with the tolerance, so the end-value difference bounds the main
    run's error (by 4.8x or more on the closed-form family).  No run
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
    The series segment keeps the same rule: if the series u' is > 0 at a
    grid radius below r0, or at r0 itself, the shot ends there in
    "not_entire" with the radii before the first such one, and
    nfev 0.  It keeps at least its first radius: the grid's, or r0 when
    that is smaller (large u(0)), as the series is read only up to r0.
    That is the whole shot for data with Delta u(0) >= 0, which break the
    sign at r = 0 and start with u' > 0 (at Delta u(0) = 0 through
    Delta^2 u(0) = 3! e^{4u(0)} > 0).  The companion run has no event; it
    runs only after "reached_end".  Other m carry no event: for m = 1,
    Delta u = -e^{2u} < 0 on every run, so u' never turns positive; for
    m >= 3 no sign theorem holds (m = 3 data (log 2, -2, 14) turn u' > 0
    near r = 1.46 and still reach r_end).
    """
    m = config.m
    grid = _geometric_grid(_R0, config.r_end)
    at, r0 = _series(config)
    below = grid[grid < r0]
    y = at(np.append(below, r0))
    y0 = y[:, -1]
    # the m = 2 event on the series segment: Delta u(0) >= 0, or the first
    # radius with u' > 0, r0 included, ends the shot; its first radius,
    # the grid's or r0 when that is smaller, is always kept
    up = y[m] > 0
    if m == 2 and (config.initial_laplacians[1] >= 0 or up.any()):
        keep = max(np.argmax(up), 1)
        t, y, status, nfev = np.append(below, r0)[:keep], y[:, :keep], 1, 0
    else:
        sol = _integrate(config, r0, y0, grid[grid >= r0],
                         events=_m2_u_prime if m == 2 else None)
        t, status, nfev = np.append(below, sol.t), sol.status, sol.nfev
        y = np.column_stack([y[:, :-1], sol.y])
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
        nfev=nfev,
    )

    w0_err = math.nan
    if termination == "reached_end":
        coarse = _integrate(config, r0, y0, np.array([config.r_end]), _COMPANION_FACTOR)
        if coarse.status == 0:
            diff = abs(float(coarse.y[0, -1]) - traj.w[0, -1])
            floor = _RTOL * max(1.0, float(np.max(np.abs(traj.w[0]))))
            w0_err = max(diff, floor)
    return traj, diagnose(traj, w0_error_estimate=w0_err)


def scalar_curvature(traj: RadialTrajectory) -> np.ndarray:
    """Scalar curvature of g = exp(2u) |dx|^2 along the trajectory.

    R_g = -2 (2m-1) e^{-2u} (Delta u + (m-1) |grad u|^2); the m = 1 branch
    is the Gauss identity R = 2 e^{-2u} (-Delta u) with Delta u = -e^{2u}
    read from the equation itself.  Overflow of e^{-2u} (deeply negative u)
    maps to +-inf rather than raising; where it meets a zero bracket (at
    m = 1, e^{2u} underflows to 0 there) the product is NaN, not a wrong
    number.
    """
    m = traj.m
    w0 = traj.w[0]
    if m == 1:
        lap = -np.exp(np.minimum(2 * w0, _EXP_CAP))
    else:
        lap = traj.w[1]
    bracket = lap + (m - 1) * traj.p[0] ** 2
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Closed-form profile u = log(2 lam / (1 + lam^2 r^2)) and its
    Laplacian chain at the radii `standard_solution` was given.

    w[j], p[j] hold Delta^j u and its radial derivative for j = 0..m-1.
    """

    w: np.ndarray
    p: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.w[0]


def standard_solution(m: int, lam: float, r) -> StandardSolution:
    """Evaluate the closed-form family centred at the origin at radii r."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = (lam * r) ** 2
    x = 1.0 / (1.0 + t)
    w = np.empty((m, r.size))
    p = np.empty_like(w)
    w[0] = math.log(2 * lam) - np.log1p(t)
    p[0] = -2 * lam**2 * r / (1.0 + t)
    for j, c in enumerate(_standard_chain(m), start=1):
        w[j] = lam ** (2 * j) * _horner(c, x)
        p[j] = 2 * lam ** (2 * j + 2) * r * _horner(_t_derivative(c), x)
    return StandardSolution(w=w, p=p)


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

def json_safe(obj):
    """obj with every non-finite float written as its str ("-inf", "nan"):
    strict JSON has no Infinity or NaN token.  Dicts, lists and tuples are
    walked; everything else is returned as it is."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(value) for value in obj]
    return obj


@dataclass
class SolveReport:
    """Tail diagnostics of one trajectory, the classifier's raw input."""

    m: int
    termination: str
    r_reached: float
    alpha_final: float
    delta_limits: list[LimitEstimate]
    scalar_curvature_tail: tuple[np.ndarray, np.ndarray] | None
    rho1_tail: tuple[np.ndarray, np.ndarray] | None
    w0_error_estimate: float

    def to_json_dict(self) -> dict:
        verdict_inputs: dict = {}
        for name in ("scalar_curvature_tail", "rho1_tail"):
            tail = getattr(self, name)
            if tail is not None:
                r, vals = tail
                verdict_inputs[name] = {
                    "r": [float(x) for x in r],
                    "value": [float(x) for x in vals],
                }
        return json_safe({
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
            "w0_error_estimate": self.w0_error_estimate,
            "verdict_inputs": verdict_inputs,
        })


def diagnose(traj: RadialTrajectory, w0_error_estimate: float = math.nan) -> SolveReport:
    """Extract the tail quantities the classifier consumes.

    Limits of Delta^j u are fitted as a + b/r^2 over the outer 20% of the
    run, and the scalar curvature and rho_1 are sampled on the same tail
    window.  Both are skipped unless the run reached r_end.
    """
    m = traj.m
    ran_full = traj.termination == "reached_end"
    idx = traj.tail_indices()
    delta_limits: list[LimitEstimate] = []
    curout = None
    rhoout = None
    if ran_full and idx.size >= 12:
        for j in range(1, m):
            delta_limits.append(tail_limit(traj.grid[idx], traj.w[j][idx]))
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
        scalar_curvature_tail=curout,
        rho1_tail=rhoout,
        w0_error_estimate=w0_error_estimate,
    )
