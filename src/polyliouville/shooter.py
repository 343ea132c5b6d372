"""Radial shooting integrator for (-Delta)^m u = (2m-1)! exp(2m u) on R^{2m}.

A radial solution is written in the iterated Laplacians

    w_j = Delta^j u,   p_j = d/dr w_j,        j = 0 .. m-1,

which close as a first-order system because Delta w_j = w_{j+1} and
Delta^m u is supplied by the equation itself: w_m = sigma_m (2m-1)!
exp(2m w_0) with sigma_m = (-1)^m.

The closed-form family

    u_lam(x) = log(2 lam / (1 + lam^2 |x|^2)),

the pullback of the round-sphere metric, has Delta^j u_lam = lam^{2j} G_j(t)
with t = lam^2 r^2, and each G_j is a polynomial with integer coefficients
in x = 1/(1+t).  It is evaluated by Horner's rule in x (`standard_solution`),
and its conformal volume is the incomplete beta function I_{t/(1+t)}(m, m)
(`standard_volume`).

A shot integrates the deviation from the family member with the same
u(0): mu = e^{A_0}/2 (`reference_mu`, with A_0 clipped to [-350/m, 350/m]
so that E_mu(0) is a normal float) and W = u - u_mu, whose iterated
Laplacians W_j and derivatives P_j = W_j' obey the same linear chain with

    Delta^m W = sigma_m (2m-1)! E_mu expm1(2m W_0),   E_mu = (2 mu / (1 + mu^2 r^2))^{2m},

W_j(0) = A_j - A_j^std(mu), W_0(0) = 0.  That is the one system the
module compiles (`_vector_field`), and `deviation_source` forms its
source on arrays, for `represent`'s density.  Roundoff then scales
with |W|, not with |u|, so the free modes r^{2k} of the far field
amplify only the deviation's own error.  Data equal in floats to
`standard_laplacians(m, mu)` give W = 0 exactly, and the trajectory is the
closed form at every node, taken as it is: no series, no stepper and no
companion run.  The lam = 1 data of every m, and lam = 3 and 20 too, are
such data.  From m = 4 on, those float data are not exactly on the
family, so a W = 0 shot solves the data snapped to it, which the
trajectory's `on_family` and the reports' data_on_family say.  The
conformal volume

    alpha(R) = (1 / |S^{2m}|) * omega_{2m} * int_0^R exp(2m u(s)) s^{2m-1} ds

is the closed form of u_mu plus one quadrature row of the deviation,
int E_mu expm1(2m W_0) s^{2m-1} ds, carried as an extra state.

The system is integrated by the package's own DOP853 stepper
(`dop853.solve_ivp`, Hairer-Norsett-Wanner's 8th-order Dormand-Prince
pair with 7th-order dense output), called through this module's global
`solve_ivp` so that it can be wrapped or replaced from outside.

Initial data live at r = 0, either as A_j = Delta^j u(0) or as the even
derivatives u^{(2j)}(0) (odd ones vanish for smooth radial data).  Near
the origin W is its power series W = sum_k a_k r^{2k}, whose coefficients
follow from the data by short recurrences (`_series`).  Each shot off
the family sums that series, exactly to rounding, on [0, r0], where r0
is a quarter of its radius of convergence, and the stepper takes over at
r0.  This sidesteps the coordinate singularity of the radial Laplacian
and the stepper's work where the series alone is exact.
Every run steps at rtol = 3e-12 and atol = 3e-14 (see _TOL_SAFETY).  The
sampling grid is geometric from r = 1e-3 whatever r0 is; its points below
r0 come from the series.

A run ends in one of three terminations.  "reached_end": it got to
r_end, as standard m = 8, which is entire, does with W = 0.
"not_entire" (m = 2 only): u' = u_mu' + W_0' turned positive, which no
entire finite-volume solution does (see `shoot`), so the run stops
there; data with Delta u(0) >= 0 stop at the first radius, 1e-3 or r0 if
smaller, without integrating.  "step_underflow": the step controller
gave up short of r_end.  A finite-radius blow-up ends so: it goes like
u ~ -log(R - r), so u climbs to about 30 before R - r falls to float64
resolution and the steps underflow.  A solver failure would end so too,
and so does a shot whose series earns no radius (a source past float
range at r = 0); the label does not tell them apart.  The exponential
source is clamped at exp(700) inside the vector field (on
2m u = log E_mu + 2m W_0) so the right-hand side stays total past a
blow-up; past the clamp, and where E_mu underflows, the source is taken
from log E_mu + 2m W_0, so it acts however small E_mu is.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
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
    "reference_mu",
    "deviation_source",
    "series_start",
    "derivs_to_laplacians",
    "shoot",
    "diagnose",
    "standard_solution",
    "standard_laplacians",
    "standard_config",
    "standard_volume",
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
# accuracy.  From the series start the same request gave 8.0e-11 (m = 2)
# and 2.4e-11 to 2.4e-9 (m = 3, by OpenBLAS kernel).  Those shots
# integrated u itself; the family's own data now give W = 0 exactly.
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
_TINY = float(np.finfo(float).tiny)  # the least normal float64

# Companion run for the error estimate integrates at this multiple of the
# main tolerances; the end-value difference overestimates the main run's
# own error.  On the closed-form family (m = 1, 2 to r = 1000, m = 3 to
# r = 500), shot as u itself, the estimate was 4.8x to 21x the true
# end-point error of u, and up to 1500x where the m = 3 run happened to end
# closer to the closed form.  The deviation from it is 0 there: no
# companion run is made, and the estimate is the floor _RTOL max(1, |u|).
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
def make(c, mu2, xsafe, clamped):
    def field(r, y):
        {w}, {p}, _ = y
        {body}

    def stage(r, y, dy, h):
        {stage_args}
        {body}

    field.stage = stage
    return field
"""

_FIELD_BODY = (
    "x = {two_m} * w0",
    "e = (c / (1.0 + mu2 * r * r)) ** {two_m}",
    "dev = e * expm1(x) if x <= xsafe and e >= {tiny!r} else clamped(x, e, r)",
    "damp = {damp} / r",
    "return [{p}, {dp}, {alpha}]",
)


def _source_past_clamp(m: int, mu: float, x: float, e: float, r: float) -> float:
    """E_mu expm1(x), the deviation source about u_mu at radius r, where
    its product form may fail: x = 2m W_0 and e = E_mu, with log E_mu
    taken as 2m (log 2mu - log1p(mu^2 r^2)), not from the rounded e.  Past
    the clamp of 2m u = log E_mu + x at 700 it is exp(700) - E_mu; below
    it, for x > 0, e^{2mu} (1 - e^{-x}), which stays exact to rounding
    where E_mu is subnormal or 0.0; else E_mu expm1(x), below E_mu in
    size.  NaN stays NaN."""
    total = 2 * m * (math.log(2 * mu) - math.log1p(mu * mu * r * r)) + x
    if total > _EXP_CAP:
        return math.exp(_EXP_CAP) - e
    if x > 0:
        return -math.exp(total) * math.expm1(-x)
    return e * math.expm1(x)


def _pow_limit(k: int) -> float:
    """A radius below which r^k is finite: float r ** k raises past it."""
    return float(np.finfo(float).max ** (1 / k) * (1 - 1e-12))


@functools.cache
def _vector_field(m: int):
    """The factory make(c, mu2, xsafe, clamped) of the vector field at
    order m of the deviation W = u - u_mu, the one system a shot
    integrates; `_field` calls it once per shot.

    The field (r, y) -> dy/dr carries its fused stage kernel as the
    attribute `stage`.  y = (W_0..W_{m-1}, P_0..P_{m-1}, alpha_dev) is a
    sequence of floats, and the field returns a list of floats in the same
    layout.  The equation is written once, in the template _FIELD_SOURCE
    with the body _FIELD_BODY.
    For each m the template is filled in as straight-line float code: y is
    unpacked into w0.., p0.. (alpha_dev' does not depend on alpha_dev), the
    constants become literals, the shot's reference mu enters through the
    closure's c = 2 mu and mu2 = mu^2, and

        x = 2m W_0,   E_mu = (c / (1 + mu2 r^2))^(2m),   damp = -(2m-1) / r,
        dev = E_mu expm1(x)   (the source e^{2mu} - E_mu, never formed so),
        P_j' = damp P_j + W_{j+1}   (j < m-1),
        P_{m-1}' = damp P_{m-1} + sigma_m (2m-1)! dev,
        alpha_dev' = (omega_{2m} / |S^{2m}|) dev r^(2m-1),

    in this order of operations.  For x <= xsafe = 700 - max(0, 2m log 2mu)
    the total exponent log E_mu + x is at most 700 at every r, and where
    E_mu is also a normal float the product is exact to rounding.
    Elsewhere `clamped(x, e, r)`, which `_field` binds to
    `_source_past_clamp`, clamps 2m u at 700, keeps the source where E_mu
    underflows, and propagates NaN, so the field stays total past a
    blow-up.  `deviation_source` is the same rule on arrays.

    `field.stage(r, y, dy, h)` is the same body on the stage argument
    y + dy h, which a Runge-Kutta stage would otherwise build as a list:
    it equals field(r, [yi + di * h for yi, di in zip(y, dy)]) bit for
    bit, as w0 = y[0] + dy[0] * h, ... is the same product and sum per
    component, and it skips the alpha_dev component, which the field
    ignores.  `dop853.solve_ivp` calls it for every stage.  The factory is
    compiled once per m and cached; the field is pure, and at m = 2 a
    stage costs about half a microsecond.
    """
    tab = constant_table(m)
    w = [f"w{j}" for j in range(m)]
    p = [f"p{j}" for j in range(m)]
    dp = [f"damp * {pj} + {wj}" for pj, wj in zip(p, w[1:])]
    dp.append(f"damp * {p[-1]} + {tab.sigma_m * math.factorial(2 * m - 1)} * dev")
    ratio = float(tab.omega_n / tab.vol_sphere_2m)
    body = "\n        ".join(_FIELD_BODY).format(
        p=", ".join(p), dp=", ".join(dp), two_m=2 * m, tiny=_TINY,
        damp=-(2 * m - 1),
        alpha=f"({ratio!r} * dev * r ** {2 * m - 1} if r < {_pow_limit(2 * m - 1)!r} "
              "else dev * inf if dev else 0.0)",
    )
    stage_args = "\n        ".join(f"{name} = y[{i}] + dy[{i}] * h"
                                  for i, name in enumerate(w + p))
    source = _FIELD_SOURCE.format(
        w=", ".join(w), p=", ".join(p), body=body, stage_args=stage_args
    )
    namespace = {"expm1": math.expm1, "inf": math.inf}
    exec(compile(source, f"<field m={m}>", "exec"), namespace)
    return namespace["make"]


def reference_mu(config: ShootingConfig) -> float:
    """The family member u_mu that a shot of config deviates from:
    mu = e^{A_0}/2, so that u_mu(0) = A_0, with A_0 clipped to
    [-350/m, 350/m].  The clip keeps E_mu(0) = (2 mu)^{2m} = e^{2m A_0}
    a normal float within e^{+-700}, the clamp of the vector field; data
    past it start with W_0(0) != 0."""
    cap = _EXP_CAP / (2 * config.m)
    return math.exp(min(max(config.initial_laplacians[0], -cap), cap)) / 2


def _xsafe(m: int, mu: float) -> float:
    """The bound on x = 2m W_0 below which log E_mu + x <= 700 at every r."""
    return _EXP_CAP - max(0.0, 2 * m * math.log(2 * mu))


def _field(m: int, mu: float):
    """The deviation system's vector field about u_mu (see `_vector_field`)."""
    clamped = functools.partial(_source_past_clamp, m, mu)
    return _vector_field(m)(2 * mu, mu * mu, _xsafe(m, mu), clamped)


def deviation_source(m: int, mu: float, r, w0) -> np.ndarray:
    """e^{2mu} - E_mu for u = u_mu + W_0, elementwise at radii r with W_0 =
    w0 there: the source the field forms, as E_mu expm1(2m W_0) (never a
    difference, which would lose eps/(2m|W_0|) relative), with
    E_mu = (2 mu / (1 + mu^2 r^2))^(2m) = e^{2m u_mu}, and
    `_source_past_clamp` wherever that product may fail: past the clamp of
    2m u at 700, or where E_mu is not a normal float."""
    r = np.asarray(r, dtype=float)
    x = 2 * m * np.asarray(w0, dtype=float)
    family = (2 * mu / (1.0 + (mu * r) ** 2)) ** (2 * m)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = family * np.expm1(x)
    for i in np.flatnonzero(~((x <= _xsafe(m, mu)) & (family >= _TINY))):
        dev[i] = _source_past_clamp(m, mu, float(x[i]), float(family[i]), float(r[i]))
    return dev


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


def _series(config: ShootingConfig, mu: float):
    """The radial power series of the deviation W = u - u_mu of config's
    solution, and the radius it earns.

    Returns (at, r0): at(radii) gives the state rows (W, P, alpha_dev) at
    the radii as an array of shape (2m+1, len(radii)), and r0 is where the
    stepper takes over.  With s = r^2, W = sum_k a_k s^k,
    expm1(2m W) = sum_k g_k s^k, E_mu = sum_k e_k s^k and the deviation
    source D = E_mu expm1(2m W) = sum_k d_k s^k, the equation
    Delta^m W = sigma_m (2m-1)! D and d/ds exp(2mW) = 2m W_s exp(2mW) give

        a_{k+m} C_{k+m} / C_k = sigma_m (2m-1)! d_k,
        k g_k = 2m sum_{i=1..k} i a_i h_{k-i},   d_k = sum_{i=0..k} e_i g_{k-i},

    with h_0 = exp(2m a_0) and h_k = g_k, from the general start
    a_j = W_j(0) / C_j (j < m), g_0 = expm1(2m a_0), so that
    d_0 = (2 mu)^{2m} expm1(2m W_0(0)); e_k = (2 mu)^{2m} binom(-2m, k) mu^{2k}
    and C_k = Delta^k r^{2k}.  2m a_0 is clamped so that 2m u(0) <= 700, as
    in the vector field.  Data equal to `standard_laplacians(m, mu)` in
    floats give W = 0 and every row 0.  Every row follows termwise:
    W_j = sum_l a_{l+j} (C_{l+j} / C_l) s^l, P_j = dW_j/dr, and alpha_dev
    integrates d_k s^k r^{2m-1}.  The coefficients are kept in x = s / S
    with S = min(r_end^2, 1 / max(mu^2, max_{k=1..m} |a_k|^(1/k))), the
    radius in s that the data and E_mu set, so that they stay of order one
    and never overflow.  r0 is a quarter of the root test's radius of
    convergence in r (from the upper half of the a_k), at most half of
    r_end, and halved until the last two terms of every row are below eps
    of its sum, and of the sum of e^{2mW} = sum_k h_k s^k too; each row is
    then exact to rounding on [0, r0].  The exponential's check matters
    where the source starts far below float range, as for data below the
    clip of `reference_mu`: the a_k are then all but a polynomial's, while
    the source they omit grows like e^{2mW}.  W = 0 earns half of r_end.
    """
    m, terms = config.m, _SERIES_TERMS
    diag, lift, index, w_factor, p_factor, ks, power, source, ratio = _series_tables(m)
    base = standard_laplacians(m, mu)
    a = [(c - b) / diag[j] for j, (c, b) in enumerate(zip(config.initial_laplacians, base))]
    x0 = min(2 * m * a[0], _EXP_CAP - 2 * m * math.log(2 * mu))
    h, g = [math.exp(x0)], [math.expm1(x0)]
    # |a_m|^(1/m) for a_m = source (2 mu)^{2m} g_0 / lift[m], without the power
    root_m = (2 * mu) ** 2 * abs(source * g[0] / lift[m]) ** (1 / m)
    reach = max([mu * mu, root_m] + [abs(c) ** (1 / k) for k, c in enumerate(a[1:], 1)])
    scale = config.r_end**2 if reach * config.r_end**2 <= 1 else 1 / reach
    a = [c * scale**j for j, c in enumerate(a)]
    # e_k and d_k are kept relative to E_mu(0) = (2 mu)^{2m}, which the
    # source takes as E_mu(0) S^m = (4 mu^2 S)^m <= 4^m, since S <= 1 / mu^2
    source *= ((2 * mu) ** 2 * scale) ** m
    step = -mu * mu * scale
    e = [1.0]
    for k in range(1, terms + 1):
        e.append(e[-1] * step * (2 * m + k - 1) / k)
    ia = [j * c for j, c in enumerate(a)]  # i a_i, the convolution's weights
    d = [g[0]]
    a.append(source * d[0] / lift[m])
    ia.append(m * a[m])
    for k in range(1, terms + 1):
        h.append(2 * m / k * sum(map(operator.mul, ia[1 : k + 1], h[k - 1 :: -1])))
        g.append(h[k])
        d.append(sum(map(operator.mul, e[: k + 1], g[k::-1])))
        a.append(source * d[k] / lift[k + m])
        ia.append((k + m) * a[k + m])
    a = np.array(a)
    # past float range (a source far past the clamp) the row is inf, and
    # the series earns no radius
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = ratio * (2 * mu) ** (2 * m) * np.array(d) / (2 * ks + 2 * m)
    coef = np.vstack([a[index] * w_factor, a[index + 1] * p_factor, alpha])
    # row factors S^-j (W_j), S^-(j+1) r (P_j) and r^2m (alpha_dev)
    factor = np.array([scale**-j for j in range(m)] + [scale ** -(j + 1) for j in range(m)] + [1.0])
    # trailing zero terms change no bit of Horner's sum: W = 0 sums none
    used = coef[:, : max(np.flatnonzero(coef.any(axis=0)), default=0) + 1]

    def at(radii):
        r = np.asarray(radii, dtype=float)
        x = r * r / scale
        # Horner's rule in x, elementwise: a radius's value depends on that
        # radius alone, whichever radii are evaluated with it
        acc = np.repeat(used[:, -1:], r.size, axis=1)
        # a zero row stays 0 where its power of r overflows; rows past float
        # range (a series that earns no radius) are inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for c in used[:, -2::-1].T:
                acc *= x
                acc += c[:, None]
            return np.where(acc == 0.0, 0.0, acc * factor[:, None] * r ** power[:, None])

    # the exponential's series e^{2mW} = sum_k h_k x^k must earn r0 too:
    # where the source starts far below float range its terms vanish from
    # the a_k, which look like a polynomial's, while e^{2mW} still grows
    checked = np.vstack([coef, h])

    def earns(r):
        # a zero term stays 0 where its power of x overflows; a row with an
        # infinite term never earns r
        with np.errstate(over="ignore", invalid="ignore"):
            part = np.where(checked == 0.0, 0.0, checked * (r * r / scale) ** ks)
            return np.all(np.abs(part[:, -2:]).sum(axis=1) <= _EPS * np.abs(part.sum(axis=1)))

    top = np.max(np.abs(a[terms // 2 : terms + 1]) ** (1 / ks[terms // 2 :]))
    r0 = 0.5 * config.r_end
    if top > 0:
        r0 = min(r0, _SERIES_REACH * math.sqrt(scale / top))
    while coef.any() and r0 > 0 and not earns(r0):
        r0 *= 0.5
    return at, r0


def series_start(config: ShootingConfig):
    """Where the stepper starts: (r0, y0) with y0 = (W, P, alpha_dev), the
    deviation from u_mu (mu = `reference_mu(config)`), from its radial
    power series at the radius r0 it earns (see `_series`)."""
    at, r0 = _series(config, reference_mu(config))
    return r0, at([r0])[:, 0]


@dataclass
class RadialTrajectory:
    """Sampled radial solution u = u_mu + W with its running conformal volume.

    grid starts at r = 0.  mu is the family member u_mu the shot deviates
    from (`reference_mu`), W[j] = Delta^j (u - u_mu) and P[j] = W[j]',
    of shape (m, len(grid)): the r = 0 column of W holds
    A_j - A_j^std(mu) and that of P is 0.  w = w_mu + W and p = p_mu + P,
    the iterated Laplacians of u and their radial derivatives, are built
    once from `standard_solution`; alpha is the normalized volume of B_r.
    Off the grid, `sample_w` adds the closed form to W_j interpolated from
    the stored W_j and P_j.  termination is "reached_end"; "not_entire"
    (m = 2) when the run stopped at the first u' > 0, or at the first
    radius (1e-3, or r0 if smaller) when Delta u(0) >= 0; or
    "step_underflow" when the step controller gave up short of r_end (a
    blow-up or a solver failure) or the series earned no radius.
    """

    m: int
    grid: np.ndarray
    mu: float
    W: np.ndarray
    P: np.ndarray
    alpha: np.ndarray
    termination: str
    nfev: int = 0
    w: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        npts = self.grid.size
        if self.W.shape != (self.m, npts) or self.P.shape != (self.m, npts):
            raise ValueError("W and P must have shape (m, len(grid))")
        if self.alpha.shape != (npts,):
            raise ValueError("alpha must match the grid")
        family = standard_solution(self.m, self.mu, self.grid)
        self.w = family.w + self.W
        self.p = family.p + self.P

    @property
    def u(self) -> np.ndarray:
        return self.w[0]

    @property
    def on_family(self) -> bool:
        """True when every W_j(0) is 0.0: the data are u_mu's in floats,
        and the shot solved u_mu itself."""
        return not np.any(self.W[:, 0])

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    @property
    def alpha_final(self) -> float:
        return float(self.alpha[-1])

    def sample_deviation(self, j: int, radii) -> np.ndarray:
        """W_j at the given radii by piecewise cubic Hermite interpolation.

        Each panel's cubic matches the stored W_j and P_j = W_j' at both
        ends, so node values come back exactly and W_j'(0) = 0 holds
        through P_j(0) = 0.  Radii outside the grid take the cubic of the
        nearest end panel."""
        r = np.asarray(radii, dtype=float)
        grid, w, p = self.grid, self.W[j], self.P[j]
        i = np.clip(np.searchsorted(grid, r, side="right") - 1, 0, grid.size - 2)
        h = grid[i + 1] - grid[i]
        t = (r - grid[i]) / h
        return ((1 + 2 * t) * (1 - t) ** 2 * w[i] + t**2 * (3 - 2 * t) * w[i + 1]
                + h * t * (1 - t) * ((1 - t) * p[i] - t * p[i + 1]))

    def sample_w(self, j: int, radii) -> np.ndarray:
        """w_j at the given radii: the closed form of u_mu plus
        `sample_deviation`, so node values come back exactly."""
        r = np.asarray(radii, dtype=float)
        return standard_solution(self.m, self.mu, r).w[j] + self.sample_deviation(j, r)

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

        u_mu(s x) + log s is u_{s mu}(x), so mu becomes s mu; iterated
        Laplacians of W pick up s^{2j}, radial derivatives one more s, and
        the normalized volume alpha is invariant.
        """
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        s = float(scale)
        powers = s ** (2 * np.arange(self.m))
        return replace(self, grid=self.grid / s, mu=self.mu * s, W=self.W * powers[:, None],
                       P=self.P * (s * powers)[:, None], alpha=self.alpha.copy())

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


def _m2_event(mu: float):
    """Terminal event of m = 2 runs about u_mu: u' = u_mu' + W_0' (y[2])
    crossing zero upwards.  u_mu' is written as `standard_solution` writes
    p_0, so the event reads the same bits as the trajectory's p_0.  It
    takes arrays too: `shoot` reads it on the series segment's radii."""
    slope = -2 * mu**2

    def u_prime(r, y):
        t = mu * r
        return y[2] + slope * r / (1.0 + t * t)

    u_prime.terminal = True
    u_prime.direction = 1
    return u_prime


def _integrate(fun, config: ShootingConfig, r0, y0, t_eval, looser=1.0, events=None):
    """One run of fun from (r0, y0) at `looser` times the fixed tolerances."""
    return solve_ivp(
        fun,
        (r0, config.r_end),
        y0,
        t_eval=t_eval,
        rtol=_RTOL * looser,
        atol=_ATOL * looser,
        events=events,
    )


def standard_volume(m: int, mu: float, r) -> np.ndarray:
    """alpha of u_mu on B_r: I_x(m, m), the regularized incomplete beta
    function at x = t / (1 + t), t = (mu r)^2, summed as its finite
    binomial series sum_{j=m}^{2m-1} binom(2m-1, j) x^j (1-x)^(2m-1-j)."""
    t = (mu * np.asarray(r, dtype=float)) ** 2
    y = 1.0 / (1.0 + t)
    x = t * y
    return sum(math.comb(2 * m - 1, j) * x**j * y ** (2 * m - 1 - j) for j in range(m, 2 * m))


def shoot(config: ShootingConfig) -> tuple[RadialTrajectory, "SolveReport"]:
    """Integrate one radial trajectory on [0, r_end] and diagnose its tail.

    The shot integrates the deviation W = u - u_mu from the family member
    with the same u(0), mu = `reference_mu(config)` (see `_vector_field`),
    and alpha = `standard_volume` + alpha_dev.  Data equal in floats to
    `standard_laplacians(m, mu)` give W = 0 exactly: the shot returns
    W = P = alpha_dev = 0 on the whole grid, "reached_end", with nfev 0,
    no series and no companion run, so the trajectory is the closed form
    at every node.  The grid is geometric, of ratio 1.01
    from r = 1e-3.  Its points below r0 come from the radial power series
    of W (`_series`), and from r0 on Dormand-Prince adaptive stepping
    (`dop853.solve_ivp`: 8th order, with 5th- and 3rd-order error
    estimates and 7th-order dense output) starts from the series state at
    r0 and samples the rest; the series costs no nfev.  The returned grid
    always contains r = 0 (exact data) and ends at the last grid radius
    the run passed.  The report's w0_error_estimate comes from a companion
    integration of W from the same start at 8x looser tolerance: the
    global error grows with the tolerance, so the end-value difference
    bounds the main run's error.  It is floored at the roundoff of u,
    _RTOL max(1, max |u|), which is the whole estimate when W = 0.  No
    run raises; one that stops short of r_end ends in "not_entire" or
    "step_underflow".

    For m = 2 the main run stops at the first upward zero of
    u' = u_mu' + W_0' ("not_entire"), because every entire solution with finite volume has
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
    mu = reference_mu(config)
    grid = _geometric_grid(_R0, config.r_end)
    w_start = np.asarray(config.initial_laplacians, dtype=float) - standard_laplacians(m, mu)
    on_family = not w_start.any()
    if on_family:
        # W = 0 solves the data exactly: its source E_mu expm1(0) is +0,
        # so the series and every stage of a run would give +0.0 too
        t, y, status, nfev = grid, np.zeros((2 * m + 1, grid.size)), 0, 0
    else:
        fun = _field(m, mu)
        at, r0 = _series(config, mu)
        below = grid[grid < r0]
        radii = np.append(below, r0)
        y = at(radii)
        y0 = y[:, -1]
        event = _m2_event(mu) if m == 2 else None
        # the m = 2 event on the series segment: Delta u(0) >= 0, or the
        # first radius with u' > 0, r0 included, ends the shot; its first
        # radius, the grid's or r0 when that is smaller, is always kept
        up = event(radii, y) > 0 if event else None
        if r0 == 0:
            # the series earns no radius, as where the source overflows float
            # range at r = 0: the shot ends there, as when the steps underflow
            t, y, status, nfev = radii[:0], y[:, :0], -1, 0
        elif event and (config.initial_laplacians[1] >= 0 or up.any()):
            keep = max(np.argmax(up), 1)
            t, y, status, nfev = radii[:keep], y[:, :keep], 1, 0
        else:
            sol = _integrate(fun, config, r0, y0, grid[grid >= r0], events=event)
            t, status, nfev = np.append(below, sol.t), sol.status, sol.nfev
            y = np.column_stack([y[:, :-1], sol.y])
    termination = _TERMINATION[status]

    full_t = np.concatenate([[0.0], t])
    full_y = np.column_stack([np.concatenate([w_start, np.zeros(m + 1)]), y])
    traj = RadialTrajectory(
        m=m,
        grid=full_t,
        mu=mu,
        W=full_y[:m],
        P=full_y[m : 2 * m],
        alpha=standard_volume(m, mu, full_t) + full_y[2 * m],
        termination=termination,
        nfev=nfev,
    )

    w0_err = math.nan
    if termination == "reached_end":
        # the roundoff floor, and the whole estimate when W = 0 is exact
        w0_err = _RTOL * max(1.0, float(np.max(np.abs(traj.w[0]))))
        if not on_family:
            coarse = _integrate(fun, config, r0, y0, np.array([config.r_end]), _COMPANION_FACTOR)
            if coarse.status == 0:
                w0_err = max(abs(float(coarse.y[0, -1]) - traj.W[0, -1]), w0_err)
            else:
                w0_err = math.nan
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
    """Tail diagnostics of one trajectory, the classifier's raw input.

    reference_mu and data_on_family say what was solved: the deviation
    from u_mu, and whether the data were u_mu's own in floats (W = 0)."""

    m: int
    termination: str
    r_reached: float
    alpha_final: float
    delta_limits: list[LimitEstimate]
    scalar_curvature_tail: tuple[np.ndarray, np.ndarray] | None
    rho1_tail: tuple[np.ndarray, np.ndarray] | None
    w0_error_estimate: float
    reference_mu: float = math.nan
    data_on_family: bool = False

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
            "reference_mu": self.reference_mu,
            "data_on_family": self.data_on_family,
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
        reference_mu=traj.mu,
        data_on_family=traj.on_family,
    )
