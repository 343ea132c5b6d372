"""Integral representation v of a radial solution and its polynomial part.

For a solution u of (-Delta)^m u = (2m-1)! exp(2m u) on R^{2m} with finite
conformal volume, the representation

    v(x) = ((2m-1)!/gamma_m) * int log(|y|/|x-y|) exp(2m u(y)) dy

differs from u by a polynomial p = u - v of even degree at most 2m-2, and
v(0) = 0 by construction.  A trajectory is u = u_mu + W about the round
sphere u_mu with the same u(0) (see `shooter`), and v splits the same
way: v = v_mu + V.  v_mu = -log(1 + mu^2 r^2) is the closed form
(u_mu - v_mu = log 2 mu), Delta^j v_mu = Delta^j u_mu, and only V, the
same integral over the deviation density e^{2mu} - E_mu with
E_mu = exp(2m u_mu), needs quadrature.  The density is the shot's own
source, formed by `shooter.deviation_source` as the vector field forms
it: E_mu expm1(2m W_0), never e^{2mu} - E_mu, which would lose
eps/(2m|W_0|) relative, with the field's rule past the clamp of 2m u and
where E_mu underflows.  On data with W = 0 it is 0, so V and its bars
are exactly 0, and v is v_mu, taken as it is without forming a moment.
For radial u the 2m-dimensional integral reduces to a 1D
radial integral of the density g(s) against spherical averages of the
kernel,

    avg over |y| = s, |x| = r  of  log(s/|x-y|)        (for V), or
    avg of |x-y|^{-2j}                                  (for Delta^j V).

Both averages are terminating hypergeometric sums in t = (min/max)^2
(KernelCache), so they split into powers of r times powers of s on each
side of the kink at s = r.  With n = 2m, the prefix moments
P_p(r) = int_0^r g s^p ds, the suffix moments Q_p(r) = int_r^{r_end} g s^p ds
and the log moment L(r) = int_0^r g s^{n-1} log s ds give the integral at
every radius at once:

    Delta^j:  sum_k c_jk [ r^{-2j-2k} P_{n-1+2k}(r) + r^{2k} Q_{n-1-2j-2k}(r) ]
    log:      L(r) - log(r) P_{n-1}(r) + the j = 0 sum above.

Every exponent p is a nonnegative integer.  g and g log s are
interpolated quadratically on each panel of the trajectory grid through
its ends and midpoint and integrated exactly against s^p by binomial
moments (`greenball.panel_moment`; on the panel starting at s = 0 the log
is integrated exactly against the quadratic of g instead).  Midpoint
values of g come from W_0 interpolated by
`RadialTrajectory.sample_deviation` (cubic Hermite on W_0 and W_0').
The panel holding r is split at r, and both parts get their own
quadratic through fresh samples of g taken the same way, so the kink of
the kernel at s = r costs no accuracy.  Suffix moments are
accumulated from the far end: total minus prefix would cancel
catastrophically once multiplied by r^{2k}.  Radii at or beyond r_end
take P = total and Q = 0.  One pass over the grid serves every radius and
every order j, so the cost grows with panels + radii, not with their
product, and all m orders cost about one v.  Within a pass each power of
a panel array is taken once, into a table (`greenball.powers`) that every
p and both the plain and the log moments read; each moment is formed
once, whichever orders read it, and only on the side of the kink its sum
needs: P for the inner sums, the mass and the log moment, Q for the outer
sums.

Error bars are additive and conservative: a radial Richardson term (the
same scheme on the 2x-decimated grid, odd nodes acting as midpoints) plus
a closed-form bound on the truncated tail s > r_end.  There
|e^{2mu} - E_mu| <= e^{2mu} + E_mu: exp(2m u) <= C s^-q, with q fitted to
the log density 2m u on the trajectory tail and log C kept in logs, so
nothing overflows, and E_mu <= (2/mu)^{2m} s^{-4m}; the kernel bound
integrates against each in closed form (`_tail_bound`).  Whether a run
can be represented at all (`_refusal`) is judged on e^{2mu} itself, on
W = 0 data too.

There is no point-kernel API: the averages enter only through the moment
pass.  `KernelCache.average_many` evaluates them at given source radii for
the tests' quadrature oracle and the benchmark's kernel span.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exactconst import constant_table
from .greenball import RadialProfile, panel_moment, powers
from .shooter import _EXP_CAP, RadialTrajectory, deviation_source, standard_solution

__all__ = [
    "KernelCache",
    "compute_v",
    "compute_lap_v",
    "far_field_refusal",
    "rescale_check",
]


def _rising(a: int, k: int) -> int:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1)."""
    return math.prod(range(a, a + k))


def _kernel_coeff(m: int, j: int, k: int) -> float:
    if j == 0:
        if k == 0:
            return 0.0
        return _rising(1 - m, k) / (2 * _rising(m, k) * k)
    return _rising(j, k) * _rising(j + 1 - m, k) / (_rising(m, k) * math.factorial(k))


@dataclass
class KernelCache:
    """Closed-form spherical kernel averages for one m.

    With M = max(r, s) and t = (min(r, s)/M)^2, the averages over |y| = s
    at |x| = r are

        avg |x-y|^{-2j}   = M^{-2j} sum_k coeffs[j][k] t^k     (1 <= j <= m-1)
        avg log(s/|x-y|)  = log(s/M) + sum_k coeffs[0][k] t^k,

    coeffs[j][k] = (j)_k (j+1-m)_k / ((m)_k k!) and coeffs[0][k] =
    (1-m)_k / (2 (m)_k k) with coeffs[0][0] = 0, (a)_k the rising
    factorial; both sums stop at k = m-1-j.  For m = 1 the log average is
    Newton's log(s/max(r, s)).
    """

    m: int
    coeffs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        self.coeffs = tuple(
            tuple(_kernel_coeff(self.m, j, k) for k in range(self.m - j))
            for j in range(self.m)
        )

    def average_many(self, r: float, s: np.ndarray, j: int = 0) -> np.ndarray:
        """Vectorized averages over an array of source radii s.

        At s = 0 the log average is taken as 0: log(|y|/|x-y|) degenerates
        with the measure, and the s^{2m-1} weight kills that endpoint in
        every integral formed from it."""
        s = np.asarray(s, dtype=float)
        big = np.maximum(r, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.minimum(r, s) / big) ** 2
            acc = np.zeros_like(t)
            for c in reversed(self.coeffs[j]):
                acc = acc * t + c
            out = big ** (-2 * j) * acc
            if j == 0:
                out = np.where(s > 0, out + np.log(s / big), 0.0)
        return out


def _log_moment_from_zero(x, coef, p: int):
    """int_0^x (c0 + c1 s + c2 s^2) s^p log s ds, exact (0 for x = 0)."""
    out = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, c in enumerate(coef):
            q = p + k + 1
            out = out + c * x**q * (np.log(x) / q - 1.0 / q**2)
    return np.where(x > 0, out, 0.0)


def _quadratic(left, right, mid, f_left, f_right, f_mid):
    """Coefficients (f0, d1, d2) of f0 + d1 tau + d2 tau^2, tau = s - left,
    the quadratic through both panel ends and the midpoint.  A panel a few
    ulps wide, whose rounded midpoint falls on an end, gets the constant
    f_left instead of a division by zero."""
    h, tc = right - left, mid - left
    d2 = ((f_right - f_left) / h - (f_mid - f_left) / tc) / (h - tc)
    d1 = (f_mid - f_left) / tc - d2 * tc
    wide = (tc > 0) & (tc < h)
    return f_left, np.where(wide, d1, 0.0), np.where(wide, d2, 0.0)


def _scaled(c: float, r, e: int, moment):
    """c r^e moment, taken in logs where the plain product is not finite: at
    r below about 1e-308^(1/|e|) the power overflows while the prefix moment,
    of order r^(|e|+2) and more, has underflowed to 0."""
    out = c * r**e * moment
    bad = ~np.isfinite(out) & (r > 0)
    log_size = e * np.log(r[bad]) + np.log(np.abs(moment[bad]))
    out[bad] = c * np.sign(moment[bad]) * np.exp(log_size)
    return out


class _SeparableIntegral:
    """Prefix and suffix moments of the density g at fixed radii on one grid,
    and the kernel integrals built from them (see the module docstring)."""

    def __init__(self, nodes, mids, g_nodes, g_mids, radii, traj: RadialTrajectory):
        self.radii, self.n = radii, 2 * traj.m
        self.lo, self.h = nodes[:-1], np.diff(nodes)
        self.i = np.clip(np.searchsorted(nodes, radii, side="right") - 1, 0, self.h.size - 1)
        a, b = nodes[self.i], nodes[self.i + 1]
        r = np.clip(radii, a, b)
        g_r, g_lower, g_upper = np.split(
            _density_at(traj, np.concatenate([r, 0.5 * (a + r), 0.5 * (r + b)])), 3)
        self.a, self.r, self.x_lower, self.x_upper = a, r, r - a, b - r
        # quad: (whole panels, [a, r], [r, b]) for g and for g log s; the
        # g log s quadratic on [0, r], which overflows at tiny r, is never
        # read (`_log_moment_from_zero` integrates the log exactly there)
        self.tables, self.memo, self.quad = {}, {}, {}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for log in (False, True):
                def f(s, g):
                    return np.where(s > 0, g * np.log(s), 0.0) if log else g

                f_nodes, f_r = f(nodes, g_nodes), f(r, g_r)
                self.quad[log] = (
                    _quadratic(self.lo, nodes[1:], mids, f_nodes[:-1], f_nodes[1:],
                               f(mids, g_mids)),
                    _quadratic(a, r, 0.5 * (a + r), f_nodes[self.i], f_r,
                               f(0.5 * (a + r), g_lower)),
                    _quadratic(r, b, 0.5 * (r + b), f_r, f_nodes[self.i + 1],
                               f(0.5 * (r + b), g_upper)),
                )

    def _moment(self, left: str, width: str, coef, p: int):
        """panel_moment on the panels that start at self.<left> and are
        self.<width> wide, from power tables that every moment of the pass
        shares."""
        a_pow = powers(getattr(self, left), p, self.tables.setdefault(left, []))
        x_pow = powers(getattr(self, width), p + len(coef), self.tables.setdefault(width, []))
        return panel_moment(a_pow, x_pow, coef, p)

    def _split(self, p: int, side: str, log: bool = False):
        """The moment of g s^p (g s^p log s if log) below each radius if
        side is "P", above it if "Q".  Suffixes add up from the far end;
        radii at or past the last node clamp to P = total and Q = 0."""
        whole, lower, upper = self.quad[log]
        full = self._moment("lo", "h", whole, p)
        if log:
            g_whole, g_lower, _ = self.quad[False]
            full[0] = _log_moment_from_zero(self.h[0], [c[0] for c in g_whole], p)
        with np.errstate(invalid="ignore"):
            if side == "Q":
                part = np.where(self.x_upper > 0, self._moment("r", "x_upper", upper, p), 0.0)
                return np.concatenate([np.cumsum(full[::-1])[::-1], [0.0]])[self.i + 1] + part
            part = np.where(self.x_lower > 0, self._moment("a", "x_lower", lower, p), 0.0)
            if log:
                part = np.where(
                    self.a == 0, _log_moment_from_zero(self.x_lower, g_lower, p), part)
        return np.concatenate([[0.0], np.cumsum(full)])[self.i] + part

    def moment(self, *key):
        """`_split(*key)`, formed once per key (p, side[, log]) on this grid."""
        if key not in self.memo:
            self.memo[key] = self._split(*key)
        return self.memo[key]

    def integral(self, coeffs, j: int):
        """int_0^{r_end} g(s) s^{n-1} avg_kernel_j(r, s) ds at every radius."""
        n, radii = self.n, self.radii
        inner = np.zeros_like(radii)
        outer = np.zeros_like(radii)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, c in enumerate(coeffs[j]):
                if c == 0.0:
                    continue
                inner += _scaled(c, radii, -2 * j - 2 * k, self.moment(n - 1 + 2 * k, "P"))
                outer += c * radii ** (2 * k) * self.moment(n - 1 - 2 * j - 2 * k, "Q")
            if j == 0:
                inner += self.moment(n - 1, "P", True) - np.log(radii) * self.moment(n - 1, "P")
            # every s < r term carries a prefix moment that vanishes at r = 0
            inner = np.where(radii > 0, inner, 0.0)
        return inner + outer


def _density(traj: RadialTrajectory) -> np.ndarray:
    return deviation_source(traj.m, traj.mu, traj.grid, traj.W[0])


def _density_at(traj: RadialTrajectory, radii) -> np.ndarray:
    return deviation_source(traj.m, traj.mu, radii, traj.sample_deviation(0, radii))


def _tail_decay(traj: RadialTrajectory):
    """Fit exp(2mu) <= C s^-q on the tail window; returns (log C, q).

    The log density l = min(2m w_0, _EXP_CAP) is fitted against log s as
    it stands, never exponentiated, and log C = max(l + q log s).  A
    density that decays faster than any power gets a large finite q."""
    idx = traj.tail_indices()
    logs = np.log(traj.grid[idx])
    logg = np.minimum(2 * traj.m * traj.w[0][idx], _EXP_CAP)
    a = np.column_stack([np.ones_like(logs), logs])
    coef, *_ = np.linalg.lstsq(a, logg, rcond=None)
    q = -float(coef[1])
    return float(np.max(logg + q * logs)), q


def _refusal(traj: RadialTrajectory):
    """(why compute_v refuses traj or None, the tail decay fit (log C, q)).

    The run must reach r_end, its conformal volume must have converged (alpha
    changed by at most 1e-3, relative, over the tail window) and
    exp(2mu) must decay faster than s^-(2m+0.1) by a finite fit, or the
    truncated-tail bound would be meaningless.  A run that ended early is
    refused before the fit, which is then None."""
    if traj.termination != "reached_end":
        return (
            f"trajectory terminated with '{traj.termination}'; "
            "the representation integral needs a full run to r_end"
        ), None
    decay = _tail_decay(traj)
    q = decay[1]
    change = traj.alpha_tail_change()
    # written so that a fit that is not finite (a NaN q included) is refused
    if not (change <= 1e-3 and math.isfinite(decay[0]) and q > 2 * traj.m + 0.1):
        return (
            "insufficient decay for the truncated representation integral: "
            f"alpha changed by {change:.2e} over the tail window and "
            f"exp(2mu) ~ s^{-q:.2f} (need q > {2*traj.m}+0.1 and change <= 1e-3)"
        ), decay
    return None, decay


def far_field_refusal(traj: RadialTrajectory, w0_error_estimate: float) -> str | None:
    """Why traj cannot be judged in the far field, or None: compute_v's refusal,
    else r_end < 100, else a companion-run w0_error_estimate (NaN included) above
    1e-3 max(1, |u(r_end)|).  The one rule behind `cli.analyze`'s radii and `classify`."""
    refusal, bound = _refusal(traj)[0], 1e-3 * max(1.0, abs(float(traj.u[-1])))
    if refusal is None and traj.r_max < 100.0:
        refusal = f"the far field needs r_end >= 100, got r_end = {traj.r_max!r}"
    elif refusal is None and not w0_error_estimate <= bound:
        refusal = (f"w0_error_estimate = {w0_error_estimate:.3g} is above the far field's "
                   f"bound 1e-3 max(1, |u(r_end)|) = {bound:.3g}")
    else:
        return refusal
    return refusal + "; explicit radii are still evaluated"


def _tail_bound(traj, radii, log_c, q, j):
    """Bound on the dropped integral over s in (r_end, infinity), at each
    of the radii (1-D), in closed form.

    With R = r_end and x = min(r/R, 0.999), the kernel bounds
    -log(1 - r/s) <= (r/s)/(1-x) and (s-r)^(-2j) <= (1-x)^(-2j) s^(-2j)
    integrate against C s^(2m-1-q) over (R, infinity) to the terms below.
    `_refusal`'s q > 2m + 0.1 keeps both denominators positive; an
    overflow gives +inf."""
    m, log_r = traj.m, math.log(traj.r_max)
    x = np.minimum(radii / traj.r_max, 0.999)
    with np.errstate(over="ignore"):
        if j == 0:
            return x / (1 - x) * np.exp(log_c + (2 * m - q) * log_r) / (q - 2 * m + 1)
        tail = np.exp(log_c + (2 * m - 2 * j - q) * log_r) / (q + 2 * j - 2 * m)
        return (1 - x) ** (-2 * j) * tail


@functools.cache
def _prefactor(m: int, j: int) -> float:
    """The factor in front of the radial integral for Delta^j v, rounded once
    from its exact rational: 2 omega_{2m}/|S^{2m}| for j = 0 (the
    (2m-1)!/gamma_m of v times the sphere measure), and that times
    (-1)^j laplog_j for j >= 1.  Cached: each (m, j) is reduced once."""
    tab = constant_table(m)
    pref = 2 * tab.omega_n / tab.vol_sphere_2m
    if j:
        pref = pref * ((-1) ** j * tab.laplog_coeff[j - 1])
    return float(pref)


def _moment_pass(traj: RadialTrajectory, eval_radii):
    """order(j) -> Delta^j v (v at j = 0) at eval_radii, every order from one
    setup: the radii checks, `_refusal`'s decay fit, the deviation
    densities and the fine and decimated grids, which form each moment
    once for all orders, and the closed form of v_mu.

    v = v_mu + V with v_mu = -log(1 + mu^2 r^2), Delta^j v_mu = Delta^j u_mu,
    and V the representation integral of e^{2mu} - E_mu.  V's truncated
    tail is bounded by that of e^{2mu} (the fitted C s^-q) plus that of
    E_mu <= (2/mu)^(2m) s^(-4m).  When W and W' are 0 at every node, the
    density is 0 on every panel: after the radii checks and the refusal,
    order(j) is the closed form Delta^j v_mu with bars of 0.0 (v(0) is
    +0.0), and no density, grid or moment is formed."""
    radii = np.asarray(eval_radii, dtype=float)
    # NaN fails every comparison, so each test is written to pass only on good radii
    if radii.ndim != 1 or not (np.all(np.isfinite(radii)) and np.all(radii >= 0)
                               and np.all(np.diff(radii) > 0)):
        raise ValueError("eval_radii must be finite, >= 0 and strictly increasing")
    refusal, decay = _refusal(traj)
    if refusal is not None:
        raise ValueError(refusal)
    m, mu, grid, coeffs = traj.m, traj.mu, traj.grid, KernelCache(traj.m).coeffs
    family = [-np.log1p((mu * radii) ** 2), *standard_solution(m, mu, radii).w[1:]]
    if not (traj.W.any() or traj.P.any()):
        # the density, read from W_0 and P_0, is 0 on every panel: V and its
        # bars are 0, and + 0.0 makes v(0) = -log1p(0) come back as +0.0
        return lambda j: RadialProfile(grid=radii, values=family[j] + 0.0, m=m,
                                       err=np.zeros_like(radii))
    tails = [decay, (2 * m * math.log(2 / mu), 4.0 * m)]
    mids = 0.5 * (grid[:-1] + grid[1:])
    g_grid, g_mid = _density(traj), _density_at(traj, mids)
    fine = _SeparableIntegral(grid, mids, g_grid, g_mid, radii, traj)
    # decimated grid: odd nodes act as midpoints; an odd last panel is kept
    k = (grid.size - 1) // 2 * 2
    ends = np.r_[0 : k + 1 : 2, k + 1 : grid.size]
    coarse = _SeparableIntegral(
        grid[ends], np.append(grid[1:k:2], mids[k:]),
        g_grid[ends], np.append(g_grid[1:k:2], g_mid[k:]), radii, traj)

    def order(j: int) -> RadialProfile:
        pref, value = _prefactor(m, j), fine.integral(coeffs, j)
        err = np.abs(value - coarse.integral(coeffs, j))
        for log_c, q in tails:
            err = err + _tail_bound(traj, radii, log_c, q, j)
        prof = RadialProfile(grid=radii, values=family[j] + pref * value, m=m,
                             err=abs(pref) * err)
        # a NaN value or bar fails the test; Delta^j v also needs a small bar
        cap = 1e-5 * np.maximum(1.0, np.abs(prof.values)) if j else math.inf
        skip = np.isnan(prof.values) | ~(prof.err <= cap)
        prof.values[skip], prof.err[skip] = math.nan, math.inf
        return prof
    return order


def compute_v(traj: RadialTrajectory, eval_radii) -> RadialProfile:
    """Evaluate the representation integral at the requested radii.

    v = v_mu + V: all radii of V come from one pass over the prefix,
    suffix and log moments of e^{2mu} - E_mu (see the module docstring);
    v(0) = 0 exactly.  On data with W = 0, v is the closed form v_mu with
    bars of 0, returned without that pass.  The error bar adds the radial
    Richardson estimate and the truncated-tail bound.
    Radii past r_end use the moments of [0, r_end] and the same tail
    bound.  A NaN value or bar comes back as NaN with an infinite bar, as
    in compute_lap_v.  Refuses trajectories whose conformal volume has not
    converged, or whose tail decay fit is not finite (the tail bound would
    be meaningless)."""
    return _moment_pass(traj, eval_radii)(0)


def compute_lap_v(traj: RadialTrajectory, j: int, eval_radii) -> RadialProfile:
    """Delta^j v = Delta^j u_mu + Delta^j V at the requested radii, Delta^j V
    through the power kernel and the closed-form constant
    (-1)^j 2^{2j} (j-1)! (m-1)! / ((m-j-1)! |S^{2m}|).

    Same prefix/suffix moment pass and error bar as compute_v.  A radius
    whose bar exceeds 1e-5 max(1, |value|), or is NaN, is skipped: its
    value is NaN and its bar infinite."""
    if not 1 <= j <= traj.m - 1:
        raise ValueError("j must lie in 1..m-1")
    return _moment_pass(traj, eval_radii)(j)


def rescale_check(traj: RadialTrajectory, scale_r: float) -> float:
    """Max |v~(x) - v(scale_r * x)| over 12 geometric radii from 0.25 to
    min(20, r_max / (2 scale_r)), where v~ belongs to the rescaled solution
    u(scale_r x) + log scale_r.  Those radii increase only for scale_r in
    (0, 2 r_max), and any other scale_r is refused.

    The representation integral is exactly scale covariant (substituting
    y -> y/scale_r maps one integral onto the other with no additive
    constant), so the deviation measures pure quadrature error.
    """
    if not 0 < scale_r < 2 * traj.r_max:
        raise ValueError(f"scale_r must lie in (0, 2 r_max = {2 * traj.r_max!r}), got {scale_r!r}")
    eval_radii = np.geomspace(0.25, min(20.0, traj.r_max / (2 * scale_r)), 12)
    scaled_traj = traj.rescaled(scale_r)
    v_scaled = compute_v(scaled_traj, eval_radii)
    v_orig = compute_v(traj, scale_r * eval_radii)
    return float(np.max(np.abs(v_scaled.values - v_orig.values)))
