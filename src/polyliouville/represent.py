"""Integral representation v of a radial solution and its polynomial part.

For a solution u of (-Delta)^m u = (2m-1)! exp(2m u) on R^{2m} with finite
conformal volume, the representation

    v(x) = ((2m-1)!/gamma_m) * int log(|y|/|x-y|) exp(2m u(y)) dy

differs from u by a polynomial p = u - v of even degree at most 2m-2, and
v(0) = 0 by construction.  For radial u the 2m-dimensional integral reduces
to a 1D radial integral of g(s) = exp(2m u(s)) against spherical averages
of the kernel,

    avg over |y| = s, |x| = r  of  log(s/|x-y|)        (for v), or
    avg of |x-y|^{-2j}                                  (for Delta^j v).

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
values of g come from u interpolated by `RadialTrajectory.sample_w`
(cubic Hermite on u and u').
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
exp(2m u) <= C s^-q, with q fitted to the log density 2m u on the
trajectory tail and log C kept in logs, so nothing overflows; the kernel
bound integrates against C s^(2m-1-q) in closed form (`_tail_bound`).

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
from .shooter import _EXP_CAP, RadialTrajectory

__all__ = [
    "KernelCache",
    "compute_v",
    "compute_lap_v",
    "far_field_ready",
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
    the quadratic through both panel ends and the midpoint."""
    h, tc = right - left, mid - left
    d2 = ((f_right - f_left) / h - (f_mid - f_left) / tc) / (h - tc)
    d1 = (f_mid - f_left) / tc - d2 * tc
    return f_left, d1, d2


class _SeparableIntegral:
    """Prefix and suffix moments of g = exp(2mu) at fixed radii on one grid,
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
        # quad: (whole panels, [a, r], [r, b]) for g and for g log s
        self.tables, self.memo, self.quad = {}, {}, {}
        with np.errstate(divide="ignore", invalid="ignore"):
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
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, c in enumerate(coeffs[j]):
                if c == 0.0:
                    continue
                inner += c * radii ** (-2 * j - 2 * k) * self.moment(n - 1 + 2 * k, "P")
                outer += c * radii ** (2 * k) * self.moment(n - 1 - 2 * j - 2 * k, "Q")
            if j == 0:
                inner += self.moment(n - 1, "P", True) - np.log(radii) * self.moment(n - 1, "P")
            # every s < r term carries a prefix moment that vanishes at r = 0
            inner = np.where(radii > 0, inner, 0.0)
        return inner + outer


def _density(traj: RadialTrajectory) -> np.ndarray:
    return np.exp(np.minimum(2 * traj.m * traj.w[0], _EXP_CAP))


def _density_at(traj: RadialTrajectory, radii) -> np.ndarray:
    return np.exp(np.minimum(2 * traj.m * traj.sample_w(0, radii), _EXP_CAP))


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

    The run must reach r_end, its conformal volume must have converged and
    exp(2mu) must decay faster than s^-(2m+0.1), or the truncated-tail
    bound would be meaningless.  A run that ended early is refused before
    the fit, which is then None."""
    if traj.termination != "reached_end":
        return (
            f"trajectory terminated with '{traj.termination}'; "
            "the representation integral needs a full run to r_end"
        ), None
    decay = _tail_decay(traj)
    q = decay[1]
    if not traj.alpha_converged() or q <= 2 * traj.m + 0.1:
        return (
            "insufficient decay for the truncated representation integral: "
            f"alpha changed by {traj.alpha_tail_change():.2e} over the tail window and "
            f"exp(2mu) ~ s^{-q:.2f} (need q > {2*traj.m}+0.1 and change <= 1e-3)"
        ), decay
    return None, decay


def far_field_ready(traj: RadialTrajectory, w0_error_estimate: float) -> bool:
    """Whether traj can be judged in the far field: it reached r_end >= 100,
    compute_v accepts it, and the companion run's w0_error_estimate is at
    most 1e-3 max(1, |u(r_end)|), a NaN estimate failing.  The one rule
    behind `cli.analyze`'s default radii and `classify`'s gate."""
    return (traj.r_max >= 100.0
            and w0_error_estimate <= 1e-3 * max(1.0, abs(float(traj.u[-1])))
            and _refusal(traj)[0] is None)


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
    setup: the radii checks, `_refusal`'s decay fit, the densities and the
    fine and decimated grids, which form each moment once for all orders."""
    radii = np.asarray(eval_radii, dtype=float)
    # NaN fails every comparison, so each test is written to pass only on good radii
    if radii.ndim != 1 or not (np.all(np.isfinite(radii)) and np.all(radii >= 0)
                               and np.all(np.diff(radii) > 0)):
        raise ValueError("eval_radii must be finite, >= 0 and strictly increasing")
    refusal, decay = _refusal(traj)
    if refusal is not None:
        raise ValueError(refusal)
    m, grid, coeffs = traj.m, traj.grid, KernelCache(traj.m).coeffs
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
        err = np.abs(value - coarse.integral(coeffs, j)) + _tail_bound(traj, radii, *decay, j)
        prof = RadialProfile(grid=radii, values=pref * value, m=m, err=abs(pref) * err)
        if j:
            skip = ~(prof.err <= 1e-5 * np.maximum(1.0, np.abs(prof.values)))
            prof.values[skip], prof.err[skip] = math.nan, math.inf
        return prof
    return order


def compute_v(traj: RadialTrajectory, eval_radii) -> RadialProfile:
    """Evaluate the representation integral at the requested radii.

    All radii come from one pass over the prefix, suffix and log moments
    of exp(2mu) (see the module docstring); v(0) = 0 exactly.  The error
    bar adds the radial Richardson estimate and the truncated-tail bound.
    Radii past r_end use the moments of [0, r_end] and the same tail
    bound.  Refuses trajectories whose conformal volume has not converged
    (the tail bound would be meaningless)."""
    return _moment_pass(traj, eval_radii)(0)


def compute_lap_v(traj: RadialTrajectory, j: int, eval_radii) -> RadialProfile:
    """Delta^j v at the requested radii through the power kernel and the
    closed-form constant (-1)^j 2^{2j} (j-1)! (m-1)! / ((m-j-1)! |S^{2m}|).

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
