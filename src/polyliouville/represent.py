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
moments (on the panel starting at s = 0 the log is integrated exactly
against the quadratic of g instead).  Midpoint values of g come from u
interpolated by `RadialTrajectory.sample_w` (cubic Hermite on u and u').
The panel holding r is split at r, and both parts get their own
quadratic through fresh samples of g taken the same way, so the kink of
the kernel at s = r costs no accuracy.  Suffix moments are
accumulated from the far end: total minus prefix would cancel
catastrophically once multiplied by r^{2k}.  Radii at or beyond r_end
take P = total and Q = 0.  One pass over the grid serves every radius, so
the cost grows with panels + radii, not with their product.

Error bars are additive and conservative: a radial Richardson term (the
same scheme on the 2x-decimated grid, odd nodes acting as midpoints) plus
an explicit bound on the truncated tail s > r_end, where
exp(2m u) <= C s^-q with q fitted on the trajectory tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exactconst import constant_table
from .greenball import RadialProfile
from .shooter import RadialTrajectory

__all__ = [
    "KernelCache",
    "kernel_avg",
    "compute_v",
    "compute_lap_v",
    "rescale_check",
]

_EXP_CAP = 700.0


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

    def average(self, r: float, s: float, j: int = 0) -> float:
        """Spherical average of log(s/|x-y|) (j = 0) or |x-y|^{-2j} over
        |y| = s at |x| = r."""
        if j < 0 or j > self.m - 1:
            raise ValueError("j must lie in 0..m-1 (kernel integrable)")
        if r < 0 or s < 0:
            raise ValueError("radii must be non-negative")
        if s == 0.0 and r == 0.0 and j >= 1:
            raise ValueError("kernel undefined at r = s = 0 for j >= 1")
        return float(self.average_many(r, np.array([s]), j)[0])

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


@functools.cache
def _get_cache(m: int) -> KernelCache:
    return KernelCache(m)


def kernel_avg(r: float, s: float, m: int, j: int = 0) -> float:
    """Module-level convenience over a shared per-m cache."""
    return _get_cache(m).average(r, s, j)


def _moment(a, x, coef, p: int):
    """int_a^{a+x} (c0 + c1 tau + c2 tau^2) s^p ds, tau = s - a, elementwise.

    s^p is expanded binomially about a, so every moment is a sum of
    nonnegative terms and the weight's high-order vanishing at 0 costs no
    accuracy."""
    out = 0.0
    for i in range(p + 1):
        w = math.comb(p, i) * a ** (p - i)
        for k, c in enumerate(coef):
            out = out + c * w * x ** (i + k + 1) / (i + k + 1)
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
        # (whole panels, [a, r], [r, b]) for g and for g log s
        self.quad = {}
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

    def _split(self, p: int, log: bool = False):
        """(P, Q): moments of g s^p (g s^p log s if log) below and above each
        radius.  Suffixes add up from the far end; radii at or past the last
        node clamp to P = total and Q = 0."""
        whole, lower, upper = self.quad[log]
        full = _moment(self.lo, self.h, whole, p)
        with np.errstate(invalid="ignore"):
            part_lower = np.where(self.x_lower > 0, _moment(self.a, self.x_lower, lower, p), 0.0)
            part_upper = np.where(self.x_upper > 0, _moment(self.r, self.x_upper, upper, p), 0.0)
            if log:
                g_whole, g_lower, _ = self.quad[False]
                full[0] = _log_moment_from_zero(self.h[0], [c[0] for c in g_whole], p)
                part_lower = np.where(
                    self.a == 0, _log_moment_from_zero(self.x_lower, g_lower, p), part_lower)
        below = np.concatenate([[0.0], np.cumsum(full)])
        above = np.concatenate([np.cumsum(full[::-1])[::-1], [0.0]])
        return below[self.i] + part_lower, above[self.i + 1] + part_upper

    def integral(self, coeffs, j: int):
        """int_0^{r_end} g(s) s^{n-1} avg_kernel_j(r, s) ds at every radius."""
        n, radii = self.n, self.radii
        inner = np.zeros_like(radii)
        outer = np.zeros_like(radii)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, c in enumerate(coeffs[j]):
                if c == 0.0:
                    continue
                inner += c * radii ** (-2 * j - 2 * k) * self._split(n - 1 + 2 * k)[0]
                outer += c * radii ** (2 * k) * self._split(n - 1 - 2 * j - 2 * k)[1]
            if j == 0:
                mass = self._split(n - 1)[0]
                inner += self._split(n - 1, log=True)[0] - np.log(radii) * mass
            # every s < r term carries a prefix moment that vanishes at r = 0
            inner = np.where(radii > 0, inner, 0.0)
        return inner + outer


def _density(traj: RadialTrajectory) -> np.ndarray:
    return np.exp(np.minimum(2 * traj.m * traj.w[0], _EXP_CAP))


def _density_at(traj: RadialTrajectory, radii) -> np.ndarray:
    return np.exp(np.minimum(2 * traj.m * traj.sample_w(0, radii), _EXP_CAP))


def _tail_decay(traj: RadialTrajectory):
    """Fit exp(2mu) <= C s^-q on the tail; returns (C, q).

    Densities that underflow on the tail (u dropping like -c r^2, say)
    decay faster than any power: reported as q = inf with zero residual
    tail."""
    idx = traj.tail_indices()
    s = traj.grid[idx]
    g = _density(traj)[idx]
    if g[-1] < 1e-250:
        return float(np.max(g)), math.inf
    logs, logg = np.log(s), np.log(np.maximum(g, 1e-300))
    a = np.column_stack([np.ones_like(logs), logs])
    coef, *_ = np.linalg.lstsq(a, logg, rcond=None)
    q = -float(coef[1])
    c = float(np.max(g * s**q))
    return c, q


def _check_alpha_converged(traj: RadialTrajectory) -> None:
    if traj.termination != "reached_end":
        raise ValueError(
            f"trajectory terminated with '{traj.termination}'; "
            "the representation integral needs a full run to r_end"
        )
    idx = traj.tail_indices()
    a_end = traj.alpha_final
    rel = (a_end - traj.alpha[idx[0]]) / max(a_end, 1e-300)
    c, q = _tail_decay(traj)
    if rel > 1e-3 or q <= 2 * traj.m + 0.1:
        raise ValueError(
            "insufficient decay for the truncated representation integral: "
            f"alpha changed by {rel:.2e} over the tail window and "
            f"exp(2mu) ~ s^-{q:.2f} (need q > {2*traj.m}+0.1 and change <= 1e-3)"
        )


def _tail_bound(traj, r, c, q, j):
    """Bound on the dropped integral over s in (r_end, infinity)."""
    if math.isinf(q):
        return 0.0
    m = traj.m
    r_end = traj.r_max
    s = r_end * np.geomspace(1.0, 1e3, 200)
    r_eff = min(r, 0.999 * float(s[0]))
    if j == 0:
        kb = -np.log1p(-r_eff / s)  # |avg log(s/|x-y|)| <= -log(1 - r/s)
    else:
        kb = (s - r_eff) ** (-2 * j)
    integrand = s ** (2 * m - 1) * c * s ** (-q) * kb
    return float(np.trapezoid(integrand, s))


def _profile(traj, j, eval_radii, max_err=None):
    radii = np.asarray(eval_radii, dtype=float)
    if radii.ndim != 1 or np.any(np.diff(radii) <= 0):
        raise ValueError("eval_radii must be strictly increasing")
    m = traj.m
    tab = constant_table(m)
    if j == 0:
        pref = math.factorial(2 * m - 1) / float(tab.gamma_m) * float(tab.omega_n)
    else:
        sign = -1 if j % 2 else 1
        const = (
            sign
            * 2 ** (2 * j)
            * math.factorial(j - 1)
            * math.factorial(m - 1)
            / math.factorial(m - j - 1)
            / float(tab.vol_sphere_2m)
        )
        pref = const * float(tab.omega_n)
    coeffs = _get_cache(m).coeffs
    grid = traj.grid
    mids = 0.5 * (grid[:-1] + grid[1:])
    g_grid, g_mid = _density(traj), _density_at(traj, mids)
    fine = _SeparableIntegral(grid, mids, g_grid, g_mid, radii, traj)
    # decimated grid: odd nodes act as midpoints; an odd last panel is kept
    k = (grid.size - 1) // 2 * 2
    ends = np.r_[0 : k + 1 : 2, k + 1 : grid.size]
    coarse = _SeparableIntegral(
        grid[ends], np.append(grid[1:k:2], mids[k:]),
        g_grid[ends], np.append(g_grid[1:k:2], g_mid[k:]), radii, traj,
    )
    value = fine.integral(coeffs, j)
    radial_est = np.abs(value - coarse.integral(coeffs, j))
    c_tail, q_tail = _tail_decay(traj)
    tail = np.array([_tail_bound(traj, r, c_tail, q_tail, j) for r in radii])
    vals = pref * value
    errs = abs(pref) * (radial_est + tail)
    if max_err is not None:
        skip = errs > max_err
        vals[skip] = math.nan
        errs[skip] = math.inf
    return RadialProfile(grid=radii, values=vals, m=m, err=errs)


def compute_v(traj: RadialTrajectory, eval_radii) -> RadialProfile:
    """Evaluate the representation integral at the requested radii.

    All radii come from one pass over the prefix, suffix and log moments
    of exp(2mu) (see the module docstring); v(0) = 0 exactly.  The error
    bar adds the radial Richardson estimate and the truncated-tail bound.
    Radii past r_end use the moments of [0, r_end] and the same tail
    bound.  Refuses trajectories whose conformal volume has not converged
    (the tail bound would be meaningless)."""
    _check_alpha_converged(traj)
    return _profile(traj, 0, eval_radii)


def compute_lap_v(
    traj: RadialTrajectory,
    j: int,
    eval_radii,
    max_err: float = 1e-5,
) -> RadialProfile:
    """Delta^j v at the requested radii through the power kernel and the
    closed-form constant (-1)^j 2^{2j} (j-1)! (m-1)! / ((m-j-1)! |S^{2m}|).

    Same prefix/suffix moment pass and error bar as compute_v.  Radii whose
    error bar exceeds max_err are skipped: their value is NaN and their
    error bar infinite."""
    if not 1 <= j <= traj.m - 1:
        raise ValueError("j must lie in 1..m-1")
    _check_alpha_converged(traj)
    return _profile(traj, j, eval_radii, max_err=max_err)


def rescale_check(traj: RadialTrajectory, scale_r: float, eval_radii=None) -> float:
    """Max |v~(x) - v(scale_r * x)| over a test grid, where v~ belongs to
    the rescaled solution u(scale_r x) + log scale_r.

    The representation integral is exactly scale covariant (substituting
    y -> y/scale_r maps one integral onto the other with no additive
    constant), so the deviation measures pure quadrature error.
    """
    if scale_r <= 0:
        raise ValueError("scale_r must be positive")
    if eval_radii is None:
        top = min(20.0, traj.r_max / (2 * scale_r))
        eval_radii = np.geomspace(0.25, top, 12)
    eval_radii = np.asarray(eval_radii, dtype=float)
    scaled_traj = traj.rescaled(scale_r)
    v_scaled = compute_v(scaled_traj, eval_radii)
    v_orig = compute_v(traj, scale_r * eval_radii)
    return float(np.max(np.abs(v_scaled.values - v_orig.values)))
