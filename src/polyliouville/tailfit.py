"""Window fits used for tail diagnostics of radial profiles.

Two fits cover everything the diagnostics need:

* :func:`tail_limit` estimates the limit of a quantity that settles like
  ``a + b / r**2`` by fitting that model over three nested windows of the
  tail and reporting the spread of the fitted constants as a confidence
  measure.  Quantities with a genuine finite limit (iterated Laplacians of
  the solutions handled here approach constants at exactly this rate) give
  window-stable values; anything still drifting shows up as a large spread.

* :func:`fit_even_polynomial` least-squares fits ``sum c_k r**(2k)`` with
  columns scaled to unit size at the largest radius, so the coefficient
  magnitudes are comparable and the normal equations stay well conditioned
  over wide radius ranges.  The inferred degree keeps only terms whose
  contribution at the outer edge clears the residual noise by a factor of
  ten; a profile that is really ``log r`` plus a constant infers degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LimitEstimate", "PolyFit1D", "tail_limit", "fit_even_polynomial", "min_samples"]


@dataclass(frozen=True)
class LimitEstimate:
    """Fitted limit of a tail, with a window-stability confidence."""

    value: float
    confidence: float  # max pairwise spread of the per-window constants
    n_samples: int


def _fit_const_plus_inverse_sq(r: np.ndarray, vals: np.ndarray) -> float:
    a = np.column_stack([np.ones_like(r), 1.0 / r**2])
    coef, *_ = np.linalg.lstsq(a, vals, rcond=None)
    return float(coef[0])


def tail_limit(r: np.ndarray, vals: np.ndarray) -> LimitEstimate:
    """Estimate lim vals(r) assuming a + b/r**2 decay over the tail.

    The samples should already be restricted to the tail window.  Three
    nested sub-windows (full tail, outer 2/3, outer 1/3 by index) each get
    their own fit; the widest window's constant is the value and the max
    pairwise difference of the three constants is the confidence.
    """
    r = np.asarray(r, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if r.shape != vals.shape or r.ndim != 1:
        raise ValueError("r and vals must be 1-d arrays of equal length")
    n = r.size
    if n < 12:
        raise ValueError("need at least 12 tail samples for a stable fit")
    if not np.all(np.isfinite(vals)):
        return LimitEstimate(np.nan, np.inf, n)
    starts = (0, n // 3, (2 * n) // 3)
    fits = tuple(_fit_const_plus_inverse_sq(r[s:], vals[s:]) for s in starts)
    spread = max(abs(a - b) for a in fits for b in fits)
    return LimitEstimate(fits[0], spread, n)


@dataclass(frozen=True)
class PolyFit1D:
    """Even polynomial fit sum over k of coeffs[k] * r**(2k)."""

    coeffs: np.ndarray  # length max_degree//2 + 1, ascending powers
    residual_rms: float
    inferred_degree: int
    r_max: float

    @property
    def leading_coefficient(self) -> float:
        return float(self.coeffs[self.inferred_degree // 2])


def min_samples(max_degree: int) -> int:
    """The fewest samples `fit_even_polynomial` accepts at max_degree: one
    per term r^0, r^2, .., r^max_degree, and two more."""
    return max_degree // 2 + 3


def fit_even_polynomial(
    samples: tuple[np.ndarray, np.ndarray],
    max_degree: int,
    contribution_floor: float = 0.0,
) -> PolyFit1D:
    """Least-squares fit of an even polynomial to the pair (r, values),
    with degree inference.

    ``max_degree`` must be even and every sample finite.  Columns are
    scaled by r_max**(2k) so the design matrix has unit-size columns.  A
    power 2k counts toward the inferred degree only when |c_k| *
    r_max**(2k) exceeds ten times the residual RMS, which filters out
    powers fitted to noise.

    ``contribution_floor`` additionally requires each counted power to
    exceed that absolute contribution at r_max.  When fitting u - v,
    `cli.analyze` passes 10x the largest finite value among a trajectory's
    w0 error estimate and the error bars of v, so that neither solver noise
    (which grows like the polyharmonic modes) nor v's quadrature error
    masquerades as genuine polynomial content.  Data that are polynomial by
    construction should keep the default 0.
    """
    if max_degree % 2 != 0 or max_degree < 0:
        raise ValueError("max_degree must be a non-negative even integer")
    r, vals = samples
    r = np.asarray(r, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if r.shape != vals.shape or r.ndim != 1:
        raise ValueError("r and vals must be 1-d arrays of equal length")
    # abs(nan) > cutoff is False: a NaN sample would pass as degree 0
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(vals))):
        raise ValueError("r and vals must be finite")
    nterm = max_degree // 2 + 1
    if r.size < min_samples(max_degree):
        raise ValueError("not enough samples for the requested degree")
    r_max = float(np.max(np.abs(r)))
    if r_max == 0.0:
        raise ValueError("all radii are zero")
    scaled = np.column_stack([(r / r_max) ** (2 * k) for k in range(nterm)])
    coef_scaled, *_ = np.linalg.lstsq(scaled, vals, rcond=None)
    resid = vals - scaled @ coef_scaled
    rms = float(np.sqrt(np.mean(resid**2)))
    coeffs = coef_scaled / r_max ** (2 * np.arange(nterm))
    degree = 0
    cutoff = max(10.0 * rms, contribution_floor)
    for k in range(nterm - 1, 0, -1):
        if abs(coef_scaled[k]) > cutoff:
            degree = 2 * k
            break
    return PolyFit1D(coeffs=coeffs, residual_rms=rms, inferred_degree=degree, r_max=r_max)
