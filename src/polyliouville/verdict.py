"""Equivalence-criteria verdict on radial solutions.

A finite-volume radial solution of (-Delta)^m u = (2m-1)! exp(2m u) is
either one of the explicit spherical solutions u_lam (standard) or differs
from its integral representation v by a nonconstant polynomial of even
degree with negative leading coefficient (nonstandard).  Several tail
criteria detect the dichotomy independently:

    (ii)   lim Delta u        = 0            vs  a constant a < 0
    (iii)  (u + 2 alpha log r)/r^2 -> 0      vs  a negative limit
    (iv)   deg(u - v)         = 0            vs  even degree >= 2
    (v)    scalar curvature of e^{2u}|dx|^2 bounded below  vs  -> -inf
    (vi)   rho_1 = e^{2u}(1+r^2)^2/4 bounded away from 0   vs  -> 0

Criterion (iii) reads the growth of u + 2 alpha log r, alpha the
normalized volume, as [u(R) - u(R/2) + 2 alpha log 2] / (0.75 R^2) at
R = r_end, so the round sphere's own -2 log r / r^2 does not count.
classify evaluates all five on one trajectory and reports per-criterion
verdicts plus their mutual agreement.  Finite-radius data cannot certify a
limit, so each criterion may also return "inconclusive"; thresholds sit
orders of magnitude away from both the standard-solution residuals and the
nonstandard divergence rates seen at r_end = 1e3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tailfit
from .represent import far_field_refusal
from .shooter import RadialTrajectory, SolveReport, json_safe

__all__ = [
    "ClassificationReport",
    "classify",
    "json_safe",
    "EPS_STD",
    "EPS_GROWTH",
    "R_BIG",
]

EPS_STD = 1e-3      # tolerance on limits that must vanish for standard u
EPS_GROWTH = 1e-4   # tolerance on the r^2 growth rate of u + 2 alpha log r
R_BIG = 1e4         # curvature below -R_BIG counts as unbounded
_RHO1_STD = 0.5     # rho_1 above half its tail max counts as bounded away from 0
_RHO1_DECAYED = 1e-3


@dataclass(frozen=True)
class ClassificationReport:
    """Per-criterion (statistic, verdict) pairs and their aggregation.

    criteria maps "ii" .. "vi", in that order, to (statistic, verdict).
    Verdicts are "standard", "nonstandard", or "inconclusive".  agreement
    is true when every decided verdict names the same class (vacuously true
    if nothing is decided).  deltaa_estimate is the pair (j, a) for the
    largest j with a nonvanishing limit of Delta^j u, present only on
    nonstandard reports; the limit a is negative there.  reference_mu is
    the family member u_mu the shot deviated from, and data_on_family is
    true when the data were u_mu's own in floats (every W_j(0) = 0), so
    that the shot solved u_mu itself: from m = 4 on, a "standard" verdict
    on the lam = 1 float data then judges the data snapped to the family.
    """

    m: int
    criteria: dict[str, tuple[float, str]]
    overall: str
    agreement: bool
    deltaa_estimate: tuple[int, float] | None
    reference_mu: float = math.nan
    data_on_family: bool = False

    def to_json_dict(self) -> dict:
        crits = [
            {
                "name": name,
                "statistic": float(stat),
                "threshold": _TABLE[name][0],
                "verdict": verdict,
            }
            for name, (stat, verdict) in self.criteria.items()
        ]
        dd = None
        if self.deltaa_estimate is not None:
            dd = {"j": self.deltaa_estimate[0], "a": self.deltaa_estimate[1]}
        return json_safe({
            "m": self.m,
            "criteria": crits,
            "overall": self.overall,
            "agreement": self.agreement,
            "deltaa_estimate": dd,
            "reference_mu": self.reference_mu,
            "data_on_family": self.data_on_family,
        })


def _stat_ii(traj, report, fit):
    if not report.delta_limits:
        # m = 1 has no Laplacian iterate to test; other criteria decide
        return math.nan, False
    est = report.delta_limits[0]
    # a NaN confidence is judged, as only a spread above EPS_STD refuses
    return est.value, math.isfinite(est.value) and not est.confidence > EPS_STD


def _stat_iii(traj, report, fit):
    # u = c - 2 alpha log r + P(r) + o(1), P = 0 on standard runs: the
    # difference of R/2 and R cancels c and -2 alpha log r, and reads the
    # r^2 coefficient of P when P has degree 2
    r_end = traj.r_max
    u_half = float(traj.sample_w(0, [r_end / 2])[0])
    rise = float(traj.u[-1]) - u_half + 2 * traj.alpha_final * math.log(2)
    stat = rise / (0.75 * r_end**2)
    return stat, math.isfinite(stat)


def _stat_iv(traj, report, fit):
    if fit is None:
        return math.nan, False
    deg = fit.inferred_degree
    return float(deg), deg == 0 or fit.leading_coefficient < 0


def _stat_v(traj, report, fit):
    rg = report.scalar_curvature_tail[1]
    rg = rg[rg < np.inf]  # drops NaN and +inf, keeps -inf
    if rg.size == 0:
        return math.nan, False
    return float(np.min(rg)), True


def _stat_vi(traj, report, fit):
    rho = report.rho1_tail[1]
    rho = rho[np.isfinite(rho)]
    if rho.size == 0:
        return math.nan, False
    peak = np.max(rho)
    # a peak of 0: rho_1 underflowed across the whole tail window
    return (float(rho[-1] / peak) if peak != 0.0 else 0.0), True


# The criteria in report order: name -> (threshold written to JSON,
# statistic (traj, report, fit) -> (stat, judged), standard test,
# nonstandard test).  `_decide` applies the one rule to every row.
_TABLE = {
    "ii": (EPS_STD, _stat_ii, lambda s: abs(s) < EPS_STD, lambda s: s < -EPS_STD),
    "iii": (EPS_GROWTH, _stat_iii, lambda s: abs(s) < EPS_GROWTH, lambda s: s < -EPS_GROWTH),
    "iv": (0.0, _stat_iv, lambda deg: deg == 0, lambda deg: deg >= 2),
    "v": (-R_BIG, _stat_v, lambda s: s > -R_BIG, lambda s: s <= -R_BIG),
    "vi": (_RHO1_STD, _stat_vi, lambda s: s >= _RHO1_STD, lambda s: s < _RHO1_DECAYED),
}


def _decide(row, traj, report, fit) -> tuple[float, str]:
    """(statistic, verdict) of one _TABLE row: "standard" if the row is
    judged and passes its standard test, else "nonstandard" if judged and
    passing its nonstandard test, else "inconclusive"."""
    _, statistic, standard, nonstandard = row
    stat, judged = statistic(traj, report, fit)
    if judged and standard(stat):
        return stat, "standard"
    if judged and nonstandard(stat):
        return stat, "nonstandard"
    return stat, "inconclusive"


def classify(
    traj: RadialTrajectory,
    report: SolveReport,
    fit: tailfit.PolyFit1D | None,
) -> ClassificationReport:
    """Evaluate criteria (ii)-(vi) on one trajectory.

    traj and report must come from the same run; fit is the even-polynomial
    fit of u - v samples (representation module), or None when no v samples
    were taken, which leaves criterion (iv) inconclusive.  A run that
    `represent.far_field_refusal` refuses yields all-inconclusive verdicts
    with vacuous agreement rather than guesses.
    Criteria (v) and (vi) read the tail arrays that `diagnose` stored in
    report; every run judged here reached r_end >= 100 on the 1.01-ratio
    grid, so its tail window holds more than the 12 samples diagnose needs
    to fill them.
    """
    if report.m != traj.m:
        raise ValueError(f"report is for m={report.m}, trajectory for m={traj.m}")
    if report.termination != traj.termination or not math.isclose(
        report.r_reached, traj.r_max, rel_tol=1e-12
    ):
        raise ValueError("report does not describe this trajectory")
    if fit is not None and fit.r_max > traj.r_max * (1 + 1e-12):
        raise ValueError("fit uses samples beyond the trajectory range")

    if far_field_refusal(traj, report.w0_error_estimate) is not None:
        criteria = dict.fromkeys(_TABLE, (math.nan, "inconclusive"))
    else:
        criteria = {name: _decide(row, traj, report, fit) for name, row in _TABLE.items()}
    decided = [v for _, v in criteria.values() if v != "inconclusive"]
    agreement = len(set(decided)) <= 1
    overall = decided[0] if decided and agreement else "inconclusive"

    deltaa = None
    if overall == "nonstandard":
        for j in range(len(report.delta_limits), 0, -1):
            est = report.delta_limits[j - 1]
            if math.isfinite(est.value) and abs(est.value) > EPS_STD:
                deltaa = (j, est.value)
                break

    return ClassificationReport(
        m=traj.m,
        criteria=criteria,
        overall=overall,
        agreement=agreement,
        deltaa_estimate=deltaa,
        reference_mu=traj.mu,
        data_on_family=traj.on_family,
    )
