"""Equivalence-criteria verdict on radial solutions.

A finite-volume radial solution of (-Delta)^m u = (2m-1)! exp(2m u) is
either one of the explicit spherical solutions u_lam (standard) or differs
from its integral representation v by a nonconstant polynomial of even
degree with negative leading coefficient (nonstandard).  Several tail
criteria detect the dichotomy independently:

    (ii)   lim Delta u        = 0            vs  a constant a < 0
    (iii)  u(r)/r^2           -> 0           vs  a negative limit
    (iv)   deg(u - v)         = 0            vs  even degree >= 2
    (v)    scalar curvature of e^{2u}|dx|^2 bounded below  vs  -> -inf
    (vi)   rho_1 = e^{2u}(1+r^2)^2/4 bounded away from 0   vs  -> 0

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
from .represent import far_field_ready
from .shooter import RadialTrajectory, SolveReport

__all__ = [
    "ClassificationReport",
    "classify",
    "json_safe",
    "EPS_STD",
    "EPS_GROWTH",
    "R_BIG",
]

EPS_STD = 1e-3      # tolerance on limits that must vanish for standard u
EPS_GROWTH = 1e-4   # tolerance on u(r_end)/r_end^2
R_BIG = 1e4         # curvature below -R_BIG counts as unbounded
_RHO1_STD = 0.5     # rho_1 above half its tail max counts as bounded away from 0
_RHO1_DECAYED = 1e-3


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


@dataclass(frozen=True)
class ClassificationReport:
    """Per-criterion (statistic, verdict) pairs and their aggregation.

    criteria maps "ii" .. "vi", in that order, to (statistic, verdict).
    Verdicts are "standard", "nonstandard", or "inconclusive".  agreement
    is true when every decided verdict names the same class (vacuously true
    if nothing is decided).  deltaa_estimate is the pair (j, a) for the
    largest j with a nonvanishing limit of Delta^j u, present only on
    nonstandard reports; the limit a is negative there.
    """

    m: int
    criteria: dict[str, tuple[float, str]]
    overall: str
    agreement: bool
    deltaa_estimate: tuple[int, float] | None

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
        })


def _crit_ii(traj, report, fit) -> tuple[float, str]:
    if not report.delta_limits:
        # m = 1 has no Laplacian iterate to test; other criteria decide
        return (math.nan, "inconclusive")
    est = report.delta_limits[0]
    stat = est.value
    if not math.isfinite(stat) or est.confidence > EPS_STD:
        return (stat, "inconclusive")
    if abs(stat) < EPS_STD:
        return (stat, "standard")
    if stat < -EPS_STD:
        return (stat, "nonstandard")
    return (stat, "inconclusive")


def _crit_iii(traj, report, fit) -> tuple[float, str]:
    stat = float(traj.w[0][-1] / traj.r_max**2)
    if not math.isfinite(stat):
        return (stat, "inconclusive")
    if abs(stat) < EPS_GROWTH:
        return (stat, "standard")
    if stat < -EPS_GROWTH:
        return (stat, "nonstandard")
    return (stat, "inconclusive")


def _crit_iv(traj, report, fit) -> tuple[float, str]:
    if fit is None:
        return (math.nan, "inconclusive")
    deg = fit.inferred_degree
    if deg == 0:
        return (float(deg), "standard")
    if deg >= 2 and fit.leading_coefficient < 0:
        return (float(deg), "nonstandard")
    return (float(deg), "inconclusive")


def _crit_v(traj, report, fit) -> tuple[float, str]:
    rg = report.scalar_curvature_tail[1]
    rg = rg[np.isfinite(rg) | (rg == -np.inf)]
    if rg.size == 0:
        return (math.nan, "inconclusive")
    stat = float(np.min(rg))
    if math.isnan(stat):
        return (stat, "inconclusive")
    return (stat, "standard" if stat > -R_BIG else "nonstandard")


def _crit_vi(traj, report, fit) -> tuple[float, str]:
    rho = report.rho1_tail[1]
    rho = rho[np.isfinite(rho)]
    if rho.size == 0:
        return (math.nan, "inconclusive")
    if np.max(rho) == 0.0:
        # rho_1 underflowed across the whole tail window: decayed to 0
        return (0.0, "nonstandard")
    stat = float(rho[-1] / np.max(rho))
    if stat >= _RHO1_STD:
        return (stat, "standard")
    if stat < _RHO1_DECAYED:
        return (stat, "nonstandard")
    return (stat, "inconclusive")


# The criteria in report order: name -> (threshold written to JSON, test on
# the run's trajectory, report and u - v fit).
_TABLE = {
    "ii": (EPS_STD, _crit_ii),
    "iii": (EPS_GROWTH, _crit_iii),
    "iv": (0.0, _crit_iv),
    "v": (-R_BIG, _crit_v),
    "vi": (_RHO1_STD, _crit_vi),
}


def classify(
    traj: RadialTrajectory,
    report: SolveReport,
    fit: tailfit.PolyFit1D | None,
) -> ClassificationReport:
    """Evaluate criteria (ii)-(vi) on one trajectory.

    traj and report must come from the same run; fit is the even-polynomial
    fit of u - v samples (representation module), or None when no v samples
    were taken, which leaves criterion (iv) inconclusive.  A run that
    `far_field_ready` rejects (truncated, r_end < 100, unconverged
    conformal volume, too slow a decay of exp(2mu), or a companion-run
    estimate of the end error of u that is NaN or above 1e-3 max(1,
    |u(r_end)|)) yields all-inconclusive verdicts with vacuous agreement
    rather than guesses.
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

    if not far_field_ready(traj, report.w0_error_estimate):
        criteria = dict.fromkeys(_TABLE, (math.nan, "inconclusive"))
    else:
        criteria = {name: test(traj, report, fit) for name, (_, test) in _TABLE.items()}
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
    )
