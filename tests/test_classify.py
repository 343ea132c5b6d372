"""Five-criteria classification of radial solutions.

The standard m=2 run must pass every criterion as standard, the u''(0) = -3
run as nonstandard, and anything truncated must come back inconclusive
instead of guessed.
"""

import dataclasses
import json
import math
import runpy
import types
from pathlib import Path

import numpy as np
import pytest

from polyliouville import shooter, verdict
from polyliouville.verdict import (EPS_GROWTH, EPS_STD, R_BIG, ClassificationReport,
                                   classify)
from polyliouville.cli import _write_json, analyze
from polyliouville.represent import far_field_refusal
from polyliouville.shooter import ShootingConfig, diagnose, shoot, standard_config
from polyliouville.tailfit import LimitEstimate, fit_even_polynomial


@pytest.fixture(scope="module")
def std2_report():
    a = analyze(standard_config(2))
    return a.traj, a.report, a.verdict


@pytest.fixture(scope="module")
def nonstd2_report():
    a = analyze(ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0)))
    return a.traj, a.report, a.verdict


def test_standard_run_passes_every_criterion(std2_report):
    _, _, report = std2_report
    for name, (stat, verdict) in report.criteria.items():
        assert verdict == "standard", name
    assert report.overall == "standard"
    assert report.agreement
    assert report.deltaa_estimate is None


def test_standard_statistics_are_small(std2_report):
    _, _, report = std2_report
    assert abs(report.criteria["ii"][0]) < 1e-3
    assert abs(report.criteria["iii"][0]) < 1e-4
    assert report.criteria["iv"][0] == 0
    assert report.criteria["v"][0] > 11.9
    assert report.criteria["vi"][0] > 0.5


def test_nonstandard_run_fails_every_criterion(nonstd2_report):
    _, rep, report = nonstd2_report
    for name, (stat, verdict) in report.criteria.items():
        assert verdict == "nonstandard", name
    assert report.overall == "nonstandard"
    assert report.agreement
    j, value = report.deltaa_estimate
    assert j == 1
    assert value == pytest.approx(rep.delta_limits[0].value, rel=1e-12)
    assert value < 0


def test_truncated_run_is_inconclusive():
    traj, rep = shoot(standard_config(2, r_end=5.0))
    fit = fit_even_polynomial((np.linspace(1.0, 2.5, 8), np.zeros(8)), 2)
    report = classify(traj, rep, fit)
    for name, (stat, verdict) in report.criteria.items():
        assert verdict == "inconclusive", name
    assert report.overall == "inconclusive"
    assert report.agreement  # vacuously: nothing decided
    assert report.deltaa_estimate is None


_STANDARD_RUNS = [(m, r_end, 1.0) for m in range(1, 9) for r_end in (100.0, 1000.0)]


@pytest.mark.parametrize("m, r_end, lam", [
    *_STANDARD_RUNS,
    # lambda = 20 puts r_end 500 far out in the far field, which must never
    # read as "nonstandard"
    (3, 500.0, 20.0),
], ids=[f"{m}-{r_end}" for m, r_end, _ in _STANDARD_RUNS] + ["3-500.0-lam20"])
def test_standard_family_never_called_nonstandard(m, r_end, lam):
    # the family's float data give W = 0 at every m: u is the closed form at
    # every node, with no step and no companion run, and reads "standard"
    cfg = standard_config(m, lam, r_end=r_end)
    assert analyze(cfg).verdict.overall != "nonstandard"


@pytest.mark.parametrize("r_end", [100.0, 300.0, 500.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_round_sphere_is_standard_at_short_range(m, r_end):
    # criterion (iii) differences out the sphere's own -2 log r, which
    # alone reads -8.5e-4 as u(r)/r^2 at r = 100
    report = analyze(standard_config(m, r_end=r_end)).verdict
    assert abs(report.criteria["iii"][0]) < 1e-6
    # m = 1 has no Delta u, so row (ii) leaves the verdict to the others
    assert report.criteria["ii"][1] == ("inconclusive" if m == 1 else "standard")
    assert report.overall == "standard"
    assert report.agreement


@pytest.mark.parametrize("lam", [0.05, 20.0])
@pytest.mark.parametrize("m", [2, 3])
def test_round_sphere_off_lambda_1_has_no_nonstandard_row(m, lam):
    # standard_laplacians(m, 0.05) sit a few ulps off the family of
    # mu = e^{A_0}/2 = 0.05000000000000001, so W starts at a few ulps and
    # grows with the free modes; those of lam = 20 are u_20's own
    a = analyze(standard_config(m, lam))
    assert a.verdict.data_on_family == (lam == 20.0)
    assert all(row != "nonstandard" for _, row in a.verdict.criteria.values())


@pytest.mark.parametrize("d2", [-2.2, -3.0, -2.0001])
def test_growth_row_never_calls_a_nonstandard_run_standard(d2):
    cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), d2))
    assert analyze(cfg).verdict.criteria["iii"][1] != "standard"


def test_error_gate_is_relative_to_u():
    # an estimate of 0.04 is large in absolute terms but tiny against
    # |u(500)| ~ 1.4e10, so this nonstandard run is still judged
    a = analyze(ShootingConfig(m=3, initial_derivatives=(math.log(2.0), -2.2, 4.0),
                               r_end=500.0))
    assert a.report.w0_error_estimate > 1e-2
    assert a.verdict.overall == "nonstandard"
    assert a.verdict.agreement


def test_nan_error_estimate_is_refused(std2):
    traj, rep = std2
    assert far_field_refusal(traj, rep.w0_error_estimate) is None
    blind = dataclasses.replace(rep, w0_error_estimate=math.nan)
    assert far_field_refusal(traj, blind.w0_error_estimate) is not None
    report = classify(traj, blind, None)
    assert {verdict for _, verdict in report.criteria.values()} == {"inconclusive"}
    assert report.overall == "inconclusive"


def test_mismatched_inputs_rejected(std2):
    traj, _ = std2
    fit = fit_even_polynomial((np.linspace(1.0, 2.0, 8), np.zeros(8)), 2)
    # wrong order
    with pytest.raises(ValueError):
        classify(traj, diagnose(shoot(standard_config(3, r_end=120.0))[0]), fit)
    # wrong run: a truncated shot's report against the full trajectory
    short_rep = diagnose(shoot(standard_config(2, r_end=120.0))[0])
    with pytest.raises(ValueError):
        classify(traj, short_rep, fit)


def test_missing_fit_leaves_criterion_iv_inconclusive(std2):
    # analyze passes fit=None when it took no v samples
    traj, rep = std2
    report = classify(traj, rep, None)
    assert math.isnan(report.criteria["iv"][0])
    assert report.criteria["iv"][1] == "inconclusive"
    assert report.overall == "standard"
    assert report.agreement


def test_fit_beyond_range_rejected(std2):
    traj, rep = std2
    r = np.linspace(100.0, 2 * traj.r_max, 8)
    fit = fit_even_polynomial((r, np.zeros_like(r)), 2)
    with pytest.raises(ValueError):
        classify(traj, rep, fit)


def test_json_round_trip(nonstd2_report, tmp_path):
    _, _, report = nonstd2_report
    path = tmp_path / "classification.json"
    _write_json(path, report.to_json_dict())
    blob = json.loads(open(path).read())
    assert blob["overall"] == "nonstandard"
    assert [entry["name"] for entry in blob["criteria"]] == ["ii", "iii", "iv", "v", "vi"]
    for entry in blob["criteria"]:
        assert {"name", "statistic", "threshold", "verdict"} <= set(entry)


def test_json_serializes_infinities():
    report = ClassificationReport(
        m=2,
        criteria={
            "ii": (float("-inf"), "nonstandard"),
            "iii": (math.nan, "inconclusive"),
            "iv": (2.0, "nonstandard"),
            "v": (float("-inf"), "nonstandard"),
            "vi": (0.0, "nonstandard"),
        },
        overall="nonstandard",
        agreement=True,
        deltaa_estimate=(1, -7.6),
    )
    blob = report.to_json_dict()
    text = json.dumps(blob, allow_nan=False)  # strict JSON must serialize
    stats = {entry["name"]: entry["statistic"] for entry in json.loads(text)["criteria"]}
    assert stats["ii"] == "-inf"
    assert stats["iii"] == "nan"
    # one rule for every report: the verdict's json_safe is the shooter's
    assert verdict.json_safe is shooter.json_safe


def test_classification_sweep_demo(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "classification_sweep.py"
    runpy.run_path(str(demo), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    rows = [line.split() for line in lines[first:first + 9]]
    assert [row[6] for row in rows] == ["nonstandard"] * 5 + ["standard"] + ["inconclusive"] * 3
    assert all(row[7] == "True" for row in rows)
    # the round sphere's u - v is the constant log 2
    assert rows[5][5] == "0.6931"


# --- each row's decision at its edges, on synthetic statistics ---

NAN, INF = math.nan, math.inf
IN, OUT = 1 - 1e-9, 1 + 1e-9  # just inside and just outside a threshold


def _limit(value, confidence=0.0):
    return {"delta_limits": [LimitEstimate(value, confidence, 40)]}


def _curvature(*vals):
    return {"scalar_curvature_tail": (np.arange(1.0, len(vals) + 1), np.array(vals))}


def _rho1(*vals):
    return {"rho1_tail": (np.arange(1.0, len(vals) + 1), np.array(vals))}


def _growth(c, u_end=None):
    """A run on the grid 0, 1, .., 1024 with u = c r^2 and no volume, so
    that criterion (iii) reads c; u_end overrides u at r_end."""
    return {"growth": (c, u_end)}


def _fit(*coeffs):
    """Fit of the even polynomial sum coeffs[k] r^(2k) on [100, 900]."""
    r = np.linspace(100.0, 900.0, 24)
    return {"fit": fit_even_polynomial((r, sum(c * r ** (2 * k) for k, c in enumerate(coeffs))), 4)}


_ROWS = [
    ("ii", _limit(0.0), 0.0, "standard"),
    ("ii", _limit(EPS_STD), EPS_STD, "inconclusive"),
    ("ii", _limit(EPS_STD * IN), EPS_STD * IN, "standard"),
    ("ii", _limit(EPS_STD * OUT), EPS_STD * OUT, "inconclusive"),
    ("ii", _limit(-EPS_STD), -EPS_STD, "inconclusive"),
    ("ii", _limit(-EPS_STD * IN), -EPS_STD * IN, "standard"),
    ("ii", _limit(-EPS_STD * OUT), -EPS_STD * OUT, "nonstandard"),
    ("ii", _limit(NAN), NAN, "inconclusive"),
    ("ii", _limit(-INF), -INF, "inconclusive"),
    ("ii", _limit(INF), INF, "inconclusive"),
    ("ii", _limit(-1.0, confidence=EPS_STD), -1.0, "nonstandard"),
    ("ii", _limit(-1.0, confidence=EPS_STD * OUT), -1.0, "inconclusive"),
    ("ii", _limit(0.0, confidence=EPS_STD * OUT), 0.0, "inconclusive"),
    ("ii", _limit(-1.0, confidence=NAN), -1.0, "nonstandard"),
    ("ii", _limit(0.0, confidence=NAN), 0.0, "standard"),
    ("ii", {"delta_limits": []}, NAN, "inconclusive"),  # m = 1: no Delta u
    ("iii", _growth(0.0), 0.0, "standard"),
    ("iii", _growth(EPS_GROWTH), EPS_GROWTH, "inconclusive"),
    ("iii", _growth(EPS_GROWTH * IN), EPS_GROWTH * IN, "standard"),
    ("iii", _growth(EPS_GROWTH * OUT), EPS_GROWTH * OUT, "inconclusive"),
    ("iii", _growth(-EPS_GROWTH), -EPS_GROWTH, "inconclusive"),
    ("iii", _growth(-EPS_GROWTH * IN), -EPS_GROWTH * IN, "standard"),
    ("iii", _growth(-EPS_GROWTH * OUT), -EPS_GROWTH * OUT, "nonstandard"),
    ("iii", _growth(0.0, u_end=NAN), NAN, "inconclusive"),
    ("iii", _growth(0.0, u_end=-INF), -INF, "inconclusive"),
    ("iii", _growth(0.0, u_end=INF), INF, "inconclusive"),
    ("iv", {"fit": None}, NAN, "inconclusive"),
    ("iv", _fit(0.7), 0.0, "standard"),
    ("iv", _fit(0.7, -2e-3), 2.0, "nonstandard"),
    ("iv", _fit(0.7, 2e-3), 2.0, "inconclusive"),
    ("iv", _fit(0.7, 0.0, -1e-9), 4.0, "nonstandard"),
    ("iv", _fit(0.7, 0.0, 1e-9), 4.0, "inconclusive"),
    ("v", _curvature(12.0, 12.0), 12.0, "standard"),
    ("v", _curvature(1.0, -R_BIG), -R_BIG, "nonstandard"),
    ("v", _curvature(1.0, -R_BIG * IN), -R_BIG * IN, "standard"),
    ("v", _curvature(1.0, -R_BIG * OUT), -R_BIG * OUT, "nonstandard"),
    ("v", _curvature(NAN, 5.0, 3.0), 3.0, "standard"),
    ("v", _curvature(INF, 5.0, -INF), -INF, "nonstandard"),
    ("v", _curvature(-INF, -INF), -INF, "nonstandard"),
    ("v", _curvature(NAN, INF, NAN), NAN, "inconclusive"),
    ("vi", _rho1(1.0, 1.0), 1.0, "standard"),
    ("vi", _rho1(1.0, 0.5), 0.5, "standard"),
    ("vi", _rho1(1.0, 0.5 * IN), 0.5 * IN, "inconclusive"),
    ("vi", _rho1(1.0, 1e-3), 1e-3, "inconclusive"),
    ("vi", _rho1(1.0, 1e-3 * IN), 1e-3 * IN, "nonstandard"),
    ("vi", _rho1(INF, 1.0, NAN, 0.8), 0.8, "standard"),
    ("vi", _rho1(0.0, 0.0, 0.0), 0.0, "nonstandard"),
    ("vi", _rho1(NAN, 0.0, INF, 0.0), 0.0, "nonstandard"),
    ("vi", _rho1(NAN, -INF, INF), NAN, "inconclusive"),
]


@pytest.mark.parametrize("name, change, stat, want", _ROWS)
def test_row_decision_at_its_edges(std2, monkeypatch, name, change, stat, want):
    # the far-field gate has its own tests; here every run is judged
    monkeypatch.setattr(verdict, "far_field_refusal", lambda traj, err: None)
    traj, rep = std2
    change = dict(change)
    fit = change.pop("fit", None)
    if "growth" in change:
        c, u_end = change.pop("growth")
        grid = np.arange(1025.0)
        u = c * grid**2
        if u_end is not None:
            u[-1] = u_end
        # a stand-in run that holds u itself, with no volume: criterion (iii)
        # reads u at r_end, at the node r_end / 2 and alpha, and nothing else
        traj = types.SimpleNamespace(
            m=traj.m, termination=traj.termination, r_max=float(grid[-1]), u=u,
            alpha_final=0.0, mu=traj.mu, on_family=False,
            sample_w=lambda j, radii: u[np.searchsorted(grid, radii)])
        change["r_reached"] = traj.r_max
    got = classify(traj, dataclasses.replace(rep, **change), fit).criteria[name]
    assert got[1] == want
    assert got[0] == stat or (math.isnan(got[0]) and math.isnan(stat))
