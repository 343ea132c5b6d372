"""Seeded inputs, item runners and per-item checks of the three workloads.

paper    `reproduce-paper --jobs 1` through `cli.run`: the headline command,
         one item per pass, the only workload that runs the exact layers
         (polyfield, greenball, exactconst).  Its inputs are the paper's
         fixed table; the seed is recorded but changes nothing.
sweep    20 `classify` commands for m = 2, u(0) = log 2: ten u''(0) drawn
         from the nonstandard band below -2 and ten from the supercritical
         band above it, one per stratum, with a margin around the standard
         value -2.  Loads the shooter, including its failure path
         (supercritical runs end in step_underflow), with no exact layer.
profile  the library quickstart path: shoot the standard family for
         m = 1, 2, 3 and the u''(0) = -3 nonstandard m = 2 run, then
         compute_v and compute_lap_v (j = 1..m-1) at 96 seeded geometric
         radii and fit u - v.  Loads the representation integral.  Each
         Delta^j v is checked against the trajectory's own w_j = Delta^j u.

Every item is checked: a failed item is a wrong answer, never a slow
success.  Accuracy columns are computed from the same outputs, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np

WORKLOADS = ("paper", "sweep", "profile")

LOG2 = math.log(2.0)
STANDARD_D2 = -2.0                    # u''(0) of the standard m = 2 solution
SWEEP_BANDS = {                       # (low, high, verdict expected there)
    "nonstandard": (-2.5, -2.1, "nonstandard"),
    "supercritical": (-1.9, -1.5, "inconclusive"),
}
SWEEP_PER_BAND = 10
PROFILE_RADII = 96
# (name, m, u''(0) or None for the standard family, r_end, fitted degree);
# r_end as reproduce-paper uses it, including its m = 3 cap at 500
PROFILE_RUNS = (
    ("standard m=1", 1, None, 1000.0, 0),
    ("standard m=2", 2, None, 1000.0, 0),
    ("standard m=3", 3, None, 500.0, 0),
    ("nonstandard m=2 (u''(0) = -3)", 2, -3.0, 1000.0, 2),
)

# Accuracy measured when this benchmark was defined, and the ceilings a
# run must stay under: the same 25% share the timing bounds allow.  The
# m = 3 tail curvature defect (min tail R_g -1.6 against 30) is part of
# the baseline on purpose.  v_err_max is the largest compute_v error bar
# on 4000 geometric radii in [1, 1.3], where the m = 1 bar peaks, so its
# ceiling holds for the radii of any seed.
ACCURACY_BASELINE = {
    "alpha_err_max": 9.9999738e-07,
    "rg_tail_dev_max": 1.0536223,
    "u_err_max": 1.2538569e-07,
    "v_err_max": 1.9558648e-05,
}
ACCURACY_CEILING = {k: 1.25 * v for k, v in ACCURACY_BASELINE.items()}
# compute_lap_v skips radii whose error bar exceeds its max_err; on a
# 1500-point grid of [1, 6] every skipped radius lies below 2.35.
LAP_SKIP_BELOW = 3.0
# |w_j - Delta^j v - c_j| may exceed Delta^j v's error bar by this much:
# for standard m = 3 the excess grows with r to 4.0e-8 at r = 250 (j = 1),
# a defect kept in the baseline and reported as lap_excess_max.
LAP_TOL = 1e-7


def make_inputs(workload: str, seed: int) -> list[dict]:
    """JSON-serialisable item specs; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    if workload == "paper":
        return [{"kind": "paper"}]
    if workload == "sweep":
        items = []
        for band, (lo, hi, expect) in SWEEP_BANDS.items():
            width = (hi - lo) / SWEEP_PER_BAND
            for k in range(SWEEP_PER_BAND):
                d2 = lo + (k + rng.uniform()) * width
                items.append({"kind": "sweep", "band": band, "d2": float(d2),
                              "expect": expect})
        return items
    if workload == "profile":
        items = []
        for name, m, d2, r_end, degree in PROFILE_RUNS:
            # one radius per geometric stratum of [1, r_end / 2]
            edges = np.log(np.geomspace(1.0, r_end / 2.0, PROFILE_RADII + 1))
            radii = np.exp(edges[:-1] + rng.uniform(size=PROFILE_RADII) * np.diff(edges))
            items.append({"kind": "profile", "name": name, "m": m, "d2": d2,
                          "r_end": r_end, "degree": degree,
                          "radii": [float(r) for r in radii]})
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _cli(pl, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pl.cli.run(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def run_item(pl, spec: dict, out: Path):
    """The timed work of one item: what a user of the program would run."""
    if spec["kind"] == "paper":
        return _cli(pl, ["reproduce-paper", "--jobs", "1", "--out", str(out)])
    if spec["kind"] == "sweep":
        return _cli(pl, ["classify", "--m", "2", "--u0", repr(LOG2),
                         "--d2", repr(spec["d2"]), "--out", str(out)])
    m = spec["m"]
    if spec["d2"] is None:
        cfg = pl.standard_config(m, r_end=spec["r_end"])
    else:
        cfg = pl.ShootingConfig(m=m, initial_derivatives=(LOG2, spec["d2"]),
                                r_end=spec["r_end"])
    traj, rep = pl.shoot(cfg)
    radii = np.asarray(spec["radii"])
    prof = pl.compute_v(traj, radii)
    laps = [pl.compute_lap_v(traj, j, radii) for j in range(1, m)]
    floor = rep.w0_error_estimate if math.isfinite(rep.w0_error_estimate) else 0.0
    fit = pl.fit_even_polynomial((radii, traj.sample_w(0, radii) - prof.values),
                                 max(2, 2 * m - 2), contribution_floor=10.0 * floor)
    return {"traj": traj, "rep": rep, "prof": prof, "laps": laps, "fit": fit}


def check_item(pl, spec: dict, result, out: Path):
    """(attempted, failure messages, accuracy values) for one item run."""
    kind = spec["kind"]
    if kind == "paper":
        return _check_paper(result, out)
    if kind == "sweep":
        if result["rc"] != 0:
            return 1, [f"sweep d2={spec['d2']!r}: exit {result['rc']}"], {}
        got = json.loads((out / "classification.json").read_text())
        if got["overall"] != spec["expect"] or not got["agreement"]:
            return 1, [f"sweep d2={spec['d2']!r}: {got['overall']}, "
                       f"agreement {got['agreement']}, expected {spec['expect']}"], {}
        return 1, [], {}
    return _check_profile(pl, spec, result)


def _check_paper(result, out: Path):
    failures = []
    if result["rc"] != 0:
        failures.append(f"reproduce-paper: exit {result['rc']}")
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    exact = [ln for ln in result["stdout"].splitlines()
             if ln.endswith(": PASS") or ": FAIL" in ln]
    failures += [f"paper row {r['name']}: not ok" for r in rows if r["ok"] != "True"]
    failures += [f"paper exact row {ln}" for ln in exact if not ln.endswith(": PASS")]
    if len(rows) != 5 or len(exact) != 3:
        failures.append(f"paper: {len(rows)} solve rows and {len(exact)} exact rows")
    std = [r for r in rows if r["name"].startswith("standard m=")]
    alpha_err = max(abs(float(r["alpha"]) - 1.0) for r in std)
    rg_dev = 0.0
    for r in std:
        m = int(r["name"].split("=")[1])
        target = 2 * m * (2 * m - 1)
        rg_dev = max(rg_dev, abs(float(r["min_tail_rg"]) - target) / target)
    attempted = max(len(rows) + len(exact), 1)
    return attempted, failures, {"alpha_err_max": alpha_err, "rg_tail_dev_max": rg_dev}


def _check_profile(pl, spec, result):
    traj, rep, prof, fit = result["traj"], result["rep"], result["prof"], result["fit"]
    name = spec["name"]
    failures = []
    if traj.termination != "reached_end":
        failures.append(f"profile {name}: {traj.termination}")
    if fit.inferred_degree != spec["degree"]:
        failures.append(f"profile {name}: fit degree {fit.inferred_degree}, "
                        f"expected {spec['degree']}")
    if not np.all(np.isfinite(prof.values) & np.isfinite(prof.err)):
        failures.append(f"profile {name}: compute_v not finite")
    radii = prof.grid
    excess = 0.0
    for j, lap in enumerate(result["laps"], start=1):
        # u - v is a polynomial of degree 0 or 2, so w_j - Delta^j v is the
        # constant limit of w_j: 0 for the standard family
        c = 0.0 if spec["d2"] is None else rep.delta_limits[j - 1].value
        skipped = ~np.isfinite(lap.values)
        if np.any(radii[skipped] >= LAP_SKIP_BELOW) or np.any(np.isfinite(lap.err[skipped])):
            failures.append(f"profile {name}: Delta^{j} v skipped at "
                            f"{np.count_nonzero(skipped)} radii")
        dev = np.abs(traj.sample_w(j, radii[~skipped]) - lap.values[~skipped] - c)
        over = float(np.max(dev - lap.err[~skipped], initial=0.0))
        excess = max(excess, over)
        if not over <= LAP_TOL:
            failures.append(f"profile {name}: Delta^{j} v off w_{j} by "
                            f"{over:.3g} beyond its error bar")
    acc = {"v_err_max": float(np.max(prof.err)), "lap_excess_max": excess}
    if spec["d2"] is None:
        near = traj.grid <= 50.0
        closed = pl.standard_solution(spec["m"], 1.0, traj.grid[near]).u
        acc["u_err_max"] = float(np.max(np.abs(traj.u[near] - closed)))
    return 1, failures, acc


def clear_dir(out: Path) -> None:
    for entry in os.scandir(out):
        os.remove(entry.path)


def bytes_in(out: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(out))
