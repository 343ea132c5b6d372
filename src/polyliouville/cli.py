"""Command-line experiment harness with deterministic file outputs.

Subcommands (long flags only, spelled out in full):

    constants        exact constant table for one order m
    pizzetti         seeded exactness sweep of the ball-average expansion
    green            exact radial Green function of Delta^m on the unit ball
    shoot            integrate one radial trajectory, write CSV + report JSON
    represent        v-profile CSV and u - v polynomial fit JSON
    classify         equivalence-criteria verdicts as JSON
    a2m-check        positivity, scaling covariance, and exp-integrability
    reproduce-paper  fixed verification suite with a summary table

shoot, represent, classify and reproduce-paper all go through `analyze`,
the one shoot -> v-profile -> u - v fit -> classify pipeline, which the
package also exports for library use.  It reaches those four stages
through this module's globals, which perfbench/spans.py wraps to trace
each layer.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  Identical argv
(and seed) produce byte-identical CSV/JSON outputs.  The default output
directory is $POLYLIOUVILLE_OUT, falling back to the working directory.  An
optional config file, named by --config PATH or --config=PATH, holds
"key = value" lines (long flag names without the dashes); explicit flags
override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import ClassificationReport, classify
from .exactconst import constant_table, format_table, verify_gamma_identity
from .greenball import RadialProfile, exp_integrability, green_ball, navier_solve_radial
from .polyfield import almansi_random, pizzetti_check
from .represent import compute_v
from .shooter import (
    RadialTrajectory,
    ShootingConfig,
    SolveReport,
    scalar_curvature,
    shoot,
    standard_config,
)
from .tailfit import PolyFit1D, fit_even_polynomial

__all__ = ["Analysis", "analyze", "run", "main"]


def _read_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Insert config-file pairs as flags ahead of the explicit ones.

    The file is named by `--config PATH` or `--config=PATH`.  argparse keeps
    the last occurrence of a repeated flag, so explicit command-line flags
    override the config file.
    """
    if not argv or argv[0] not in _HANDLERS:
        return argv
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise ValueError("--config needs a file path")
            path = argv[i + 1]
            break
        if arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            break
    else:
        return argv
    extra: list[str] = []
    for key, value in _read_config(path):
        flag = "--" + key.replace("_", "-")
        if flag != "--config":
            extra.extend([flag, value])
    return [argv[0]] + extra + argv[1:]


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("POLYLIOUVILLE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _grid_size(text: str) -> int:
    # a2m-check's density (1 - r^2)^2 r^(n-1) vanishes at r = 0 and r = 1,
    # so its trapezoid mass (a divisor) needs an inner node
    return _int_at_least(text, 3)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state on it between calls."""
    parser = argparse.ArgumentParser(
        prog="polyliouville",
        description="numerical and exact-arithmetic laboratory for the "
        "polyharmonic Liouville equation on R^{2m}",
    )
    # allow_abbrev=False on every subcommand: a prefix such as --conf would
    # otherwise parse as --config without _inject_config reading the file
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file; flags override it")
    common.add_argument("--out", help="output directory (default $POLYLIOUVILLE_OUT or .)")

    p = sub.add_parser("constants", parents=[common], allow_abbrev=False,
                       help="exact constant table")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--digits", type=_positive_int, default=30)

    p = sub.add_parser("pizzetti", parents=[common], allow_abbrev=False,
                       help="seeded exactness sweep")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--cases", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=_nonnegative_int, default=6)

    p = sub.add_parser("green", parents=[common], allow_abbrev=False,
                       help="exact Green function data")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--points", type=_nonnegative_int, default=0,
                   help="if > 0, also write green_profile.csv with this many radii")

    shooting = argparse.ArgumentParser(add_help=False)
    shooting.add_argument("--m", type=_positive_int, required=True)
    shooting.add_argument("--u0", type=float, help="u(0)")
    shooting.add_argument("--d2", type=float, default=0.0, help="u''(0)")
    shooting.add_argument("--d4", type=float, default=0.0, help="u''''(0)")
    shooting.add_argument("--d6", type=float, default=0.0, help="u^(6)(0)")
    shooting.add_argument("--laplacians",
                          help="comma list A_0,...,A_{m-1} of Delta^j u(0), "
                          "alternative to --u0/--d2/...")
    shooting.add_argument("--r-end", type=float, default=1000.0)
    shooting.add_argument("--rel-tol", type=float, default=1e-10)
    shooting.add_argument("--abs-tol", type=float, default=1e-12)

    p = sub.add_parser("shoot", parents=[common, shooting], allow_abbrev=False,
                       help="radial trajectory CSV + diagnostic report JSON")

    p = sub.add_parser("represent", parents=[common, shooting], allow_abbrev=False,
                       help="v-profile CSV + u-v fit JSON")
    p.add_argument("--radii", help="comma list of evaluation radii")
    p.add_argument("--points", type=_positive_int, default=24)

    p = sub.add_parser("classify", parents=[common, shooting], allow_abbrev=False,
                       help="equivalence-criteria verdict JSON")

    p = sub.add_parser("a2m-check", parents=[common], allow_abbrev=False,
                       help="Navier positivity, scaling covariance, integrability")
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--points", type=_grid_size, default=801)

    p = sub.add_parser("reproduce-paper", parents=[common], allow_abbrev=False,
                       help="fixed verification suite")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; the solve rows run in order")
    p.add_argument("--r-end", type=float, default=1000.0)

    return parser


# -- the analysis pipeline ---------------------------------------------------


@dataclass(frozen=True)
class Analysis:
    """One run through shoot -> v-profile -> u - v fit -> classify.

    vprof and fit are None when the run never reached the far field and no
    radii were asked for: there are no v samples to fit u - v on.  The
    verdict is then inconclusive because classify refuses to judge such
    runs.
    """

    traj: RadialTrajectory
    report: SolveReport
    vprof: RadialProfile | None
    fit: PolyFit1D | None
    verdict: ClassificationReport


def _far_field_radii(r_max: float, points: int = 24) -> np.ndarray:
    return np.geomspace(max(1.0, r_max / 1000.0), r_max / 2.0, points)


def analyze(cfg: ShootingConfig, radii=None) -> Analysis:
    """Shoot cfg, evaluate v, fit u - v and classify the run.

    With radii=None, v is evaluated on 24 geometric radii of the far field
    when the run reached r_end >= 100, and skipped otherwise (vprof and
    fit are then None).  Explicit
    radii are always evaluated, so compute_v's refusal of a truncated run
    surfaces as its ValueError.  Degree inference of the even-polynomial
    fit ignores content below 10x the solver's w0 error estimate.
    """
    traj, rep = shoot(cfg)
    if radii is None and traj.termination == "reached_end" and traj.r_max >= 100.0:
        radii = _far_field_radii(traj.r_max)
    if radii is None:
        vprof = fit = None
    else:
        vprof = compute_v(traj, radii)
        floor = rep.w0_error_estimate
        if not math.isfinite(floor):
            floor = 0.0
        fit = fit_even_polynomial(
            (vprof.grid, traj.sample_w(0, vprof.grid) - vprof.values),
            max(2, 2 * traj.m - 2),
            contribution_floor=10.0 * floor,
        )
    return Analysis(traj, rep, vprof, fit, classify(traj, rep, fit))


def _config(args) -> ShootingConfig:
    """The ShootingConfig named by the shooting flags."""
    if args.laplacians is not None:
        data = {"initial_laplacians": tuple(float(x) for x in args.laplacians.split(","))}
    elif args.u0 is None:
        raise ValueError("either --u0 (with --d2/--d4/--d6) or --laplacians is required")
    else:
        data = {"initial_derivatives": (args.u0, args.d2, args.d4, args.d6)[: args.m]}
    return ShootingConfig(
        m=args.m,
        r_end=args.r_end,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        **data,
    )


def _fit_json(fit) -> dict | None:
    if fit is None:
        return None
    return {
        "coefficients": [float(c) for c in fit.coeffs],
        "residual_rms": fit.residual_rms,
        "inferred_degree": fit.inferred_degree,
        "r_max": fit.r_max,
    }


# -- subcommand handlers -----------------------------------------------------


def _cmd_constants(args) -> int:
    print(format_table(constant_table(args.m), digits=args.digits))
    return 0


def _cmd_pizzetti(args) -> int:
    ok = 0
    for i in range(args.cases):
        degree = i % (args.max_degree + 1)
        case_seed = args.seed * 100003 + i
        poly = almansi_random(args.m, args.n, degree, case_seed)
        x0 = tuple((((case_seed >> k) % 5) - 2 for k in range(args.n)))
        radius = 1 + (i % 3)
        report = pizzetti_check(poly, args.m, x0, radius)
        if report.exact:
            ok += 1
    print(f"{ok}/{args.cases} exact")
    return 0 if ok == args.cases else 3


def _cmd_green(args) -> int:
    gb = green_ball(args.m)
    print(f"m = {args.m} (ball radius 1, Navier boundary conditions)")
    print(f"log coefficient: {gb.log_coeff}  ({float(gb.log_coeff):.17g})")
    for k, c in enumerate(gb.unit_poly_coeffs()):
        print(f"r^{2 * k} coefficient: {c}  ({float(c):.17g})")
    for i, c in enumerate(gb.sign_constants_exact):
        sign = "> 0" if c.is_positive else "<= 0 (!)"
        print(f"sign constant [{i}]: {c}  {sign}")
    residuals = gb.navier_residuals_exact()
    print("Navier boundary residuals exactly zero:",
          all(r.is_zero for r in residuals))
    if args.points > 0:
        out = _resolve_out(args)
        grid = np.linspace(0.0, 1.0, args.points + 1)[1:]
        prof = RadialProfile(grid=grid, values=gb.evaluate(grid), m=args.m)
        prof.to_csv(out / "green_profile.csv", header=("r", "G"))
        print(f"wrote {out / 'green_profile.csv'}")
    if not all(c.is_positive for c in gb.sign_constants_exact):
        return 3
    return 0


def _cmd_shoot(args) -> int:
    out = _resolve_out(args)
    a = analyze(_config(args))
    a.traj.to_csv(out / "trajectory.csv")
    payload = a.report.to_json_dict()
    payload["classification"] = a.verdict.to_json_dict()
    payload["fit"] = _fit_json(a.fit)
    _write_json(out / "report.json", payload)
    print(f"termination: {a.traj.termination} at r = {a.traj.r_max:.17g}")
    print(f"alpha = {a.traj.alpha_final:.17g}")
    print(f"overall = {a.verdict.overall}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'report.json'}")
    return 0


def _cmd_represent(args) -> int:
    out = _resolve_out(args)
    cfg = _config(args)
    if args.radii is not None:
        radii = np.array(sorted(float(x) for x in args.radii.split(",")))
    else:
        radii = _far_field_radii(cfg.r_end, args.points)
    a = analyze(cfg, radii)
    a.vprof.to_csv(out / "v_profile.csv", header=("r", "v", "err_bar"))
    _write_json(out / "fit.json", _fit_json(a.fit))
    print(f"v evaluated at {radii.size} radii, max err bar {float(np.max(a.vprof.err)):.3g}")
    print(f"u - v fit: degree {a.fit.inferred_degree}, residual rms {a.fit.residual_rms:.3g}")
    print(f"wrote {out / 'v_profile.csv'} and {out / 'fit.json'}")
    return 0


def _cmd_classify(args) -> int:
    out = _resolve_out(args)
    verdict = analyze(_config(args)).verdict
    _write_json(out / "classification.json", verdict.to_json_dict())
    for name, (stat, verd) in verdict.criteria.items():
        print(f"({name}) statistic = {stat:.6g}  verdict = {verd}")
    print(f"overall = {verdict.overall}  agreement = {verdict.agreement}")
    if verdict.deltaa_estimate is not None:
        j, a = verdict.deltaa_estimate
        print(f"deltaa_estimate: Delta^{j} u -> {a:.17g}")
    print(f"wrote {out / 'classification.json'}")
    return 0


def _cmd_a2m_check(args) -> int:
    m = args.m
    n = 2 * m
    grid = np.linspace(0.0, 1.0, args.points)
    f_vals = (1.0 - grid**2) ** 2
    f1 = RadialProfile(grid=grid, values=f_vals, m=m)
    v1 = navier_solve_radial(f1)
    rows = []

    positive = bool(np.all(v1.values >= -1e-14))
    rows.append(("positivity: f >= 0 gives v >= 0 at all nodes", positive))

    i1 = exp_integrability(v1, p=1.0)
    worst = 0.0
    for scale in (2.0, 4.0):
        f_scaled = RadialProfile(grid=scale * grid, values=f_vals / scale**n, m=m)
        v_scaled = navier_solve_radial(f_scaled)
        i_scaled = exp_integrability(v_scaled, p=1.0)
        rel = abs(i_scaled.value - scale**n * i1.value) / (scale**n * i1.value)
        worst = max(worst, rel)
    rows.append((f"scaling covariance I(R) = R^{n} I(1), rel err {worst:.2e} <= 1e-8",
                 worst <= 1e-8))

    omega = float(constant_table(m).omega_n)
    f_mass = omega * float(np.trapezoid(f_vals * grid ** (n - 1), grid))
    gamma = float(constant_table(m).gamma_m)
    p_crit = gamma / (2.0 * f_mass)
    crit = exp_integrability(v1, p=p_crit)
    rows.append((f"exp integrability at p*|f|_L1 = gamma_m/2: I = {crit.value:.6g} finite",
                 math.isfinite(crit.value) and not crit.overflow))

    failed = False
    for label, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed = failed or not ok
    return 3 if failed else 0


def _or_dash(value) -> str:
    return "-" if value is None else str(value)


def _reproduce_solve_row(name: str, cfg: ShootingConfig, checks) -> dict:
    a = analyze(cfg)
    row = {
        "name": name,
        "alpha": a.traj.alpha_final,
        "deg_p": None if a.fit is None else a.fit.inferred_degree,
        "lim_dau": a.report.delta_limits[0].value if a.report.delta_limits else math.nan,
        "min_tail_rg": a.verdict.criteria["v"][0],
        "verdict": a.verdict.overall,
    }
    row["ok"] = all(check(row, a.traj) for check in checks)
    return row


def _cmd_reproduce_paper(args) -> int:
    def is_standard(row, traj):
        return row["verdict"] == "standard" and row["deg_p"] == 0

    def alpha_close(tol):
        return lambda row, traj: abs(row["alpha"] - 1.0) <= tol

    def is_nonstandard(row, traj):
        return (
            row["verdict"] == "nonstandard"
            and row["deg_p"] == 2
            and row["lim_dau"] < 0
        )

    def rg_unbounded(row, traj):
        mask = traj.grid <= 10.0
        rg = scalar_curvature(traj)[mask]
        return float(np.min(rg[~np.isnan(rg)])) < -1e6

    def rg_spherical(row, traj):
        mask = traj.grid <= 10.0
        rg = scalar_curvature(traj)[mask]
        target = 2 * traj.m * (2 * traj.m - 1)
        return float(np.max(np.abs(rg - target))) <= 1e-4

    def rg_tail_spherical(row, traj):
        target = 2 * traj.m * (2 * traj.m - 1)
        return abs(row["min_tail_rg"] - target) <= 0.01 * target

    log2 = math.log(2.0)
    solve_rows = [
        ("standard m=1",
         standard_config(1, r_end=args.r_end),
         [is_standard, alpha_close(1e-3)]),
        ("standard m=2",
         standard_config(2, r_end=args.r_end),
         [is_standard, alpha_close(1e-4), rg_spherical, rg_tail_spherical,
          lambda row, traj: abs(row["lim_dau"]) <= 1e-3]),
        # m = 3 runs to 500: far enough that log-growth statistics settle,
        # short enough that the r^4-mode growth of the integration error
        # stays out of the tail.  At 500 the tail R_g spans 29.94..29.99
        # (target 30); at 1000 it spans -11.6..25.0.
        ("standard m=3",
         standard_config(3, r_end=min(args.r_end, 500.0)),
         [is_standard, alpha_close(1e-3), rg_tail_spherical]),
        ("perturbed m=2 (u''(0) = -2.2)",
         ShootingConfig(m=2, initial_derivatives=(log2, -2.2), r_end=args.r_end),
         [is_nonstandard, rg_unbounded]),
        ("nonstandard m=2 (u''(0) = -3)",
         ShootingConfig(m=2, initial_derivatives=(log2, -3.0), r_end=args.r_end),
         [is_nonstandard, rg_unbounded]),
    ]

    rows = [_reproduce_solve_row(name, cfg, checks) for name, cfg, checks in solve_rows]

    exact_rows = []
    gamma_ok = all(verify_gamma_identity(mm) for mm in range(1, 11))
    exact_rows.append(("gamma-identity m=1..10", gamma_ok))

    ok_count = 0
    cases = 200
    for i in range(cases):
        nn = (2, 3, 4, 6)[i % 4]
        mm = 1 + i % 3
        degree = i % 7
        poly = almansi_random(mm, nn, degree, 7000 + i)
        x0 = tuple((((7000 + i) >> k) % 3) - 1 for k in range(nn))
        if pizzetti_check(poly, mm, x0, 1 + (i % 2)).exact:
            ok_count += 1
    exact_rows.append((f"Pizzetti {ok_count}/{cases}", ok_count == cases))

    signs_ok = all(
        c.is_positive
        for mm in range(1, 6)
        for c in green_ball(mm).sign_constants_exact
    )
    exact_rows.append(("Green signs m<=5", signs_ok))

    width = max(len(r["name"]) for r in rows)
    print(f"{'run':<{width}}  {'alpha':>12}  {'deg p':>5}  {'lim Du':>12}  "
          f"{'min tail Rg':>12}  verdict")
    failed = False
    for row in rows:
        mark = "" if row["ok"] else "  >>> FAIL"
        print(
            f"{row['name']:<{width}}  {row['alpha']:>12.6f}  {_or_dash(row['deg_p']):>5}  "
            f"{row['lim_dau']:>12.4g}  {row['min_tail_rg']:>12.4g}  "
            f"{row['verdict']}{mark}"
        )
        failed = failed or not row["ok"]
    for label, ok in exact_rows:
        print(f"{label}: {'PASS' if ok else 'FAIL  >>>'}")
        failed = failed or not ok

    if args.out or os.environ.get("POLYLIOUVILLE_OUT"):
        out = _resolve_out(args)
        with open(out / "summary.csv", "w") as fh:
            fh.write("name,alpha,deg_p,lim_dau,min_tail_rg,verdict,ok\n")
            for row in rows:
                fh.write(
                    f"{row['name']},{row['alpha']:.17g},{_or_dash(row['deg_p'])},"
                    f"{row['lim_dau']:.17g},{row['min_tail_rg']:.17g},"
                    f"{row['verdict']},{row['ok']}\n"
                )
        print(f"wrote {out / 'summary.csv'}")
    return 3 if failed else 0


_HANDLERS = {
    "constants": _cmd_constants,
    "pizzetti": _cmd_pizzetti,
    "green": _cmd_green,
    "shoot": _cmd_shoot,
    "represent": _cmd_represent,
    "classify": _cmd_classify,
    "a2m-check": _cmd_a2m_check,
    "reproduce-paper": _cmd_reproduce_paper,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        argv = _inject_config(list(argv))
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
