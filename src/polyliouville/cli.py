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

What loads when: importing this module loads argparse and the package's
`__init__`, which is all --help needs.  Every function of another module
is a module global built by `_forwarder`: it imports its module on each
call (a dictionary lookup once loaded) and never rebinds itself, so the
tracer in perfbench/spans.py can swap it in and out.  shoot, compute_v and
fit_even_polynomial are the package's own; classify, green_ball and the
five exact-layer functions are built here.  constants therefore loads
exactconst, pizzetti polyfield and the numeric commands numpy, which the
handlers and the argparse type `_radii` import where they use it; json
loads with the first JSON file written.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  Identical argv
(and seed) produce byte-identical CSV/JSON outputs.  The subcommands
that write files (green, shoot, represent, classify, reproduce-paper) take
--out; its default is $POLYLIOUVILLE_OUT.  green, shoot, represent and
classify then fall back to the working directory; reproduce-paper writes
summary.csv only when --out or $POLYLIOUVILLE_OUT is set.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import _forwarder, compute_v, fit_even_polynomial, shoot

if TYPE_CHECKING:
    import numpy as np

    from .greenball import RadialProfile
    from .shooter import RadialTrajectory, ShootingConfig, SolveReport
    from .tailfit import PolyFit1D
    from .verdict import ClassificationReport

__all__ = ["Analysis", "analyze", "run", "main"]

classify = _forwarder("verdict", "classify")
green_ball = _forwarder("greenball", "green_ball")
constant_table = _forwarder("exactconst", "constant_table")
format_table = _forwarder("exactconst", "format_table")
verify_gamma_identity = _forwarder("exactconst", "verify_gamma_identity")
almansi_random = _forwarder("polyfield", "almansi_random")
pizzetti_check = _forwarder("polyfield", "pizzetti_check")


_NEGATIVE = re.compile(r"-[\d.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a long flag and a following negative number into --flag=value.

    argparse reads a token that starts with "-" as a flag unless it looks
    like a plain negative number (-3, -.5), so "--d2 -2e0" and
    "--laplacians -0.3,-8" would otherwise lose their value.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and flag != "--" and "=" not in flag and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("POLYLIOUVILLE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    """Write payload as strict JSON, each non-finite float as its str."""
    import json

    from .shooter import json_safe

    with open(path, "w") as fh:
        json.dump(json_safe(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


class _UsageError(Exception):
    """Flags that name no runnable command; `run` exits 2 on it, not 3."""


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
    # with two nodes a2m-check's integrands read r^(n-1) = 0 at r = 0 and
    # v(1) = 0 at r = 1, so neither integral row would see v
    return _int_at_least(text, 3)


def _critical_p(m: int) -> int:
    """a2m-check's p* = gamma_m / (2 |f|_L1) for f = (1 - r^2)^2 on B_1 in R^2m.

    omega_n cancels: gamma_m = omega_n 4^(m-1) ((m-1)!)^2 and
    |f|_L1 = omega_n int_0^1 (1 - r^2)^2 r^(n-1) dr = omega_n 8 / (n (n+2) (n+4)).
    """
    return 4 ** (m - 1) * math.factorial(m - 1) ** 2 * m * (m + 1) * (m + 2) // 2


def _a2m_order(text: str) -> int:
    value = _positive_int(text)
    if value > 84:
        raise argparse.ArgumentTypeError(
            f"must be <= 84, got {value}: p* = 4^(m-1) ((m-1)!)^2 m(m+1)(m+2)/2 "
            "overflows a float from m = 85")
    return value


def _floats(text: str) -> tuple[float, ...]:
    """A comma list of floats."""
    return tuple(float(entry) for entry in text.split(","))


def _radii(text: str) -> np.ndarray:
    """A comma list of distinct finite, nonnegative radii, sorted."""
    import numpy as np

    radii = set()
    for entry in text.split(","):
        value = float(entry)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(
                f"radii must be finite and >= 0, got {entry.strip()!r}")
        if value in radii:
            raise argparse.ArgumentTypeError(f"radii must be distinct, got {value!r} twice")
        radii.add(value)
    return np.array(sorted(radii))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state on it between calls."""
    parser = argparse.ArgumentParser(
        prog="polyliouville",
        description="numerical and exact-arithmetic laboratory for the "
        "polyharmonic Liouville equation on R^{2m}",
    )
    # allow_abbrev=False on every subcommand: flags are spelled out in full,
    # so a prefix such as --r-en is a usage error
    sub = parser.add_subparsers(dest="command", required=True)

    # only the subcommands that write files take --out
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", help="output directory (default $POLYLIOUVILLE_OUT or .)")

    p = sub.add_parser("constants", allow_abbrev=False,
                       help="exact constant table")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--digits", type=_positive_int, default=30)

    p = sub.add_parser("pizzetti", allow_abbrev=False,
                       help="seeded exactness sweep")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--cases", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=_nonnegative_int, default=6)

    p = sub.add_parser("green", parents=[writes], allow_abbrev=False,
                       help="exact Green function data")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--points", type=_nonnegative_int, default=0,
                   help="if > 0, also write green_profile.csv with this many radii")

    shooting = argparse.ArgumentParser(add_help=False)
    shooting.add_argument("--m", type=_positive_int, required=True)
    shooting.add_argument("--u0", type=float, help="u(0)")
    shooting.add_argument("--d2", type=float, help="u''(0), default 0")
    shooting.add_argument("--d4", type=float, help="u''''(0), default 0")
    shooting.add_argument("--d6", type=float, help="u^(6)(0), default 0")
    shooting.add_argument("--laplacians", type=_floats,
                          help="comma list A_0,...,A_{m-1} of Delta^j u(0), "
                          "alternative to --u0/--d2/...")
    shooting.add_argument("--r-end", type=float, default=1000.0)

    p = sub.add_parser("shoot", parents=[writes, shooting], allow_abbrev=False,
                       help="radial trajectory CSV + diagnostic report JSON")

    p = sub.add_parser("represent", parents=[writes, shooting], allow_abbrev=False,
                       help="v-profile CSV + u-v fit JSON")
    p.add_argument("--radii", type=_radii, help="comma list of evaluation radii")

    p = sub.add_parser("classify", parents=[writes, shooting], allow_abbrev=False,
                       help="equivalence-criteria verdict JSON")

    p = sub.add_parser("a2m-check", allow_abbrev=False,
                       help="Navier positivity, scaling covariance, integrability")
    p.add_argument("--m", type=_a2m_order, default=2)
    p.add_argument("--points", type=_grid_size, default=801)

    p = sub.add_parser("reproduce-paper", allow_abbrev=False,
                       help="fixed verification suite")
    p.add_argument("--out", help="directory for summary.csv (default $POLYLIOUVILLE_OUT; "
                   "if neither is set, no file is written)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; the solve rows run in order")

    return parser


# -- the analysis pipeline ---------------------------------------------------


class Analysis(NamedTuple):
    """One run through shoot -> v-profile -> u - v fit -> classify.

    vprof and fit are None when the run is not ready for the far field
    (`represent.far_field_refusal`) and no radii were asked for: there are
    no v samples to fit u - v on.  The verdict is then inconclusive
    because classify refuses to judge such runs by the same rule.
    """

    traj: RadialTrajectory
    report: SolveReport
    vprof: RadialProfile | None
    fit: PolyFit1D | None
    verdict: ClassificationReport


def _fit_degree(m: int) -> int:
    """Highest power of r in the even-polynomial fit of u - v."""
    return max(2, 2 * m - 2)


def analyze(cfg: ShootingConfig, radii=None) -> Analysis:
    """Shoot cfg, evaluate v, fit u - v and classify the run.

    With radii=None, v is evaluated on 24 geometric radii from
    max(1, r_end/1000) to r_end/2 when `far_field_refusal` passes the run,
    and skipped otherwise (vprof and fit are then None); the `represent`
    command samples v there too.  Explicit radii are always evaluated, so
    compute_v's refusal of a truncated or slowly decaying run surfaces as
    its ValueError.  Degree inference of the even-polynomial fit ignores
    content below 10x the largest finite value among the solver's w0 error
    estimate and the error bars of v: either noise can pose as a power of r.
    """
    import numpy as np

    from .represent import far_field_refusal

    traj, rep = shoot(cfg)
    if radii is None and far_field_refusal(traj, rep.w0_error_estimate) is None:
        radii = np.geomspace(max(1.0, traj.r_max / 1000.0), traj.r_max / 2.0, 24)
    if radii is None:
        vprof = fit = None
    else:
        vprof = compute_v(traj, radii)
        noise = np.append(vprof.err, rep.w0_error_estimate)
        floor = float(np.max(noise[np.isfinite(noise)], initial=0.0))
        fit = fit_even_polynomial(
            (vprof.grid, traj.sample_w(0, vprof.grid) - vprof.values),
            _fit_degree(traj.m),
            contribution_floor=10.0 * floor,
        )
    return Analysis(traj, rep, vprof, fit, classify(traj, rep, fit))


def _config(args) -> ShootingConfig:
    """The ShootingConfig named by the shooting flags.  Initial data that
    are missing, more or fewer than m values, or given twice are a usage
    error, and so is a derivative flag that order m does not take.  A
    derivative that m takes but that was not given is 0."""
    from .shooter import ShootingConfig

    m = args.m
    derivs = {"--u0": args.u0, "--d2": args.d2, "--d4": args.d4, "--d6": args.d6}
    given = [flag for flag, value in derivs.items() if value is not None]
    if args.laplacians is not None:
        if given:
            raise _UsageError(f"{given[0]} and --laplacians exclude each other")
        if len(args.laplacians) != m:
            raise _UsageError(f"--laplacians must hold {m} values for m = {m}, "
                              f"got {len(args.laplacians)}")
        data = {"initial_laplacians": args.laplacians}
    elif args.u0 is None:
        raise _UsageError("--u0 (with --d2/--d4/--d6) or --laplacians is required")
    elif m > 4:
        raise _UsageError(f"--u0/--d2/--d4/--d6 give 4 of the {m} values m = {m} "
                          "needs; use --laplacians")
    else:
        taken = list(derivs)[:m]
        extra = [flag for flag in given if flag not in taken]
        if extra:
            raise _UsageError(f"{extra[0]} is not initial data for m = {m}, "
                              f"which takes {'/'.join(taken)}")
        data = {"initial_derivatives": tuple(
            0.0 if derivs[flag] is None else derivs[flag] for flag in taken)}
    return ShootingConfig(m=m, r_end=args.r_end, **data)


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
    import numpy as np

    from .greenball import RadialProfile

    gb = green_ball(args.m)
    print(f"m = {args.m} (ball radius 1, Navier boundary conditions)")
    print(f"log coefficient: {gb.log_coeff}  ({float(gb.log_coeff):.17g})")
    for k, c in enumerate(gb.poly_coeffs):
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
    cfg = _config(args)
    out = _resolve_out(args)
    a = analyze(cfg)
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
    """v and the u - v fit at --radii, else where `analyze` samples v: a run
    that `far_field_refusal` refuses then exits 3 and writes nothing."""
    import numpy as np

    from .represent import far_field_refusal
    from .tailfit import min_samples

    cfg = _config(args)
    if args.radii is not None:
        degree = _fit_degree(args.m)
        need = min_samples(degree)
        if args.radii.size < need:
            raise _UsageError(f"--radii must hold >= {need} for m = {args.m}: the u - v fit "
                              f"of degree {degree} needs {need} samples, got {args.radii.size}")
        if args.radii[-1] > cfg.r_end:
            # u is not known past r_end, so neither is the u - v fit there
            raise _UsageError(f"--radii must not exceed --r-end {cfg.r_end!r}, "
                              f"got {float(args.radii[-1])!r}")
    a = analyze(cfg, args.radii)
    if a.vprof is None:
        raise ValueError(far_field_refusal(a.traj, a.report.w0_error_estimate))
    out = _resolve_out(args)
    a.vprof.to_csv(out / "v_profile.csv", header=("r", "v", "err_bar"))
    _write_json(out / "fit.json", _fit_json(a.fit))
    print(f"v evaluated at {a.vprof.grid.size} radii, max err bar {np.max(a.vprof.err):.3g}")
    print(f"u - v fit: degree {a.fit.inferred_degree}, residual rms {a.fit.residual_rms:.3g}")
    print(f"wrote {out / 'v_profile.csv'} and {out / 'fit.json'}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _config(args)
    out = _resolve_out(args)
    verdict = analyze(cfg).verdict
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
    import numpy as np

    from .greenball import RadialProfile, exp_integrability, navier_solve_radial

    m = args.m
    n = 2 * m
    grid = np.linspace(0.0, 1.0, args.points)
    f_vals = (1.0 - grid**2) ** 2
    f1 = RadialProfile(grid=grid, values=f_vals, m=m)
    v1 = navier_solve_radial(f1)
    rows = []

    positive = bool(np.all(v1.values >= 0.0))
    rows.append(("positivity: f >= 0 gives v >= 0 at all nodes", positive))

    i1 = exp_integrability(v1, p=1.0).value
    worst = 0.0
    for scale in (2.0, 4.0):
        f_scaled = RadialProfile(grid=scale * grid, values=f_vals / scale**n, m=m)
        i_scaled = exp_integrability(navier_solve_radial(f_scaled), p=1.0).value
        worst = max(worst, abs(i_scaled - scale**n * i1) / (scale**n * i1))
    rows.append((f"scaling covariance I(R) = R^{n} I(1), rel err {worst:.2e} <= 1e-8",
                 worst <= 1e-8))

    crit = exp_integrability(v1, p=float(_critical_p(m)))
    finite = math.isfinite(crit.value) and not crit.overflow
    rows.append(("exp integrability at p*|f|_L1 = gamma_m/2: "
                 f"I = {crit.value:.6g} " + ("finite" if finite else "is not finite"), finite))

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
    import numpy as np

    from .shooter import ShootingConfig, scalar_curvature, standard_config

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
         standard_config(1),
         [is_standard, alpha_close(1e-3)]),
        ("standard m=2",
         standard_config(2),
         [is_standard, alpha_close(1e-4), rg_spherical, rg_tail_spherical,
          lambda row, traj: abs(row["lim_dau"]) <= 1e-3]),
        ("standard m=3",
         standard_config(3),
         [is_standard, alpha_close(1e-3), rg_tail_spherical]),
        ("perturbed m=2 (u''(0) = -2.2)",
         ShootingConfig(m=2, initial_derivatives=(log2, -2.2)),
         [is_nonstandard, rg_unbounded]),
        ("nonstandard m=2 (u''(0) = -3)",
         ShootingConfig(m=2, initial_derivatives=(log2, -3.0)),
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
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
