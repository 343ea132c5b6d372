"""polyliouville benchmark: time-to-verdict end to end, and layer by layer.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload paper|sweep|profile --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check     # fast check of the harness
    python3 perfbench/report.py               # all workloads, one table

One process, one thread.  Items of the workload (see workloads.py) run
round-robin after one warm-up item, until every item has run and S seconds
have passed.  Every run checks every item's output.

--trace 0 prints the end-to-end metrics: setup_s (median start-up of fresh
interpreters running `polyliouville --help`), wall_s (one pass: the sum
over items of each item's median time), item_p50_s / item_p90_s (over the
items' median times) and peak_rss_mb (this process).  Times are scaled to
a fixed machine speed measured by a reference probe (see PROBE_REF_S).
--trace 1 runs each item untraced and then traced, with pass-through
wrappers around the public names each layer is called through
(spans.targets), and prints per-layer self times and counts for one pass.

The last stdout line is the result object; the line before it holds the
detail (environment stamp, inputs, accuracy columns, failures, samples).
Spans of a traced run are written to perfbench/out/.
"""

from __future__ import annotations

import os

# one thread for every numerical library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402  (this script's directory is first on sys.path)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
SETUP_RUNS = 5
IMPORT_TRACE_RUNS = 3
SETUP_CODE = "from polyliouville.cli import main; main()"

# Other tenants of a shared machine slow all work in this process by up to
# ~40% for seconds to minutes at a time, often for a whole run, which no
# number of repeats within one run averages out.  A fixed reference
# computation, the probe, runs before and after every timed operation, and
# end-to-end times are scaled by PROBE_REF_S over the median probe time of
# the run: seconds at a fixed machine speed.  The probe mixes interpreter
# work and numpy transcendental work, the two kinds of work the program
# does, and never calls the program.
PROBE_REF_S = 0.02
_PROBE_X = np.linspace(0.5, 2.0, 2048)[:, None] * np.linspace(1.0, 3.0, 96)


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i
    w = np.ones(96)
    for _ in range(4):
        (np.log(_PROBE_X * _PROBE_X + 1.0) + np.exp(-_PROBE_X)) @ w
    return time.perf_counter() - t0


def probed(fn, *args):
    """Run fn, which returns the seconds it measured, between two probes:
    (those seconds, mean probe seconds)."""
    before = probe()
    raw = fn(*args)
    return raw, 0.5 * (before + probe())


def at_reference_speed(runs):
    """Scale the seconds of (seconds, probe seconds) pairs to the probe's
    reference speed."""
    factor = PROBE_REF_S / statistics.median(p for _, p in runs)
    return [raw * factor for raw, _ in runs]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_cli(root: Path) -> float:
    """Wall time of a fresh interpreter that imports the package and builds
    the CLI parser (`polyliouville --help`)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, "--help"], cwd=root,
                   env=_child_env(root), stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def measure_imports(root: Path) -> dict:
    """import.total_s and import.scipy_s from `-X importtime` self times."""
    totals, scipys = [], []
    for _ in range(IMPORT_TRACE_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", SETUP_CODE, "--help"],
            cwd=root, env=_child_env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True)
        total = scipy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            total += int(self_us)
            if name.strip().split(".")[0] == "scipy":
                scipy += int(self_us)
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return {"import.total_s": _median(totals), "import.scipy_s": _median(scipys)}


def env_stamp(root: Path) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


class Run:
    """Runs and checks the items of one workload; collects samples."""

    def __init__(self, pl, specs, out: Path):
        self.pl, self.specs, self.out = pl, specs, out
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.accuracy: dict[str, float] = {}

    def item(self, i: int, tracer=None) -> float:
        """Run item i once (inside a root span when traced), check it, and
        return its wall time."""
        spec = self.specs[i]
        workloads.clear_dir(self.out)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workloads.run_item(self.pl, spec, self.out)
            else:
                layer = "caller" if spec["kind"] == "profile" else "cli"
                result = tracer.span("item", layer, workloads.run_item,
                                     self.pl, spec, self.out)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"item {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            attempted, failures, acc = workloads.check_item(self.pl, spec, result, self.out)
        except (OSError, KeyError, ValueError) as exc:
            attempted, failures, acc = 1, [f"item {i}: unreadable output: {exc}"], {}
        self.attempted += attempted
        self.failed += min(len(failures), attempted)   # an output may fail twice
        self.failures += failures
        for key, val in acc.items():
            self.accuracy[key] = max(val, self.accuracy.get(key, val))
        return elapsed


def run_untraced(run: Run, seconds: float):
    """Chronological (item index, seconds, probe seconds) triples."""
    n = len(run.specs)
    run.item(0)  # warm-up: lazy imports and kernel rules; not timed
    runs = []
    t_start = time.perf_counter()
    while len(runs) < n or time.perf_counter() - t_start < seconds:
        i = len(runs) % n
        runs.append((i, *probed(run.item, i)))
    return runs


def run_traced(run: Run, seconds: float, tracer):
    """Each item runs untraced and then traced, so the difference of the
    two is the tracing overhead under the same conditions."""
    n = len(run.specs)
    run.item(0)
    plain = [[] for _ in range(n)]
    traced = [[] for _ in range(n)]
    summaries = [[] for _ in range(n)]
    t_start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - t_start < seconds:
        i = k % n
        plain[i].append(run.item(i))
        mark = tracer.mark()
        tracer.install()
        try:
            traced[i].append(run.item(i, tracer))
        finally:
            tracer.uninstall()
        summary = tracer.summary(mark)
        summary["bytes_written"] = workloads.bytes_in(run.out)
        summaries[i].append(summary)
        k += 1
    return plain, traced, summaries


def end_to_end(runs, setup, rss_mb) -> dict:
    """End-to-end metric values at reference speed, from the triples of
    `run_untraced` and the (seconds, probe seconds) pairs of set-up runs.

    Each item's time is its median over its runs; wall_s is one pass, the
    sum over items, and item_p50_s / item_p90_s are quantiles over the
    workload's items, the spread of latency across its inputs."""
    times = [[] for _ in range(1 + max(i for i, _, _ in runs))]
    for (i, _, _), t in zip(runs, at_reference_speed([r[1:] for r in runs])):
        times[i].append(t)
    item = [_median(t) for t in times]
    p90 = statistics.quantiles(item, n=10, method="inclusive")[8] if len(item) > 1 else item[0]
    return {
        "setup_s": _median(at_reference_speed(setup)),
        "wall_s": sum(item),
        "item_p50_s": _median(item),
        "item_p90_s": p90,
        "peak_rss_mb": rss_mb,
    }


def per_layer(plain, traced, summaries, imports) -> tuple[dict, list[str]]:
    """Per-layer metrics for one pass: times are the sum over items of the
    item's median, counts are the item's count, which must repeat exactly
    between traced runs of the same item."""
    mismatches = []
    times = Counter()
    counts = Counter()
    for i, item in enumerate(summaries):
        first = item[0]
        for other in item[1:]:
            if (other["counts"] != first["counts"] or other["calls"] != first["calls"]
                    or other["bytes_written"] != first["bytes_written"]):
                mismatches.append(f"item {i}: traced counts differ between runs")
        for layer in spans.LAYERS:
            times[f"{layer}.self_s"] += _median([s["self_s"][layer] for s in item])
            counts[f"{layer}.calls"] += first["calls"][layer]
        for name in ("average_many", "pizzetti_check", "almansi_random"):
            times[name] += _median([s["name_s"][name] for s in item])
        counts.update(first["counts"])
        counts["cli.bytes_written"] += first["bytes_written"]

    def frac(num, den):
        return num / den if den else 0.0

    wall = sum(_median(t) for t in traced)
    plain_wall = sum(_median(t) for t in plain)
    radii = counts["represent.radii"]
    m = {}
    m.update(imports)
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = counts[f"{layer}.calls"]
        m[f"{layer}.self_s"] = times[f"{layer}.self_s"]
    m.update({
        "cli.bytes_written": counts["cli.bytes_written"],
        "shooter.nfev_main": counts["shooter.nfev_main"],
        "shooter.nfev_companion": counts["shooter.nfev_companion"],
        "shooter.grid_points": counts["shooter.grid_points"],
        "shooter.nfev_truncated": counts["shooter.nfev_truncated"],
        "shooter.reached_end_frac": frac(counts["shooter.terminations.reached_end"],
                                         counts["shooter.main_runs"]),
        "shooter.terminations.reached_end": counts["shooter.terminations.reached_end"],
        "shooter.terminations.blowup": counts["shooter.terminations.blowup"],
        "shooter.terminations.step_underflow": counts["shooter.terminations.step_underflow"],
        "represent.radii": radii,
        "represent.s_per_radius": frac(times["represent.self_s"], radii),
        "represent.kernel_calls": counts["represent.kernel_calls"],
        "represent.kernel_points": counts["represent.kernel_points"],
        "represent.kernel_s": times["average_many"],
        "represent.nan_frac": frac(counts["represent.nan_values"], radii),
        "classify.decided_frac": frac(counts["classify.decided"], counts["classify.calls"]),
        "polyfield.cases": counts["polyfield.cases"],
        "polyfield.pizzetti_s": times["pizzetti_check"],
        "polyfield.almansi_s": times["almansi_random"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": wall - plain_wall,
    })
    return m, mismatches


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="check the harness itself and exit")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    root = Path.cwd()
    src = root / "src"
    if not (src / "polyliouville" / "__init__.py").is_file():
        print(f"no polyliouville sources under {src}: run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import polyliouville as pl
    import polyliouville.cli  # noqa: F401  (binds pl.cli)

    if Path(pl.__file__).resolve().parent != (src / "polyliouville").resolve():
        print(f"imported polyliouville from {pl.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    specs = workloads.make_inputs(args.workload, args.seed)
    out_root = HERE / "out"
    out = out_root / f"run-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    run = Run(pl, specs, out)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env_stamp(root)}
    problems = []   # wrong beyond single items: accuracy, unrepeatable counts
    try:
        if args.trace == 0:
            setup = [probed(start_cli, root) for _ in range(SETUP_RUNS)]
            runs = run_untraced(run, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            values = end_to_end(runs, setup, rss_mb)
            detail["setup_runs"] = setup        # (seconds, probe seconds)
            detail["item_runs"] = runs          # (item, seconds, probe seconds)
        else:
            imports = measure_imports(root)
            tracer = spans.Tracer(spans.targets(pl))
            plain, traced, summaries = run_traced(run, args.seconds, tracer)
            values, mismatches = per_layer(plain, traced, summaries, imports)
            problems += mismatches
            detail["item_samples"] = [len(s) for s in traced]
            detail["span_count"] = len(tracer.spans)
            spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    over = {k: v for k, v in run.accuracy.items()
            if k in workloads.ACCURACY_CEILING and not v <= workloads.ACCURACY_CEILING[k]}
    problems += [f"accuracy {k} = {v:.6g} above ceiling "
                 f"{workloads.ACCURACY_CEILING[k]:.6g}" for k, v in over.items()]
    attempted = max(run.attempted, 1)
    detail.update({
        "items": [{k: v for k, v in s.items() if k != "radii"} for s in specs],
        "accuracy": run.accuracy,
        "failed_frac": run.failed / attempted,
        "failures": (run.failures + problems)[:20],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not (run.failures or problems),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
