"""Run every workload and print one table: `python3 perfbench/report.py`.

Runs use BENCHMARK.json's run_seconds and a fixed seed.  For each
workload: one untraced run (end-to-end metrics, failed_frac and
accuracy columns) and two traced runs (per-layer metrics; their counts must
repeat exactly).  Layer shares are self time over traced wall time, and the
tracing overhead is traced minus untraced wall time of the same items.
Exits 1 if any run reports a failure or the traced counts differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
SEED = 0


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def table(title, names, columns, fmt):
    print(f"\n{title}")
    print(f"  {'metric':36s}" + "".join(f"{w:>14s}" for w in columns))
    for name in names:
        cells = "".join(f"{fmt(name, col.get(name)):>14s}" for col in columns.values())
        print(f"  {name:36s}{cells}")


def num(value):
    return "-" if value is None else f"{value:.4g}"


def main() -> int:
    e2e, layer, acc, extra = {}, {}, {}, {}
    ok = True
    env = None
    for w in workloads.WORKLOADS:
        detail, result = bench(w, 0)
        env = detail["env"]
        traced = [bench(w, 1) for _ in range(2)]
        (_, first), (_, second) = traced
        e2e[w] = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        layer[w] = {k: (v["value"], v["unit"]) for k, v in first["metrics"].items()}
        acc[w] = detail["accuracy"]
        counts_repeat = all(
            first["metrics"][k]["value"] == second["metrics"][k]["value"]
            for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes"))
        wall = first["metrics"]["trace.wall_s"]["value"]
        self_sum = sum(first["metrics"][f"{n}.self_s"]["value"] for n in spans.LAYERS)
        failures = [r["failed"] for _, r in [(detail, result)] + traced]
        attempted = [r["attempted"] for _, r in [(detail, result)] + traced]
        extra[w] = {
            "failed_frac": sum(failures) / sum(attempted),
            "attempted": sum(attempted),
            "traced counts repeat": counts_repeat,
            "self times / traced wall": self_sum / wall,
            "tracing overhead": first["metrics"]["trace.overhead_s"]["value"] / wall,
        }
        for n in spans.LAYERS:
            extra[w][f"share {n}"] = first["metrics"][f"{n}.self_s"]["value"] / wall
        ok = ok and counts_repeat and all(r["correct"] for _, r in [(detail, result)] + traced)
        for msg in detail["failures"]:
            print(f"{w}: {msg}")

    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"seed {SEED}, {SECONDS} s per run")
    names = list(e2e[workloads.WORKLOADS[0]])
    table("end to end (untraced)", names, e2e,
          lambda n, v: "-" if v is None else f"{v[0]:.4g} {v[1]}")
    table("correctness", list(extra[workloads.WORKLOADS[0]])[:3], extra,
          lambda n, v: str(v) if isinstance(v, bool) else num(v))
    table("accuracy (lower is better; rg_tail_dev_max relative, the rest absolute)",
          sorted({k for a in acc.values() for k in a}), acc,
          lambda n, v: "-" if v is None else f"{v:.3g}")
    table("shares of traced wall time", list(extra[workloads.WORKLOADS[0]])[3:], extra,
          lambda n, v: f"{100 * v:.1f}%")
    table("per layer (traced, one pass)", list(layer[workloads.WORKLOADS[0]]), layer,
          lambda n, v: f"{v[0]:.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
