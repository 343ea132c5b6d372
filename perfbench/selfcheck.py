"""Fast self-check of the harness: `python3 perfbench/run.py --self-check`.

Checks the seeded generator (determinism and the sweep's stratified split),
the span self-time arithmetic, that wrappers pass results through and are
removed again, that every wrapped name still exists in the package, and
that the harness emits exactly the metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np

import run
import spans
import workloads


def check_generator():
    for wl in workloads.WORKLOADS:
        for seed in (0, 1, 12345):
            assert workloads.make_inputs(wl, seed) == workloads.make_inputs(wl, seed), wl
    assert workloads.make_inputs("sweep", 1) != workloads.make_inputs("sweep", 2)
    assert workloads.make_inputs("profile", 1) != workloads.make_inputs("profile", 2)
    for seed in range(300):
        items = workloads.make_inputs("sweep", seed)
        for band, (lo, hi, expect) in workloads.SWEEP_BANDS.items():
            d2 = sorted(it["d2"] for it in items if it["band"] == band)
            assert len(d2) == workloads.SWEEP_PER_BAND, (seed, band)
            assert all(lo <= x <= hi for x in d2), (seed, band)
            strata = np.floor((np.array(d2) - lo) / (hi - lo) * len(d2))
            assert list(strata) == list(range(len(d2))), (seed, band, d2)
            assert all(it["expect"] == expect for it in items if it["band"] == band)
        gap = min(abs(it["d2"] - workloads.STANDARD_D2) for it in items)
        assert gap >= 0.1, (seed, gap)
        for it in workloads.make_inputs("profile", seed):
            r = np.array(it["radii"])
            assert r.size == workloads.PROFILE_RADII and np.all(np.diff(r) > 0)
            assert r[0] >= 1.0 and r[-1] <= it["r_end"] / 2.0


def check_self_times():
    tr = spans.Tracer([])
    # root cli [0, 10] > shooter [1, 4] > represent [2, 3]; cli [5, 6] under root
    tr.spans = [["item", "cli", None, 0.0, 10.0],
                ["shoot", "shooter", 0, 1.0, 4.0],
                ["compute_v", "represent", 1, 2.0, 3.0],
                ["inner", "cli", 0, 5.0, 6.0]]
    s = tr.summary((0, Counter()))
    assert s["self_s"] == {"cli": 7.0, "shooter": 2.0, "represent": 1.0}, s
    assert sum(s["self_s"].values()) == 10.0
    assert s["calls"] == {"cli": 1, "shooter": 1, "represent": 1}, s


def check_wrappers():
    class Owner:
        def method(self, x):
            return x + 1

    mod = types.SimpleNamespace(fn=lambda x: 2 * x)
    orig_fn, orig_method = mod.fn, Owner.__dict__["method"]

    def count(counts, args, kwargs, out):
        counts["seen"] += out

    tr = spans.Tracer([(mod, "fn", "shooter", count), (Owner, "method", "represent", None)])
    tr.install()
    try:
        assert mod.fn(3) == 6 and Owner().method(3) == 4
    finally:
        tr.uninstall()
    assert mod.fn is orig_fn and Owner.__dict__["method"] is orig_method
    assert tr.counts == {"seen": 6} and [sp[0] for sp in tr.spans] == ["fn", "method"]


def check_targets(root: Path):
    src = root / "src"
    if not (src / "polyliouville").is_dir():
        print("self-check: no src/polyliouville here; wrapped names not checked")
        return
    sys.path.insert(0, str(src))
    import polyliouville as pl
    import polyliouville.cli  # noqa: F401

    for owner, attr, layer, _ in spans.targets(pl):
        assert attr in vars(owner), f"{owner!r} has no {attr}"
        assert layer in spans.LAYERS


def check_metric_names(root: Path):
    declared = json.loads((root / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([(0, 1.0, 0.02), (1, 3.0, 0.02), (0, 2.0, 0.02)],
                         [(0.5, 0.02)], 100.0)
    assert e2e["wall_s"] == 1.5 + 3.0 and e2e["item_p50_s"] == 2.25
    # a machine twice as slow, as the probe sees it, reads the same
    slow = run.end_to_end([(0, 2.0, 0.04), (1, 6.0, 0.04), (0, 4.0, 0.04)],
                          [(1.0, 0.04)], 100.0)
    assert slow == e2e, (slow, e2e)
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"]), sorted(e2e)
    summary = {"self_s": Counter(cli=1.0), "name_s": Counter(), "calls": Counter(cli=1),
               "counts": Counter(), "bytes_written": 0}
    layer, mismatches = run.per_layer([[1.0]], [[1.1]], [[summary, summary]],
                                      {"import.total_s": 0.7, "import.scipy_s": 0.3})
    assert not mismatches
    assert sorted(layer) == sorted(m["name"] for m in declared["per_layer"]), sorted(layer)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def main() -> int:
    root = Path.cwd()
    check_generator()
    check_self_times()
    check_wrappers()
    check_targets(root)
    check_metric_names(root)
    print("self-check ok")
    return 0
