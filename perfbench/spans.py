"""In-memory spans around the public names each polyliouville layer is called
through, and their reduction to per-layer self times and counts.

The wrappers live here, outside the package: `Tracer.install` swaps each
target attribute for a pass-through wrapper and `Tracer.uninstall` puts the
original objects back, so untraced passes run the unmodified program.

A span is (name, layer, parent id, start, end).  A layer's self time is the
summed duration of its spans minus the part covered by their child spans;
the self times of one item therefore add up to the item's root span.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

LAYERS = (
    "cli", "caller", "shooter", "represent", "tailfit",
    "classify", "polyfield", "greenball", "exactconst",
)

_STATUS = {0: "reached_end", 1: "blowup", -1: "step_underflow"}


def _count_solve(counts, args, kwargs, sol):
    # the main run samples the whole geometric grid, the companion run
    # asks only for the end point
    if np.size(kwargs.get("t_eval")) > 1:
        counts["shooter.nfev_main"] += sol.nfev
        counts["shooter.main_runs"] += 1
        counts["shooter.grid_points"] += sol.t.size
        counts["shooter.terminations." + _STATUS[sol.status]] += 1
        if sol.status != 0:
            counts["shooter.nfev_truncated"] += sol.nfev
    else:
        counts["shooter.nfev_companion"] += sol.nfev


def _count_kernel(counts, args, kwargs, out):
    counts["represent.kernel_calls"] += 1
    counts["represent.kernel_points"] += int(np.size(args[2]))


def _count_profile(counts, args, kwargs, prof):
    counts["represent.radii"] += prof.grid.size
    counts["represent.nan_values"] += int(np.count_nonzero(np.isnan(prof.values)))


def _count_classify(counts, args, kwargs, report):
    counts["classify.decided"] += report.overall != "inconclusive"


def _count_case(counts, args, kwargs, report):
    counts["polyfield.cases"] += 1


def targets(pkg):
    """(owner, attribute, layer, counter) for every wrapped public name.

    cli.* and shooter.* are module globals looked up at call time;
    KernelCache.average_many is patched on the class.  The package-level
    names serve the library workload, which calls them directly."""
    cli, shooter, represent = pkg.cli, pkg.shooter, pkg.represent
    return [
        (cli, "shoot", "shooter", None),
        (cli, "compute_v", "represent", _count_profile),
        (cli, "fit_even_polynomial", "tailfit", None),
        (cli, "classify", "classify", _count_classify),
        (cli, "pizzetti_check", "polyfield", _count_case),
        (cli, "almansi_random", "polyfield", None),
        (cli, "green_ball", "greenball", None),
        (cli, "verify_gamma_identity", "exactconst", None),
        (shooter, "diagnose", "tailfit", None),
        (shooter, "solve_ivp", "shooter", _count_solve),
        (represent.KernelCache, "average_many", "represent", _count_kernel),
        (pkg, "shoot", "shooter", None),
        (pkg, "compute_v", "represent", _count_profile),
        (pkg, "compute_lap_v", "represent", _count_profile),
        (pkg, "fit_even_polynomial", "tailfit", None),
    ]


class Tracer:
    """Records spans and counts while installed; keeps everything in memory."""

    def __init__(self, targets):
        self._targets = targets
        self._saved = []
        self.spans = []    # [name, layer, parent, start, end]
        self._stack = []
        self.counts = Counter()

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; the root span of an item goes through here."""
        sid = len(self.spans)
        rec = [name, layer, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, layer, counter):
        def wrapper(*args, **kwargs):
            out = self.span(name, layer, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, layer, counter in self._targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, attr, layer, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def mark(self):
        """Position to pass to `summary` for the spans recorded after it."""
        return len(self.spans), Counter(self.counts)

    def summary(self, mark):
        """Self time per layer and per span name, calls per layer and counts,
        for the spans and counts recorded since `mark`."""
        first, counts_before = mark
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, layer, parent, start, end in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        self_s = Counter()
        name_s = Counter()
        calls = Counter()
        for k, (name, layer, parent, start, end) in enumerate(spans):
            own = end - start - child_time[k]
            self_s[layer] += own
            name_s[name] += own
            if parent is None or self.spans[parent][1] != layer:
                calls[layer] += 1
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return {"self_s": self_s, "name_s": name_s, "calls": calls,
                "counts": +counts}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "parent", "start", "end"],
                       "spans": self.spans}, fh)
