"""Spans and counters around ergolab's layers, installed from outside.

`install(tracer)` swaps wrapped versions of the layer functions into every
loaded ergolab module that holds a reference to them (a name imported with
`from .x import f` is a separate reference per module), and wraps three
`PointsView` methods on the class. Nothing under src/ is edited.

A span records name, start, end, parent and thread. A span opened on a
worker thread with nothing open on that thread takes the innermost span
open on the main thread as its parent, so the cases that
`run_scenario(jobs=2)` hands to its thread pool nest under it. Self time
is a span's duration minus the union of its children's intervals (children
on two threads can overlap). Self times and counters are summed per round
as each span closes; the spans themselves are kept for the first round and
written out as a trace file.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import threading
import time

# Per-layer metrics of BENCHMARK.json that are exact counts.
COUNT_METRICS = (
    "scan.calls", "scan.exact_checks", "scan.exact_distances", "scan.hits", "scan.views",
    "variation.pvar_distances", "averages.rows", "bounds.drift_rows",
    "spaces.norm_calls", "spaces.norm_rows", "scenarios.report_bytes",
)
# metric -> span names whose self time it sums
TIME_METRICS = {
    "scan.ms": ("scan",),
    "scan.view_ms": ("scan.view",),
    "variation.count_ms": ("variation.count",),
    "variation.rate_ms": ("variation.rate",),
    "variation.meta_ms": ("variation.meta",),
    "variation.pvar_ms": ("variation.pvar",),
    "averages.ms": ("averages.rotation", "averages.dense", "averages.cyclic"),
    "averages.rotation_ms": ("averages.rotation",),
    "averages.dense_ms": ("averages.dense",),
    "averages.cyclic_ms": ("averages.cyclic",),
    "bounds.drift_ms": ("bounds.drift",),
    "spaces.norm_ms": ("spaces.norm",),
    "counterexamples.ms": ("counterexamples",),
    "dyadic.ms": ("dyadic",),
    "scenarios.run_ms": ("scenarios.run",),
    "scenarios.emit_ms": ("scenarios.emit",),
}

UNITS = {**{m: "ms" for m in TIME_METRICS}, **{m: "count" for m in COUNT_METRICS},
         "scenarios.report_bytes": "B", "scan.hit_ratio": "ratio"}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class _Open:
    __slots__ = ("ident", "name", "start", "parent", "children")

    def __init__(self, ident, name, start, parent):
        self.ident, self.name, self.start, self.parent = ident, name, start, parent
        self.children: list[tuple[float, float]] = []


class Tracer:
    """In-memory spans and counters, aggregated per round."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Open]] = collections.defaultdict(list)
        self._main = threading.main_thread().ident
        self._next = 0
        self.round = -1
        self.active = False  # off outside rounds, so output checks are not counted
        self.self_s: list[collections.Counter] = []
        self.counts: list[collections.Counter] = []
        self.spans: list[tuple] = []  # first round only

    def start_round(self) -> None:
        with self._lock:
            self.round = len(self.self_s)
            self.self_s.append(collections.Counter())
            self.counts.append(collections.Counter())

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[self.round][name] += n

    def innermost(self) -> str | None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1].name
        main = self._stacks.get(self._main)
        return main[-1].name if main else None

    def open(self, name: str) -> _Open:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            parent = stack[-1] if stack else (self._stacks[self._main][-1]
                                              if self._stacks[self._main] else None)
            span = _Open(self._next, name, 0.0, parent)
            self._next += 1
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: _Open) -> None:
        end = time.perf_counter()
        tid = threading.get_ident()
        with self._lock:
            self._stacks[tid].pop()
            own = (end - span.start) - _covered(span.children, span.start, end)
            self.self_s[self.round][span.name] += own
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            if self.round == 0:
                self.spans.append((span.ident, span.name, span.start, end,
                                   None if span.parent is None else span.parent.ident, tid))

    def metrics(self, round_index: int) -> dict[str, float]:
        """Per-layer metrics of one round: self times in ms, exact counts."""
        self_s, counts = self.self_s[round_index], self.counts[round_index]
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = 1e3 * sum(self_s[name] for name in names)
        for metric in COUNT_METRICS:
            out[metric] = counts[metric]
        checks = counts["scan.exact_checks"]
        out["scan.hit_ratio"] = counts["scan.hits"] / checks if checks else 0.0
        return out

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def _span_wrapper(tracer: Tracer, fn, name_of, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name_of(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "ergolab" and not modname.startswith("ergolab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of every loaded ergolab module."""
    from ergolab import _scan, averages, bounds, counterexamples, dyadic, scenarios, spaces, variation

    def fixed(name):
        return lambda *a, **k: name

    def wrap(module, attr, name_of, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, _span_wrapper(tracer, original, name_of, after))

    def norm_counts(result, points, *rest):
        tracer.count("spaces.norm_calls")
        tracer.count("spaces.norm_rows", len(points))

    wrap(spaces, "batch_norm_p", fixed("spaces.norm"), norm_counts)

    def scan_counts(result, *args, **kwargs):
        tracer.count("scan.calls")
        if result is not None:
            tracer.count("scan.hits")

    wrap(_scan, "first_violation", fixed("scan"), scan_counts)
    wrap(variation, "count_fluctuations", fixed("variation.count"))
    wrap(variation, "empirical_convergence_rate", fixed("variation.rate"))
    wrap(variation, "metastability_rate", fixed("variation.meta"))
    wrap(variation, "max_p_variation", fixed("variation.pvar"))

    kinds = {"RotationProduct": "averages.rotation", "DenseMatrix": "averages.dense",
             "CyclicShift": "averages.cyclic"}
    wrap(averages, "ergodic_averages", lambda op, x, n: kinds[type(op).__name__],
         lambda result, op, x, n: tracer.count("averages.rows", int(n)))

    def drift_rows(result, traj):
        tracer.count("bounds.drift_rows", traj.horizon * (traj.horizon - 1) // 2)

    wrap(bounds, "drift_bound_check", fixed("bounds.drift"), drift_rows)
    wrap(counterexamples, "verify_metastability_lower_bound", fixed("counterexamples"))
    wrap(dyadic, "verify_decomposition_inequalities", fixed("dyadic"))
    wrap(scenarios, "run_scenario", fixed("scenarios.run"))
    wrap(scenarios, "emit_report", fixed("scenarios.emit"),
         lambda body, *a, **k: tracer.count("scenarios.report_bytes", len(body.encode("utf-8"))))

    view = _scan.PointsView
    view.__init__ = _span_wrapper(tracer, view.__init__, fixed("scan.view"),
                                  lambda result, *a, **k: tracer.count("scan.views"))
    view.cumdrift = _span_wrapper(tracer, view.cumdrift, fixed("scan.view"))
    distances_to = view.distances_to

    @functools.wraps(distances_to)
    def counted_distances(self, j, lo, hi):
        where = tracer.innermost() if tracer.active else None
        if where == "scan":
            tracer.count("scan.exact_checks")
            tracer.count("scan.exact_distances", hi - lo)
        elif where == "variation.pvar":
            tracer.count("variation.pvar_distances", hi - lo)
        return distances_to(self, j, lo, hi)

    view.distances_to = counted_distances
