"""Spans around the calls one vacgrab module makes into another.

Tracing wraps, at run time, the names a module looks up in another
(for example `statics.holding_force` as `feasibility` calls it, or
`vacgrab.cli.evaluate`) and restores them afterwards. Nothing in the
program changes, and an untraced run patches nothing.

A span is (name, start_ns, end_ns, parent index, operation id). Spans
stay in memory; the runner writes them out when the run ends. Counts
(bytes, positions, steps, ...) are taken from arguments and results
after each span has closed, so they add no time to it.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

from . import oracles

# span name -> "module:attribute" names that resolve to the traced function
TARGETS = {
    "cli.main": ("vacgrab.cli:main",),
    "cli.parse_corpus_csv": ("vacgrab.cli:parse_corpus_csv",),
    "cli.parse_config": ("vacgrab.cli:parse_config",),
    "cli.parse_document": ("vacgrab.cli:parse_document",),
    "cli.emit_batch": ("vacgrab.cli:emit_batch",),
    "cli.emit_report": ("vacgrab.cli:emit_report",),
    "cli.emit_layout_svg": ("vacgrab.cli:emit_layout_svg",),
    "feasibility.run_corpus": ("vacgrab.feasibility:run_corpus", "vacgrab.cli:run_corpus"),
    "feasibility.evaluate": ("vacgrab.feasibility:evaluate", "vacgrab.cli:evaluate"),
    "statics.holding_force": ("vacgrab.statics:holding_force",),
    "statics.required_pressure": ("vacgrab.statics:required_pressure",),
    "pneumatics.line_loss_total": ("vacgrab.pneumatics:line_loss_total",),
    "pneumatics.net_supply_vacuum": ("vacgrab.pneumatics:net_supply_vacuum",),
    "vgtc.calibrate_spacing": ("vacgrab.vgtc:calibrate_spacing", "vacgrab.cli:calibrate_spacing"),
    "vgtc.generate_layout": (
        "vacgrab.vgtc:generate_layout",
        "vacgrab.feasibility:generate_layout",
        "vacgrab.cli:generate_layout",
    ),
    "vgtc.effective_ratio": (
        "vacgrab.vgtc:effective_ratio",
        "vacgrab.feasibility:effective_ratio",
        "vacgrab.cli:effective_ratio",
    ),
    "vgtc.circle_polygon_intersection_area": (
        "vacgrab.vgtc:circle_polygon_intersection_area",
        "vacgrab.cli:circle_polygon_intersection_area",
    ),
    # every Polygon construction runs its validation in __post_init__
    "model.polygon": ("vacgrab.model:Polygon.__post_init__",),
}


def _full_disk(circle, outline) -> bool:
    """Whether the disk lies wholly on an axis-aligned rectangular outline."""
    verts = outline.vertices
    xs = {x for x, _ in verts}
    ys = {y for _, y in verts}
    if len(verts) != 4 or len(xs) != 2 or len(ys) != 2:
        return False
    (cx, cy), r = circle.center, circle.radius
    return min(xs) <= cx - r and cx + r <= max(xs) and min(ys) <= cy - r and cy + r <= max(ys)


def _count(counts: dict, name: str, amount) -> None:
    counts[name] = counts.get(name, 0) + amount


def _on_calibrate(counts, args, kwargs, result):
    _, _, _, (low, high), step = args
    samples = len(oracles.scan(float(low), float(high), step))  # computed from range/step
    _count(counts, "vgtc.calibrate_spacing.samples", samples)
    _count(counts, "vgtc.calibrate_spacing.matches", sum(round((b - a) / step) + 1 for a, b in result))


COUNTERS = {
    "cli.emit_batch": lambda c, a, k, r: _count(c, "cli.emit_batch.bytes", len(r)),
    "cli.emit_report": lambda c, a, k, r: _count(c, "cli.emit_report.bytes", len(r)),
    "cli.emit_layout_svg": lambda c, a, k, r: _count(c, "cli.emit_layout_svg.bytes", len(r)),
    "feasibility.run_corpus": lambda c, a, k, r: _count(
        c, "feasibility.run_corpus.error_entries", sum(e.error is not None for e in r)
    ),
    "pneumatics.line_loss_total": lambda c, a, k, r: _count(c, "pneumatics.line_loss_total.steps", len(r[1])),
    "vgtc.generate_layout": lambda c, a, k, r: _count(c, "vgtc.generate_layout.positions", len(r.positions)),
    "vgtc.effective_ratio": lambda c, a, k, r: _count(c, "vgtc.effective_ratio.full_disks", _full_disk(*a)),
    "vgtc.calibrate_spacing": _on_calibrate,
    # pairs of non-adjacent edges the O(n^2) simplicity check visits
    "model.polygon": lambda c, a, k, r: _count(
        c, "model.polygon.pair_checks", max(len(a[0].vertices) * (len(a[0].vertices) - 3) // 2, 0)
    ),
}


class Tracer:
    """Collects spans and counts while `instrument()` is active."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Replace every traced name with a span-recording wrapper, then restore it."""
    saved = []
    try:
        for name, targets in TARGETS.items():
            wrappers = {}
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = tracer.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy and self time (ns), and intersections by caller."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["busy_ns"] += end - start
        agg["self_ns"] += end - start - child_ns[i]
        if name == "vgtc.circle_polygon_intersection_area":
            caller = parent
            while caller >= 0 and spans[caller][0] not in ("feasibility.evaluate", "cli.emit_layout_svg"):
                caller = spans[caller][3]
            if caller >= 0:
                key = spans[caller][0] + ".intersections"
                out.setdefault(key, {"calls": 0})["calls"] += 1
    return out
