"""Metric names and how each is computed from a run.

Units and directions are declared once, in BENCHMARK.json.

End-to-end metrics come from the untraced run only; per-layer metrics
from the traced run. Per-layer times and counts are per cycle (one
pass over the workload's generated inputs), so counts repeat exactly
for a seed and times compare across commits.

Every time is in reference milliseconds (see reference.py): wall time
scaled by reference work timed next to it, which cancels the shared
machine's changes of speed.
"""

from __future__ import annotations

import json
import math
import statistics

END_TO_END = ("setup_s", "peak_mem_mib", "op_ms_p50", "op_ms_p90", "items_per_s")

# each workload's own name for the generic latency and throughput metrics
ALIASES = {
    "corpus": ("batch_ms", "rows_per_s"),
    "geometry.check": ("check_ms", "positions_per_s"),
    "geometry.clip": ("clip_ms", "clipped_positions_per_s"),
    "geometry.calibrate": ("calibrate_ms", "samples_per_s"),
    "geometry.outline": ("outline_ms", "vertices_per_s"),
    "cli": ("invoke_ms", "invocations_per_s"),
}


def _busy(span):
    return lambda s, c: s.get(span, {}).get("busy_ns", 0)


def _self(span):
    return lambda s, c: s.get(span, {}).get("self_ns", 0)


def _calls(span):
    return lambda s, c: s.get(span, {}).get("calls", 0)


def _counter(key):
    return lambda s, c: c.get(key, 0)


def _share(numerator, denominator):
    return lambda s, c: numerator(s, c) / denominator(s, c) if denominator(s, c) else 0.0


# name -> f(span summary, counts), or None for values measured outside the
# traced cycles. Units are read from BENCHMARK.json. "Computed" counts come
# from arguments (range/step, vertex count), not from work observed.
PER_LAYER = {
    "cli.parse_corpus_csv.busy_ms": _busy("cli.parse_corpus_csv"),
    "cli.emit_batch.busy_ms": _busy("cli.emit_batch"),
    "cli.emit_batch.bytes": _counter("cli.emit_batch.bytes"),
    "cli.parse_config.busy_ms": _busy("cli.parse_config"),
    "cli.parse_document.busy_ms": _busy("cli.parse_document"),
    "cli.emit_report.busy_ms": _busy("cli.emit_report"),
    "cli.emit_report.bytes": _counter("cli.emit_report.bytes"),
    "cli.emit_layout_svg.busy_ms": _busy("cli.emit_layout_svg"),
    "cli.emit_layout_svg.intersections": _calls("cli.emit_layout_svg.intersections"),
    "cli.emit_layout_svg.bytes": _counter("cli.emit_layout_svg.bytes"),
    "cli.main.busy_ms": _busy("cli.main"),
    "cli.import_ms": None,  # fresh interpreters, see run.py
    "cli.interp_floor_ms": None,
    "feasibility.evaluate.calls": _calls("feasibility.evaluate"),
    "feasibility.evaluate.busy_ms": _busy("feasibility.evaluate"),
    "feasibility.evaluate.self_ms": _self("feasibility.evaluate"),
    "feasibility.evaluate.intersections": _calls("feasibility.evaluate.intersections"),
    "feasibility.run_corpus.busy_ms": _busy("feasibility.run_corpus"),
    "feasibility.run_corpus.error_entries": _counter("feasibility.run_corpus.error_entries"),
    "statics.holding_force.calls": _calls("statics.holding_force"),
    "statics.holding_force.busy_ms": _busy("statics.holding_force"),
    "statics.required_pressure.busy_ms": _busy("statics.required_pressure"),
    "pneumatics.line_loss_total.calls": _calls("pneumatics.line_loss_total"),
    "pneumatics.line_loss_total.busy_ms": _busy("pneumatics.line_loss_total"),
    "pneumatics.line_loss_total.steps": _counter("pneumatics.line_loss_total.steps"),
    "pneumatics.net_supply_vacuum.busy_ms": _busy("pneumatics.net_supply_vacuum"),
    "vgtc.generate_layout.calls": _calls("vgtc.generate_layout"),
    "vgtc.generate_layout.busy_ms": _busy("vgtc.generate_layout"),
    "vgtc.generate_layout.positions": _counter("vgtc.generate_layout.positions"),
    "vgtc.effective_ratio.calls": _calls("vgtc.effective_ratio"),
    "vgtc.effective_ratio.busy_ms": _busy("vgtc.effective_ratio"),
    "vgtc.effective_ratio.full_disk_share": _share(
        _counter("vgtc.effective_ratio.full_disks"), _calls("vgtc.effective_ratio")
    ),
    "vgtc.circle_polygon_intersection_area.calls": _calls("vgtc.circle_polygon_intersection_area"),
    "vgtc.calibrate_spacing.busy_ms": _busy("vgtc.calibrate_spacing"),
    "vgtc.calibrate_spacing.samples": _counter("vgtc.calibrate_spacing.samples"),
    "vgtc.calibrate_spacing.match_share": _share(
        _counter("vgtc.calibrate_spacing.matches"), _counter("vgtc.calibrate_spacing.samples")
    ),
    "model.polygon.calls": _calls("model.polygon"),
    "model.polygon.busy_ms": _busy("model.polygon"),
    "model.polygon.pair_checks": _counter("model.polygon.pair_checks"),
    "trace_overhead_share": None,  # traced vs untraced cycles, see run.py
}

def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(samples_ms, items: int, setup_s: float, peak_mem_mib: float) -> dict:
    """Latency percentiles over every timed operation, and work per second."""
    ordered = sorted(samples_ms)
    return {
        "setup_s": setup_s,
        "peak_mem_mib": peak_mem_mib,
        "op_ms_p50": statistics.median(ordered),
        "op_ms_p90": percentile(ordered, 0.9),
        "items_per_s": items / (sum(ordered) * 1e-3),
    }


def per_layer(cycles, extra: dict) -> dict:
    """Per-cycle layer metrics: counts from the first traced cycle, times as medians.

    Each cycle is (span summary, counts, reference ms per wall ns). Every
    time's name ends in `_ms`.
    """
    out = {}
    for name, fn in PER_LAYER.items():
        if fn is None:
            out[name] = extra[name]
        elif name.endswith("_ms"):
            out[name] = statistics.median(fn(s, c) * ms_per_ns for s, c, ms_per_ns in cycles)
        else:
            out[name] = fn(*cycles[0][:2])
    return out


def units(benchmark_json) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(benchmark_json, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
