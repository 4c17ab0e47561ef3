"""Tests of the benchmark itself: inputs, oracles, tracing and the result line.

Run from the repository root:

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from vgbench import gen, metrics, oracles, trace, workloads  # noqa: E402
from vacgrab import Verdict  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]
IN_PROCESS = ("corpus", "geometry.check", "geometry.clip", "geometry.calibrate", "geometry.outline")


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def small_ops(workload: str, workdir, seed: int = 3, count: int = 3):
    """The `count` cheapest operations of one cycle, in cycle order."""
    bench = workloads.setup(workload, workloads.generate(workload, seed, str(workdir)))
    bench.prepare()
    chosen = sorted(bench.replay, key=lambda op: op.items)[:count]
    return [op for op in bench.replay if op in chosen]


def traced_cycle(ops):
    tracer = trace.Tracer()
    outputs = []
    for i, op in enumerate(ops):
        tracer.op = i
        with trace.instrument(tracer):
            outputs.append(op.output(op.run()))
    return outputs, trace.summarize(tracer.spans), dict(tracer.counts)


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    def inputs(seed):
        if workload == "cli":
            return gen.cli_inputs(seed, ".bench_work/cli")  # pure: writes no files
        return workloads.generate(workload, seed, "unused")

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_generated_outlines_are_simple():
    rng = gen.rng_for("test", 5)
    for n in (50, 140, 400):
        rig = gen.star_rig(rng, f"t{n}", n)
        assert len(rig.outline_m) == n
        assert oracles.is_simple(rig.outline_m)
    assert not oracles.is_simple(((0, 0), (1, 1), (1, 0), (0, 1)))  # a bow tie


def test_corpus_has_both_verdicts_and_error_rows():
    batches = gen.corpus_batches(7)
    assert all(len(batch.rows) == gen.BATCH_ROWS == 12 for batch in batches)  # table1.csv's size
    for batch in batches:
        expected = [oracles.expected_corpus_row(row) for row in batch.rows]
        assert sum(e is None for e in expected) == gen.UNKNOWN_PER_BATCH
    expected = [oracles.expected_corpus_row(row) for batch in batches[:3] for row in batch.rows]
    assert {e["verdict"] for e in expected if e} == {"Pass", "Fail"}


def clipped_share(rigs) -> float:
    clipped = total = 0
    for rig in rigs:
        length, width = rig.outline_m[2]
        xs, ys = oracles.grid_axes(length, width, rig.margin_m, rig.radius_m)
        total += len(xs) * len(ys)
        clipped += sum(oracles._classify((x, y), rig.radius_m, length, width) <= 0 for y in ys for x in xs)
    return clipped / total


def test_check_and_clip_lie_on_either_side_of_the_full_disk_property():
    check, clip = gen.check_rigs(2), gen.clip_rigs(2)
    assert clipped_share(check) == 0.0
    assert clipped_share(clip) > 0.9
    assert all(rig.margin_m == 0.02 and rig.radius_m > rig.margin_m for rig in clip)
    largest = max(check, key=lambda rig: rig.outline_m[2])
    xs, ys = oracles.grid_axes(*largest.outline_m[2], largest.margin_m, largest.radius_m)
    assert len(xs) * len(ys) == 28959  # ROADMAP's 2 x 1.5 m piece at 1 cm


def test_generator_and_oracles_do_not_import_the_program():
    code = "import sys; import vgbench.gen, vgbench.oracles; print('vacgrab' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# metric names

def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    assert set(metrics.ALIASES) == set(gen.WORKLOADS)
    # times are medians over cycles, everything else a count of one cycle
    assert all((m["unit"] == "ms") == m["name"].endswith("_ms") for m in doc["per_layer"])


# ---------------------------------------------------------------------------
# oracles flag corrupted results

def other_verdict(report):
    flipped = Verdict.FAIL if report.verdict is Verdict.PASS else Verdict.PASS
    return dataclasses.replace(report, verdict=flipped)


def test_corpus_oracle_flags_altered_verdict():
    batch = gen.corpus_batches(3)[0]
    op = workloads.corpus_ops(workloads.load_program(), [batch])[0]
    entries, data = op.run()
    assert op.check((entries, data)) == []
    i, entry = next((i, e) for i, e in enumerate(entries) if e.report is not None)
    bad = list(entries)
    bad[i] = dataclasses.replace(entry, report=other_verdict(entry.report))
    assert oracles.check_corpus_entries(batch.rows, bad)


@pytest.mark.parametrize("spec", [
    gen.full_disk_rig(gen.rng_for("test", 1), "t", 60),
    gen.clip_rigs(1)[0],
], ids=["full-disk", "clipped"])
def test_layout_oracle_flags_altered_ratio_or_verdict(at_root, spec):
    ops = workloads.check_ops(workloads.load_program(), [spec])
    report, data, svg = ops[0].run()
    assert oracles.check_rig_report(spec, report) == []
    assert oracles.check_report_json(report, data) == []
    assert oracles.check_svg(spec, svg) == []
    ratios = list(report.effective_ratios)
    altered = ratios.copy()
    altered[0] = ratios[0] * (1 - 1e-5)  # the corner: a full disk on one side, clipped on the other
    assert oracles.check_rig_report(spec, dataclasses.replace(report, effective_ratios=tuple(altered)))
    assert oracles.check_rig_report(spec, other_verdict(report))
    assert oracles.check_report_json(other_verdict(report), data)


def test_outline_oracle_flags_altered_verdict(at_root):
    spec = gen.star_rig(gen.rng_for("test", 2), "t", 50)
    scenario, report = workloads.outline_ops(workloads.load_program(), [spec])[0].run()
    assert oracles.check_outline_area(spec, scenario.fabric.outline.area) == []
    assert oracles.check_rig_report(spec, report) == []
    assert oracles.check_rig_report(spec, other_verdict(report))
    assert oracles.check_outline_area(spec, scenario.fabric.outline.area * (1 + 1e-6))


def test_calibrate_oracle_keeps_row6_empty_and_flags_altered_interval(at_root):
    specs = gen.calibrate_specs(4)
    row6 = next(s for s in specs if (s.length_m, s.width_m, s.target) == (0.26, 0.19, 8))
    assert oracles.calibrate_intervals(row6) == []
    ops = workloads.calibrate_ops(workloads.load_program(), specs)
    matched = next(
        (op, s) for op, s in zip(ops, specs) if oracles.calibrate_intervals(s) and s.step_m >= 5e-4
    )
    op, spec = matched
    intervals = op.run()
    assert oracles.check_calibration(spec, intervals) == []
    a, b = intervals[0]
    assert oracles.check_calibration(spec, [(a, b + spec.step_m)] + intervals[1:])


def test_cli_oracle_flags_wrong_exit_code_and_verdict():
    inv = gen.Invocation(("check", "--config", "x.conf", "--format", "structured"), 0, "x.conf")
    good = json.dumps({"verdict": "Pass"})
    assert oracles.check_invocation(inv, 0, good, "", "Pass") == []
    assert oracles.check_invocation(inv, 0, good, "", "Fail")
    assert oracles.check_invocation(inv, 2, "", "error: bad", "Pass")
    assert oracles.check_invocation(inv, 0, good, "Traceback (most recent call last):", "Pass")
    assert oracles.check_invocation(inv, 0, "{not json", "", "Pass")


def test_quadrature_matches_known_overlaps():
    assert oracles.disk_rect_ratio(0.0, 0.0, 1.0, 0.0, 0.0, 5.0, 5.0) == pytest.approx(0.25, abs=1e-12)
    assert oracles.disk_rect_ratio(0.0, 2.0, 1.0, 0.0, 0.0, 5.0, 5.0) == pytest.approx(0.5, abs=1e-12)
    assert oracles.disk_rect_ratio(2.0, 2.0, 1.0, 0.0, 0.0, 5.0, 5.0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# tracing

@pytest.mark.parametrize("workload", IN_PROCESS + ("cli",))
def test_traced_and_untraced_outputs_are_identical(at_root, tmp_path, workload):
    ops = small_ops(workload, tmp_path)
    plain = [op.output(op.run()) for op in ops]
    traced, _, _ = traced_cycle(ops)
    assert traced == plain
    assert all(op.check(op.run()) == [] for op in ops)


@pytest.mark.parametrize("workload", IN_PROCESS + ("cli",))
def test_counts_repeat_exactly_for_a_seed(at_root, tmp_path, workload):
    ops = small_ops(workload, tmp_path)
    _, first_spans, first_counts = traced_cycle(ops)
    _, second_spans, second_counts = traced_cycle(ops)
    assert first_counts == second_counts
    assert {k: v["calls"] for k, v in first_spans.items()} == {k: v["calls"] for k, v in second_spans.items()}
    values = metrics.per_layer([(first_spans, first_counts, 1.0)], dict.fromkeys(
        ("cli.import_ms", "cli.interp_floor_ms", "trace_overhead_share"), 0.0))
    vgtc_counts = {k: v for k, v in values.items() if k.startswith("vgtc.") and not k.endswith("_ms")}
    if workload == "corpus":
        assert set(vgtc_counts.values()) == {0}
        assert values["feasibility.run_corpus.error_entries"] > 0
    elif workload in ("geometry.check", "geometry.clip"):
        assert values["cli.emit_layout_svg.intersections"] == values["vgtc.generate_layout.positions"]
        assert values["feasibility.evaluate.intersections"] == values["vgtc.generate_layout.positions"]


def test_instrument_restores_every_name(at_root):
    workloads.load_program()
    before = {t: getattr(*trace._resolve(t)) for targets in trace.TARGETS.values() for t in targets}
    with trace.instrument(trace.Tracer()):
        assert all(getattr(*trace._resolve(t)) is not f for t, f in before.items())
    assert all(getattr(*trace._resolve(t)) is f for t, f in before.items())


def test_self_time_excludes_children():
    spans = [("a", 0, 100, -1, 0), ("b", 10, 40, 0, 0), ("c", 50, 70, 0, 0), ("d", 15, 20, 1, 0)]
    summary = trace.summarize(spans)
    assert summary["a"]["self_ns"] == 50
    assert summary["b"]["self_ns"] == 25


# ---------------------------------------------------------------------------
# the command

def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("flag,names", [
    ("0", list(metrics.END_TO_END)),
    ("1", list(metrics.PER_LAYER)),
])
def test_command_prints_every_metric(flag, names):
    out = subprocess.run(
        RUN + ["--workload", "geometry.outline", "--seed", "1", "--seconds", "0.2", "--trace", flag],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    doc = result_line(out.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == names
    assert not (ROOT / ".bench_work" / "geometry.outline-1").exists()


@pytest.mark.parametrize("workload", ["corpus", "geometry.calibrate"])
def test_traced_counts_repeat_across_runs(workload):
    def counts():
        out = subprocess.run(
            RUN + ["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        values = result_line(out.stdout)["metrics"]
        return {
            k: v["value"] for k, v in values.items()
            if not k.endswith("_ms") and k != "trace_overhead_share"
        }

    first = counts()
    assert first == counts()
    vgtc = [v for k, v in first.items() if k.startswith("vgtc.")]
    assert (set(vgtc) == {0}) == (workload == "corpus")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
