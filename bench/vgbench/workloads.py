"""The operations each workload times, and the oracle each one must pass.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. One cycle runs every
generated input once, in the generator's order.

Operations look the program's functions up through its modules at call
time (`cli.parse_config`, not a bound local), so that tracing, which
replaces those module attributes, sees every call.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from . import gen, oracles, reference

INVOKE_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation: what it runs, how much work it is, how it is checked."""

    items: int
    run: Callable[[], object]
    check: Callable[[object], list]
    output: Callable[[object], bytes]  # the program's output bytes, for comparisons


@dataclass
class Bench:
    ops: list  # one cycle of the timed loop
    replay: list  # one cycle run in-process, for tracing (same as ops unless cli)
    prepare: Callable[[], None]  # oracle set-up that needs the program; not timed
    warmup: Op  # run once during set-up
    reference: reference.Reference = reference.LOOP  # what `ops` are scaled by


def generate(workload: str, seed: int, workdir: str):
    """Seeded inputs for a workload; cli inputs are also written under workdir."""
    if workload == "corpus":
        return gen.corpus_batches(seed)
    if workload == "geometry.check":
        return gen.check_rigs(seed)
    if workload == "geometry.clip":
        return gen.clip_rigs(seed)
    if workload == "geometry.calibrate":
        return gen.calibrate_specs(seed)
    if workload == "geometry.outline":
        return gen.outline_rigs(seed)
    if workload == "cli":
        inputs = gen.cli_inputs(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        for path, text in inputs.files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


def load_program() -> SimpleNamespace:
    from vacgrab import cli, feasibility, model, vgtc

    return SimpleNamespace(cli=cli, feasibility=feasibility, model=model, vgtc=vgtc)


# ---------------------------------------------------------------------------
# in-process workloads

def corpus_ops(p, batches) -> list[Op]:
    def op(batch):
        def run():
            rows = p.cli.parse_corpus_csv(batch.text)
            entries = p.feasibility.run_corpus(rows)
            return entries, p.cli.emit_batch(entries, batch.format)

        def check(result):
            entries, data = result
            return oracles.check_corpus_entries(batch.rows, entries) + oracles.check_corpus_output(
                batch.rows, batch.format, data
            )

        return Op(len(batch.rows), run, check, lambda result: result[1])

    return [op(batch) for batch in batches]


def check_ops(p, rigs) -> list[Op]:
    def op(spec):
        def run():
            scenario = p.cli.parse_config(spec.text)
            report = p.feasibility.evaluate(scenario)
            data = p.cli.emit_report(report, "structured")
            svg = p.cli.emit_layout_svg(report.layout, scenario.fabric.outline, scenario.vgtc)
            return report, data, svg

        def check(result):
            report, data, svg = result
            return (
                oracles.check_rig_report(spec, report)
                + oracles.check_report_json(report, data)
                + oracles.check_svg(spec, svg)
            )

        xs, ys = oracles.grid_axes(*spec.outline_m[2], spec.margin_m, spec.radius_m)
        return Op(len(xs) * len(ys), run, check, lambda result: result[1] + result[2])

    return [op(spec) for spec in rigs]


def calibrate_ops(p, specs) -> list[Op]:
    def op(spec):
        def run():
            outline = p.model.Polygon.rectangle(spec.length_m, spec.width_m)
            return p.vgtc.calibrate_spacing(
                outline, spec.margin_m, spec.target, (spec.low_m, spec.high_m), spec.step_m
            )

        return Op(
            len(oracles.calibrate_samples(spec)),
            run,
            lambda result: oracles.check_calibration(spec, result),
            lambda result: repr(result).encode(),
        )

    return [op(spec) for spec in specs]


def outline_ops(p, rigs) -> list[Op]:
    def op(spec):
        def run():
            scenario = p.cli.parse_config(spec.text)
            return scenario, p.feasibility.evaluate(scenario)

        def check(result):
            scenario, report = result
            return oracles.check_outline_area(spec, scenario.fabric.outline.area) + oracles.check_rig_report(
                spec, report
            )

        return Op(len(spec.outline_m), run, check, lambda result: repr(result[1]).encode())

    return [op(spec) for spec in rigs]


# ---------------------------------------------------------------------------
# command lines

def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def _in_process_verdicts(p, ref: str):
    if ref == "bundled":
        entries = p.feasibility.run_corpus(p.cli.load_bundled_corpus())
    elif ref.endswith(".csv"):
        with open(ref, encoding="utf-8") as fh:
            entries = p.feasibility.run_corpus(p.cli.parse_corpus_csv(fh.read()))
    else:
        with open(ref, encoding="utf-8") as fh:
            return p.feasibility.evaluate(p.cli.parse_config(fh.read())).verdict.value
    return [e.report.verdict.value if e.report else None for e in entries]


def cli_bench(p, inputs) -> Bench:
    env = program_env()
    verdicts: dict = {}

    def prepare():
        for inv in inputs.invocations:
            if inv.verdict_of is not None and inv.verdict_of not in verdicts:
                verdicts[inv.verdict_of] = _in_process_verdicts(p, inv.verdict_of)

    def check_for(inv):
        def check(result):
            return oracles.check_invocation(inv, *result, verdicts.get(inv.verdict_of))

        return check

    def output(result):
        code, out, err = result
        return f"{code}\n{out}\n{err}".encode()

    def subprocess_op(inv):
        def run():
            proc = subprocess.run(
                [sys.executable, "-m", "vacgrab", *inv.argv],
                capture_output=True,
                env=env,
                timeout=INVOKE_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

        return Op(1, run, check_for(inv), output)

    def in_process_op(inv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = p.cli.main(list(inv.argv))
            return code, out.getvalue(), err.getvalue()

        return Op(1, run, check_for(inv), output)

    ops = [subprocess_op(inv) for inv in inputs.invocations]
    warmup = next(op for op, inv in zip(ops, inputs.invocations) if inv.argv == ("force", "--config", gen.SHIPPED_BAG))
    return Bench(
        ops=ops,
        replay=[in_process_op(inv) for inv in inputs.invocations],
        prepare=prepare,
        warmup=warmup,
        reference=reference.interpreter(env),
    )


def setup(workload: str, inputs) -> Bench:
    """Import the program, build one cycle of operations and run a warm-up."""
    p = load_program()
    if workload == "cli":
        bench = cli_bench(p, inputs)
    else:
        build = {
            "corpus": corpus_ops,
            "geometry.check": check_ops,
            "geometry.clip": check_ops,
            "geometry.calibrate": calibrate_ops,
            "geometry.outline": outline_ops,
        }[workload]
        ops = build(p, inputs)
        bench = Bench(ops=ops, replay=ops, prepare=lambda: None, warmup=min(ops, key=lambda op: op.items))
    bench.warmup.run()
    return bench
