"""vacgrab benchmark: seeded workloads, independent oracles, traced layers.

Run from the root of a checkout (the program is imported from src/):

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

--trace 0 times a closed loop with tracing off and prints the end-to-end
metrics. --trace 1 alternates untraced and traced cycles and prints the
per-layer metrics; spans are written to .bench_out/. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from vgbench import gen, metrics, reference, trace, workloads  # noqa: E402

SETUP_PROBES = 5  # fresh processes that each time one set-up; setup_s is their median
IMPORT_PROBES = 7  # fresh interpreters per side for cli.import_ms
MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
SHOWN_PROBLEMS = 5
MIB = 2 ** 20
REF_WINDOW = 2  # reference runs on each side of an operation's own two that its scale takes in
# a bare interpreter that reports the peak resident set of a bare child (KiB)
FLOOR_RSS = ("import resource, subprocess, sys; subprocess.run([sys.executable, '-c', 'pass']); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def run_cycle(ops, ref, tracer=None):
    """Run every operation once.

    Returns (reference ms per op, reference ns per op, problems of each
    failed op). The reference runs between operations, outside the timed
    region. Each operation is scaled by the median of the references in a
    window around it, so that one disturbed reference run does not skew
    a long operation. A collection before each operation, not timed,
    clears the harness's garbage; one after it, timed, charges the cyclic
    garbage the program leaves to the program.
    """
    walls, bounds, failures = [], [ref.measure()], []
    for index, op in enumerate(ops):
        error = None
        gc.collect()
        if tracer is not None:
            tracer.op = index
        with trace.instrument(tracer) if tracer is not None else nullcontext():
            start = perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            gc.collect()
            end = perf_counter_ns()
        bounds.append(ref.measure())
        walls.append(end - start)
        if error is not None:
            failures.append([f"raised {error!r}"])
            continue
        try:
            found = op.check(result)
        except Exception as exc:  # output the oracle cannot read is wrong output
            found = [f"oracle could not read the output: {exc!r}"]
        if found:
            failures.append(found)
    # operation i lies between bounds[i] and bounds[i + 1]
    refs = [statistics.median(bounds[max(0, i - REF_WINDOW):i + 2 + REF_WINDOW]) for i in range(len(walls))]
    times = [ref.scale(wall, r) for wall, r in zip(walls, refs)]
    return times, refs, failures


def setup_probes(args, workdir) -> list[float]:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload, str(args.seed), workdir]
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            for _ in range(SETUP_PROBES)]


def op_peak_mib(ops) -> float:
    """Most memory one of the cycle's largest operations allocates above its starting heap.

    The operations with the most items run once more, untimed, under
    tracemalloc: the traced peak during each minus the traced size
    before it, so the generator's inputs and the oracles' work lie
    outside every window. Smaller operations are left out because
    tracemalloc slows allocation-heavy work about fifteen-fold.
    """
    top = max(op.items for op in ops)
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            if op.items != top:
                continue
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                op.run()
            except Exception:  # counted by the timed loop
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / MIB


def child_peak_mib() -> float:
    """Peak resident set of the largest child so far, above a bare interpreter's."""
    floor_kib = statistics.median(
        int(subprocess.run([sys.executable, "-c", FLOOR_RSS], env=workloads.program_env(),
                           check=True, capture_output=True, text=True).stdout)
        for _ in range(3)
    )
    return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - floor_kib) / 1024


def import_cost() -> tuple[float, float]:
    """Median reference ms of `import vacgrab.cli` in a fresh interpreter, minus the bare one."""
    env = workloads.program_env()
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        for code, bucket in (("pass", bare), ("import vacgrab.cli", imported)):
            command = [sys.executable, "-c", code]
            _, ms = reference.timed(reference.LOOP, lambda: subprocess.run(
                command, env=env, check=True, capture_output=True))
            bucket.append(ms)
    floor = statistics.median(bare)
    return statistics.median(imported) - floor, floor


def timed_run(args, bench, workdir):
    samples, failures = [], []
    cycles = 0
    start = perf_counter()
    while True:
        times, _, found = run_cycle(bench.ops, bench.reference)
        samples += times
        failures += found
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed >= args.seconds and (len(samples) >= MIN_SAMPLES or elapsed >= 6 * args.seconds):
            break
    # so far the only children are cli invocations and bare interpreters
    peak_mib = child_peak_mib() if args.workload == "cli" else op_peak_mib(bench.ops)
    setup_s = statistics.median(setup_probes(args, workdir))
    items = cycles * sum(op.items for op in bench.ops)
    return metrics.end_to_end(samples, items, setup_s, peak_mib), len(samples), failures


def traced_run(args, bench):
    tracer = trace.Tracer()
    cycles, failures = [], []
    attempted = 0
    plain_ms = traced_ms = 0.0
    first_spans = None
    start = perf_counter()
    while True:
        times, _, found = run_cycle(bench.replay, reference.LOOP)
        plain_ms += sum(times)
        attempted += len(times)
        failures += found
        tracer.reset()
        times, refs, found = run_cycle(bench.replay, reference.LOOP, tracer)
        traced_ms += sum(times)
        attempted += len(times)
        failures += found
        ms_per_ns = reference.LOOP.scale(1.0, statistics.median(refs))
        cycles.append((trace.summarize(tracer.spans), dict(tracer.counts), ms_per_ns))
        if first_spans is None:
            first_spans = list(tracer.spans)
        if perf_counter() - start >= args.seconds:
            break
    for summary, counts, _ in cycles[1:]:
        calls = {name: agg["calls"] for name, agg in summary.items()}
        if counts != cycles[0][1] or calls != {n: a["calls"] for n, a in cycles[0][0].items()}:
            failures.append(["per-layer counts differ between cycles of the same inputs"])
    import_ms, floor_ms = import_cost()
    extra = {
        "cli.import_ms": import_ms,
        "cli.interp_floor_ms": floor_ms,
        "trace_overhead_share": traced_ms / plain_ms - 1.0,
    }
    write_spans(Path(".bench_out") / f"trace-{args.workload}-{args.seed}.csv", first_spans)
    return metrics.per_layer(cycles, extra), attempted, failures


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{op}\n")


def print_summary(args, values, units, attempted, failures) -> None:
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"workload {args.workload}, seed {args.seed}: {kind}, {attempted} operations "
          f"checked, {len(failures)} failed (failed_share {len(failures) / attempted:.4g})")
    op_name, rate_name = metrics.ALIASES[args.workload]
    alias = {"op_ms_p50": f"{op_name}_p50", "op_ms_p90": f"{op_name}_p90", "items_per_s": rate_name}
    for name, value in values.items():
        shown = f"{alias[name]} ({name})" if name in alias else name
        print(f"  {shown:<48} {value:>14.6g} {units[name]}")
    for found in failures[:SHOWN_PROBLEMS]:
        print(f"  problem: {'; '.join(found)[:300]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vacgrab" / "__init__.py").is_file():
        print(f"error: no vacgrab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    units = metrics.units(ROOT / "BENCHMARK.json")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir("src", quiet=1)  # the build: bytecode before anything is timed

    workdir = f".bench_work/{args.workload}-{args.seed}"
    try:
        bench = workloads.setup(args.workload, workloads.generate(args.workload, args.seed, workdir))
        bench.prepare()
        gc.collect()
        gc.freeze()  # inputs, program and harness: long-lived, left out of every collection
        if args.trace:
            values, attempted, failures = traced_run(args, bench)
        else:
            values, attempted, failures = timed_run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(".bench_work") and not os.listdir(".bench_work"):
            os.rmdir(".bench_work")
    print_summary(args, values, units, attempted, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
