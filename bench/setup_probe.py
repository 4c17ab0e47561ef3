"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Prints the set-up time in reference seconds: importing the program
(vacgrab and vacgrab.cli, with every module they import), building one
cycle of operations and a warm-up operation. Before the clock starts
this process has imported only what the interpreter loads at start-up,
so the program's own imports, stdlib ones included, are timed. Input
generation is not timed. bench/run.py reports the median of several
probes as setup_s.
"""

import os
import sys
from time import perf_counter_ns


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    sys.path.insert(0, os.path.join(root, "src"))

    start = perf_counter_ns()
    import vacgrab.cli  # noqa: F401
    import_ns = perf_counter_ns() - start

    from vgbench import reference, workloads  # the harness, not timed

    inputs = workloads.generate(workload, seed, workdir)
    start = perf_counter_ns()
    workloads.setup(workload, inputs)
    build_ns = perf_counter_ns() - start

    ref_ns = sorted(reference.LOOP.measure() for _ in range(5))[2]
    print(repr(reference.LOOP.scale(import_ns + build_ns, ref_ns) / 1e3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
