"""Fixed reference work that turns wall time into reference milliseconds.

On a machine shared with other tenants the same code can run up to 1.7
times slower for tens of seconds at a stretch, and a whole run can fall
inside such a stretch, so raw wall times of one commit differ by 30% or
more from run to run. The benchmark times a fixed piece of
reference work next to every operation and divides the slowdown out:

    reference ms = wall ms * REF.ms / (wall ms of the adjacent reference runs)

`ms` is the reference's time on an uncontended core of the machine the
baselines in bench/README.md come from, so reference ms read as that
machine's milliseconds. Two references are used:

- LOOP, an interpreted loop, for work inside the measuring process;
- an interpreter start (`python -c pass`) for operations that are whole
  processes, whose kernel and start-up costs the loop does not track.

A reference never changes, or past numbers stop being comparable.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

INTERPRETER_MS = 40.0  # bare `python -c pass`, uncontended, baseline machine


@dataclass(frozen=True)
class Reference:
    measure: Callable[[], int]  # wall ns of one run of the reference work
    ms: float  # that run's duration on the baseline machine

    def scale(self, wall_ns: float, ref_ns: float) -> float:
        """Wall time in ns converted to reference ms."""
        return wall_ns / ref_ns * self.ms


def _loop_ns() -> int:
    start = perf_counter_ns()
    table = {}
    acc = 0.0
    for i in range(10_000):
        table[i & 255] = i * 0.5
        acc += table[i & 255]
    return perf_counter_ns() - start


LOOP = Reference(_loop_ns, 1.0)


def interpreter(env: dict) -> Reference:
    """Start-up of a bare interpreter with the environment operations run in."""
    def start_ns() -> int:
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, capture_output=True)
        return perf_counter_ns() - start

    return Reference(start_ns, INTERPRETER_MS)


def timed(ref: Reference, fn):
    """Run fn once; return (result, its wall time in reference ms)."""
    before = ref.measure()
    start = perf_counter_ns()
    result = fn()
    wall = perf_counter_ns() - start
    return result, ref.scale(wall, 0.5 * (before + ref.measure()))
