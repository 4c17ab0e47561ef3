"""Benchmark harness for vacgrab: seeded inputs, oracles, workloads, tracing.

Only stdlib modules are imported here. The program under test is
imported by `workloads` during set-up, never at package import, so
that set-up time includes it.
"""
