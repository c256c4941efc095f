"""Benchmark for plislab: four workloads, end-to-end timings and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ood-rank --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the per-stage timings and, in a traced run, the
paper-claim diagnostics.
"""
