"""Checkpoint-store benchmark: warm vs cold store wall clock.

Produces the ``BENCH_checkpoint.json`` trajectory: per-benchmark wall
clock of the SimPoint policies against a cold on-disk checkpoint store
and again against the warm store (every measurement in a fresh
subprocess), with the warm-vs-cold speedups, the restore-policy
geomean, and the delta-snapshot byte ratios.

This is a thin wrapper over ``repro.harness.checkpointbench`` (also
reachable as ``python -m repro bench --suite checkpoint``) so the
benchmark directory stays the one-stop shop for every figure/number
the repo produces::

    python benchmarks/bench_checkpoint.py                   # table
    python benchmarks/bench_checkpoint.py --update-baseline # rewrite
    python benchmarks/bench_checkpoint.py --check           # CI gate
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", "--suite", "checkpoint"] + sys.argv[1:]))
