"""Accuracy-vs-cost frontier benchmark: the sampling-policy zoo.

Produces the ``BENCH_frontier.json`` baseline: every policy family —
the paper's baselines (SMARTS, SimPoint, SimPoint+prof), its named
Dynamic Sampling points, and the statistical zoo (two-phase
stratified at several budgets, ranked-set at several cycle counts,
MAV-augmented SimPoint) — swept over the tiny suite and placed on one
accuracy-error vs speedup plane with the Pareto-efficient set marked.
All numbers are modeled (accuracy vs the full-timing reference; cost
from the per-mode MIPS cost model), so the payload is deterministic
and CI can gate it tightly.

This is a thin wrapper over ``repro.harness.frontier`` (also
reachable as ``python -m repro bench --suite frontier``)::

    python benchmarks/bench_frontier.py                   # table
    python benchmarks/bench_frontier.py --update-baseline # rewrite
    python benchmarks/bench_frontier.py --check           # CI gate
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", "--suite", "frontier"] + sys.argv[1:]))
