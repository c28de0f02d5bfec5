"""Megablock-tier benchmark: chained superblock dispatch vs fused.

Produces the ``BENCH_megablock.json`` trajectory: guest
instructions/sec of the megablock tier (chains of hot fused
superblocks inlined into single megablock functions) against the
same fast-path engine with the tier disabled (``REPRO_MEGABLOCKS=0``),
in timed and functional-warming event mode on the loop-dominated
suite, with per-benchmark and geomean speedups.

This is a thin wrapper over ``repro.harness.throughput`` (also
reachable as ``python -m repro bench --suite megablock``) so the
benchmark directory stays the one-stop shop for every figure/number
the repo produces::

    python benchmarks/bench_megablock.py                   # print table
    python benchmarks/bench_megablock.py --update-baseline # rewrite JSON
    python benchmarks/bench_megablock.py --check           # CI perf gate
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", "--suite", "megablock"] + sys.argv[1:]))
