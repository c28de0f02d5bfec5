"""Hot-path execution-engine benchmark: fast path vs the oracle.

Produces the ``BENCH_hotpath.json`` trajectory: guest instructions/sec
of the fused superblock fast path and of the ``REPRO_SLOW_PATH=1``
per-instruction interpreter oracle, in timed and functional-warming
event mode, per suite size, with per-benchmark and geomean speedups.

This is a thin wrapper over ``repro.harness.throughput`` (also reachable
as ``python -m repro bench``) so the benchmark directory stays the
one-stop shop for every figure/number the repo produces::

    python benchmarks/bench_hotpath.py                   # print table
    python benchmarks/bench_hotpath.py --update-baseline # rewrite JSON
    python benchmarks/bench_hotpath.py --check           # CI perf gate
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench"] + sys.argv[1:]))
