"""Checkpoint-store benchmark: warm-vs-cold sweep wall clock.

Runs a sweep of SimPoint policies twice against one on-disk checkpoint
store — first *cold* (fresh store: every job profiles, fast-forwards
and publishes), then *warm* (the same jobs consume the ladder: profile
and selection artifacts hit, fast-forward gaps restore) — and reports
the per-job wall-clock speedup.  Results are bit-identical between the
two passes (the parity tests enforce it); only host time changes, which
is exactly the claim the committed ``BENCH_checkpoint.json`` baseline
and the CI perf gate guard:

* ``speedup_geomean`` — warm-vs-cold geomean of the checkpoint-restore
  policy (``simpoint-ckpt``), gated against an absolute floor;
* ``delta_ratio_max`` — worst-case chained-delta snapshot bytes over
  full-image bytes, gated against an absolute ceiling.

Every measurement runs in a fresh subprocess so the only state carried
from cold to warm is the on-disk store: the process-wide compiled-code
cache (:mod:`repro.vm.translator`) never leaks between passes.  The
speedups are ratios of identical deterministic work on the same host,
so — like the hot-path gate — the CI comparison is host-independent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .bench import Metric, geomean

SCHEMA_VERSION = 1

#: benchmarks × policies of the sweep.  The benchmarks are the
#: quick-suite members whose preparation phase (profile + fast-forward)
#: dominates at the ``paper`` size — the regime the paper's SimPoint
#: cost model assumes (checkpoint restore instead of replay); gzip and
#: perlbmk are excluded because their cluster counts make the detailed
#: pass (which checkpoints can never skip) the bulk of even a warm run.
DEFAULT_BENCHMARKS = ("mcf", "crafty", "swim", "art", "sixtrack", "gcc")
DEFAULT_POLICIES = ("simpoint", "simpoint-ckpt")

#: the policy whose warm runs restore ladder rungs end to end; the
#: headline ``speedup_geomean`` and the absolute gate are over its cells
ACCEL_POLICY = "simpoint-ckpt"

#: probes per (benchmark, policy): each probe is its own fresh store
#: (cold then warm), and the best wall clock per side is reported —
#: same best-of-N discipline as the hot-path benchmark
DEFAULT_REPEATS = 2

#: absolute gates, enforced by --check on every CI run, not only
#: relative to the committed baseline
MIN_SPEEDUP_GEOMEAN = 3.0
MAX_DELTA_RATIO = 0.25


# ----------------------------------------------------------------------
# one measurement = one subprocess

_CHILD_SCRIPT = r"""
import json, sys, time
from repro.exec import ExperimentEngine, ResultStore
from repro.harness.experiments import make_spec

root, policy, bench, size = sys.argv[1:5]
engine = ExperimentEngine(store=ResultStore(root + "/results-v2"),
                          jobs=1)
spec = make_spec(bench, policy, size)
start = time.perf_counter()
outcome = engine.run([spec], use_cache=False)[spec.key]
elapsed = time.perf_counter() - start
if not outcome.ok:
    print(outcome.error, file=sys.stderr)
    raise SystemExit(1)
result = outcome.result
extra = result.extra or {}
print(json.dumps({
    "wall": elapsed,
    "ipc": result.ipc,
    "checkpoints": extra.get("checkpoints") or {},
    "checkpoint_bytes": extra.get("checkpoint_bytes", 0),
    "checkpoint_delta_bytes": extra.get("checkpoint_delta_bytes", 0),
}))
"""


def _run_job(root: str, policy: str, bench: str, size: str) -> Dict:
    """Run one job in a fresh interpreter; returns its measurement."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CHECKPOINTS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, root, policy, bench, size],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench job {bench}/{policy} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def measure_pair(bench: str, policy: str, size: str,
                 repeats: int = DEFAULT_REPEATS) -> Dict:
    """Cold-then-warm measurement of one (benchmark, policy) cell.

    Each repeat uses its own store root, so every cold probe is truly
    cold; the best (minimum) wall per side across repeats is reported.
    """
    best_cold = best_warm = None
    cold = warm = None
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory(prefix="repro-ckptbench-") \
                as root:
            cold_probe = _run_job(root, policy, bench, size)
            warm_probe = _run_job(root, policy, bench, size)
        if cold_probe["ipc"] != warm_probe["ipc"]:
            raise RuntimeError(
                f"cold/warm IPC diverged for {bench}/{policy}: "
                f"{cold_probe['ipc']} vs {warm_probe['ipc']}")
        if best_cold is None or cold_probe["wall"] < best_cold:
            best_cold, cold = cold_probe["wall"], cold_probe
        if best_warm is None or warm_probe["wall"] < best_warm:
            best_warm, warm = warm_probe["wall"], warm_probe
    ckpt = warm["checkpoints"]
    full_bytes = cold["checkpoint_bytes"]
    return {
        "cold_seconds": best_cold,
        "warm_seconds": best_warm,
        "speedup": best_cold / best_warm if best_warm > 0 else 0.0,
        "ipc": cold["ipc"],
        "ipc_equal": True,  # enforced above
        "warm_restores": ckpt.get("restores", 0),
        "warm_profile_cache_hits": ckpt.get("profile_cache_hits", 0),
        "delta_bytes": cold["checkpoint_delta_bytes"],
        "full_bytes": full_bytes,
        "delta_ratio": (cold["checkpoint_delta_bytes"] / full_bytes
                        if full_bytes else 0.0),
    }


def run(sizes: Sequence[str], benchmarks: Optional[List[str]] = None,
        repeats: Optional[int] = None) -> Dict:
    """The full payload written to ``BENCH_checkpoint.json``."""
    (size,) = sizes
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    policies = list(DEFAULT_POLICIES)
    repeats = repeats or DEFAULT_REPEATS
    rows: Dict[str, Dict] = {}
    for bench in benchmarks:
        rows[bench] = {policy: measure_pair(bench, policy, size, repeats)
                       for policy in policies}
    accel_cells = [rows[b][ACCEL_POLICY] for b in benchmarks
                   if ACCEL_POLICY in rows[b]]
    summary = {
        "speedup_geomean": geomean(c["speedup"] for c in accel_cells),
        "overall_speedup_geomean": geomean(
            rows[b][p]["speedup"] for b in benchmarks for p in policies),
        "delta_ratio_max": max(
            (c["delta_ratio"] for c in accel_cells), default=0.0),
        "ipc_equal": all(rows[b][p]["ipc_equal"]
                         for b in benchmarks for p in policies),
    }
    for policy in policies:
        summary[f"{policy}_speedup_geomean"] = geomean(
            rows[b][policy]["speedup"] for b in benchmarks)
    return {
        "schema_version": SCHEMA_VERSION,
        "size": size,
        "policies": policies,
        "accel_policy": ACCEL_POLICY,
        "benchmarks": rows,
        "summary": summary,
    }


def metrics(payload: Dict) -> Dict[str, Metric]:
    """The gated and recorded numbers of one payload.

    * **absolute** — the acceptance floors hold regardless of history:
      warm-vs-cold geomean of the restore policy at least
      ``MIN_SPEEDUP_GEOMEAN``, worst delta-snapshot ratio at most
      ``MAX_DELTA_RATIO``, cold/warm results identical;
    * **relative** — per-benchmark restore-policy speedups and their
      geomean must not fall more than the tolerance below the
      committed baseline's.  Ratios of identical deterministic work
      are host-independent, so this is safe across CI runners.

    Every summary speedup geomean and ``delta_ratio_max`` are recorded
    in the perf-trajectory history.
    """
    summary = payload.get("summary", {})
    metrics = {
        "ipc_diverged": Metric(
            0 if summary.get("ipc_equal", False) else 1,
            "cold/warm results diverged", better="lower", ceiling=0,
            fmt="d", unit=""),
        "speedup_geomean": Metric(
            summary.get("speedup_geomean", 0.0),
            f"overall: {ACCEL_POLICY} warm-vs-cold geomean speedup",
            relative=True, floor=MIN_SPEEDUP_GEOMEAN, history=True,
            fmt=".1f"),
        "delta_ratio_max": Metric(
            summary.get("delta_ratio_max", 1.0), "delta snapshot ratio",
            better="lower", ceiling=MAX_DELTA_RATIO, history=True,
            fmt=".1%", unit=""),
    }
    for key, value in summary.items():
        if key.endswith("speedup_geomean") and key not in metrics:
            metrics[key] = Metric(value, key, history=True)
    for bench, row in payload.get("benchmarks", {}).items():
        if ACCEL_POLICY in row:
            metrics[f"{bench}.{ACCEL_POLICY}.speedup"] = Metric(
                row[ACCEL_POLICY]["speedup"],
                f"{bench}/{ACCEL_POLICY}: speedup", relative=True,
                group=f"{bench}/{ACCEL_POLICY}")
    return metrics


def format_table(payload: Dict) -> str:
    """Human-readable per-benchmark table for one payload."""
    lines: List[str] = [
        f"size={payload['size']} (cold store vs warm store, "
        f"best-of-N fresh-process runs)",
        f"{'benchmark':10s} {'policy':13s} {'cold':>8s} {'warm':>8s} "
        f"{'speedup':>8s} {'restores':>8s} {'delta':>7s}",
    ]
    for bench, row in payload["benchmarks"].items():
        for policy, cell in row.items():
            lines.append(
                f"{bench:10s} {policy:13s} "
                f"{cell['cold_seconds']:>7.2f}s {cell['warm_seconds']:>7.2f}s "
                f"{cell['speedup']:>7.2f}x {cell['warm_restores']:>8d} "
                f"{cell['delta_ratio']:>6.1%}")
    summary = payload["summary"]
    for policy in payload["policies"]:
        lines.append(f"{policy} speedup geomean: "
                     f"{summary[f'{policy}_speedup_geomean']:.2f}x")
    lines.append(
        f"{payload['accel_policy']} geomean "
        f"{summary['speedup_geomean']:.2f}x "
        f"(gate >= {MIN_SPEEDUP_GEOMEAN:.1f}x); "
        f"worst delta ratio {summary['delta_ratio_max']:.1%} "
        f"(gate <= {MAX_DELTA_RATIO:.0%})")
    return "\n".join(lines)
