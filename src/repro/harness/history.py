"""Perf-trajectory history: dated bench entries + regression detection.

The committed ``BENCH_*.json`` baselines are a *point*; this module
turns them into a *curve*.  ``python -m repro bench --record-history``
appends one dated entry per bench run to ``benchmarks/HISTORY.jsonl``
(one JSON object per line, append-friendly and merge-friendly), and
the rolling-window detector compares the latest entry against the
median of the preceding window.

Only **ratio** metrics are recorded — speedup geomeans and snapshot
delta ratios.  Absolute throughput (instructions/second) varies with
the host; ratios of two measurements taken on the same host in the
same run are the quantity the paper's cost model argues is stable,
and the same quantity the CI perf gate already checks against the
committed baselines.  The trajectory gate catches what a single-point
baseline cannot: a slow drift where each run stays inside the
point-gate tolerance but the curve clearly sinks.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro._atomic import atomic_write_bytes

from . import bench

__all__ = [
    "DEFAULT_HISTORY", "DEFAULT_WINDOW", "DEFAULT_TOLERANCE",
    "SCHEMA_VERSION", "extract_metrics", "make_entry",
    "append_history", "load_history", "detect_regressions",
    "format_history",
]

DEFAULT_HISTORY = str(bench.BENCH_DIR / "HISTORY.jsonl")
DEFAULT_WINDOW = 5
DEFAULT_TOLERANCE = 0.25
SCHEMA_VERSION = 1


def extract_metrics(suite: str, payload: Dict) -> Dict[str, float]:
    """Ratio metrics from a bench payload, flat and deterministic.

    The metrics the suite declares ``history`` (see
    :mod:`repro.harness.bench`): speedup geomeans per size and mode
    (``hotpath``, ``megablock``), the checkpoint summary ratios and
    ``delta_ratio_max``, and each frontier policy's suite speedup.
    Keys are prefixed with the suite name so one history file can
    carry all suites.
    """
    metrics = bench.SUITES[suite].impl().metrics(payload)
    return {f"{suite}.{name}": float(metric.value)
            for name, metric in sorted(metrics.items())
            if metric.history and math.isfinite(metric.value)}


def make_entry(suite: str, payload: Dict,
               recorded_at: Optional[str] = None) -> Dict:
    """One dated history line for a bench payload."""
    if recorded_at is None:
        # repro: volatile history entries are dated telemetry by design
        recorded_at = time.strftime("%Y-%m-%dT%H:%M:%S")
    return {
        "schema": SCHEMA_VERSION,
        "recorded_at": recorded_at,
        "suite": suite,
        "metrics": extract_metrics(suite, payload),
        "host": {
            "platform": platform.system().lower(),
            "python": "%d.%d" % sys.version_info[:2],
        },
    }


def load_history(path: Union[str, Path]) -> List[Dict]:
    """Every parseable entry, in file order; torn lines are skipped."""
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    entries: List[Dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def append_history(path: Union[str, Path], entry: Dict) -> int:
    """Append one entry; returns the new entry count.

    Read-append-rewrite through a uniquely named temp file +
    ``os.replace``, so a reader (or a concurrent bench run losing the
    race) never sees a torn file.
    """
    path = Path(path)
    entries = load_history(path)
    entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, "".join(
        json.dumps(item, sort_keys=True) + "\n"
        for item in entries).encode())
    return len(entries)


def detect_regressions(entries: List[Dict], suite: str,
                       window: int = DEFAULT_WINDOW,
                       tolerance: float = DEFAULT_TOLERANCE
                       ) -> List[str]:
    """Latest entry vs the rolling median of the preceding window.

    For each metric present in the latest ``suite`` entry, compare
    against the median of up to ``window`` preceding entries that
    carry the same metric.  A metric regresses by moving more than
    ``tolerance`` past the median in its declared wrong direction
    (speedups falling, ``delta_ratio_max`` rising).  Returns
    human-readable problem strings (empty = trajectory healthy); fewer
    than two entries is vacuously healthy.
    """
    relevant = [entry for entry in entries
                if entry.get("suite") == suite and entry.get("metrics")]
    if len(relevant) < 2:
        return []
    latest = relevant[-1]
    prior = relevant[max(len(relevant) - 1 - window, 0):-1]
    # every lower-is-better history metric is a payload-independent
    # summary figure, so an empty payload's declarations name them all
    lower = {f"{suite}.{name}" for name, metric
             in bench.SUITES[suite].impl().metrics({}).items()
             if metric.better == "lower"}
    problems: List[str] = []
    for name in sorted(latest["metrics"]):
        value = latest["metrics"][name]
        if not isinstance(value, (int, float)):
            continue
        series = [entry["metrics"][name] for entry in prior
                  if isinstance(entry.get("metrics", {}).get(name),
                                (int, float))]
        if not series:
            continue
        ref = statistics.median(series)
        if ref <= 0:
            continue
        better = "lower" if name in lower else "higher"
        if bench.regressed(value, ref, tolerance, better):
            problems.append(
                f"{name}: {value:.3f} vs rolling median {ref:.3f} "
                f"(more than {tolerance:.0%} "
                f"{'above' if better == 'lower' else 'below'}, over "
                f"{len(series)} prior entries)")
    return problems


def format_history(entries: List[Dict], limit: int = 10) -> str:
    """Compact text view of the trajectory tail."""
    lines = [f"{'recorded_at':<20} {'suite':<11} {'metrics':>7}  headline"]
    for entry in entries[-limit:]:
        metrics = entry.get("metrics", {})
        headline = ""
        for key in sorted(metrics):
            if key.endswith("overall_speedup_geomean"):
                headline = f"{key}={metrics[key]:.2f}x"
                break
        if not headline and metrics:
            first = sorted(metrics)[0]
            headline = f"{first}={metrics[first]:.3f}"
        lines.append(f"{str(entry.get('recorded_at', '?')):<20} "
                     f"{str(entry.get('suite', '?')):<11} "
                     f"{len(metrics):>7}  {headline}")
    lines.append(f"-- {len(entries)} entr"
                 f"{'y' if len(entries) == 1 else 'ies'} total")
    return "\n".join(lines)
