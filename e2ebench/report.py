"""Metric arithmetic: self times, percentiles, failure counts and the
end-to-end and per-layer metric sets.  Pure functions over the records
``run.py`` collected, so the tests can feed them synthetic data."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

END_TO_END_UNITS = {
    "sweep_s": "s", "cell_p50_s": "s", "setup_s": "s",
    "sim_kips": "kinst/s", "peak_rss_mb": "MB", "ipc_err_pct": "%",
    "modeled_speedup": "x",
}

MODES = ("fast", "profile", "warming", "timed")

#: reported as inclusive time ("generate_chain and its vetting and
#: compile"); every other layer time is self time
INCLUSIVE = {"vm.chain.build"}

#: traced layers reported as ``<name>.s``, and with a call count
#: ``<name>.n`` where the flag is set
LAYERS = (
    ("import", False), ("workloads.build", False), ("kernel.boot", False),
    ("analysis.sanitizer", True), ("compile", True),
    ("vm.translator.codegen", False), ("vm.chain.build", True),
    *((f"exec.{mode}", False) for mode in MODES),
    ("sampling.policy", False), ("sampling.simpoint.cluster", False),
    ("ckptstore.load", True), ("ckptstore.publish", True),
    ("store.put", False), ("store.get", False), ("exec.engine", False),
)

Span = Sequence  # [name, start, end, parent, count]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(max(end - start - covered, 0.0))
    return result


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[int, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    ordered = sorted(values)
    at_or_below = len(ordered) - 10
    if at_or_below < 1:
        return None
    return (100 * at_or_below // len(ordered), ordered[at_or_below - 1])


def count_failures(runs: Iterable) -> Tuple[int, int]:
    """``(attempted, failed)`` over cell runs; a crash, a timeout and a
    digest that differs from the reference each count as failed."""
    attempted = failed = 0
    for run in runs:
        attempted += 1
        failed += bool(run.failed)
    return attempted, failed


def check_against_reference(run, refs: Dict[str, Dict]) -> None:
    """Mark ``run`` failed when its digest differs from the oracle's."""
    digest = run.record.get("digest")
    expected = refs[run.cell.ref_key]["digest"]
    if digest is not None and digest != expected:
        run.mismatch = f"digest {digest[:12]} != reference {expected[:12]}"


def per_cell_means(runs: Sequence) -> List[Tuple[float, Optional[float]]]:
    """``(wall, setup)`` of each distinct cell, averaged over the sweeps
    that ran it, so every cell counts once whatever the sweep count."""
    grouped: Dict[Tuple[int, str], list] = {}
    for run in runs:
        grouped.setdefault((run.pass_no, run.cell.ref_key), []).append(run)
    means = []
    for group in grouped.values():
        setups = [run.setup for run in group if run.setup is not None]
        means.append((statistics.fmean(run.ref_wall for run in group),
                      statistics.fmean(setups) if setups else None))
    return means


def end_to_end(sweeps: Sequence, refs: Dict[str, Dict]
               ) -> Dict[str, float]:
    """The end-to-end metrics over the untraced sweeps."""
    untraced = [sweep for sweep in sweeps if not sweep.traced]
    runs = [run for sweep in untraced for run in sweep.runs]
    cells = per_cell_means(runs)
    setups = [setup for _, setup in cells if setup is not None]
    ok = [run for run in runs if not run.failed]
    sampled = [run for run in ok if run.cell.policy != "full"]
    full = [refs[run.cell.full().ref_key] for run in sampled]
    errors = [abs(run.record["ipc"] - ref["ipc"]) / ref["ipc"]
              for run, ref in zip(sampled, full)]
    modeled = sum(run.record["modeled_seconds"] for run in sampled)
    return {
        "sweep_s": statistics.median(
            sweep.ref_seconds for sweep in untraced),
        "cell_p50_s": statistics.median(wall for wall, _ in cells),
        "setup_s": statistics.median(setups) if setups else math.nan,
        "sim_kips": (sum(run.record["instructions"] for run in ok)
                     / sum(run.ref_wall for run in runs) / 1e3),
        "peak_rss_mb": max(run.record.get("maxrss_kb", 0)
                           for run in runs) / 1024,
        "ipc_err_pct": (100 * statistics.fmean(errors)
                        if errors else math.nan),
        "modeled_speedup": (
            sum(ref["modeled_seconds"] for ref in full) / modeled
            if modeled else math.nan),
    }


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".n", "count"), ("_ratio", "ratio"),
                         ("_pct", "%"), (".kips", "kinst/s")):
        if name.endswith(suffix):
            return unit
    return "s"


def _ratio(hits: int, attempts: int) -> float:
    return hits / attempts if attempts else 0.0


def _span_totals(runs: Sequence
                 ) -> Tuple[Dict[str, Dict[str, float]], int]:
    """Per span name: call count, tally, self and inclusive seconds;
    and the number of compiles made by ``Translator.translate``."""
    totals: Dict[str, Dict[str, float]] = {}
    translate_compiles = 0
    for run in runs:
        spans = run.record.get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            entry = totals.setdefault(
                span[0], {"n": 0, "count": 0, "self": 0.0, "incl": 0.0})
            entry["n"] += 1
            entry["count"] += span[4]
            entry["self"] += own * run.scale
            entry["incl"] += (span[2] - span[1]) * run.scale
            if (span[0] == "compile" and span[3] >= 0
                    and spans[span[3]][0] == "vm.translator.codegen"):
                translate_compiles += 1
    return totals, translate_compiles


def layer_metrics(sweeps: Sequence) -> Dict[str, float]:
    """The per-layer metrics: totals per traced sweep, in reference
    seconds, plus the trace's health (unattributed time, overhead)."""
    traced_sweeps = [sweep for sweep in sweeps if sweep.traced]
    traced = [run for sweep in traced_sweeps for run in sweep.runs]
    count = len(traced_sweeps)
    totals, translate_compiles = _span_totals(traced)
    zero = {"n": 0, "count": 0, "self": 0.0, "incl": 0.0}

    def get(name: str) -> Dict[str, float]:
        return totals.get(name, zero)

    metrics: Dict[str, float] = {}
    for name, with_count in LAYERS:
        entry = get(name)
        kind = "incl" if name in INCLUSIVE else "self"
        metrics[f"{name}.s"] = entry[kind] / count
        if with_count:
            metrics[f"{name}.n"] = entry["n"] / count
    translates = get("vm.translator.codegen")["n"]
    metrics["vm.translator.hit_ratio"] = (
        1 - _ratio(translate_compiles, translates)
        if translates else 0.0)
    for mode in MODES:
        entry = get(f"exec.{mode}")
        metrics[f"exec.{mode}.kips"] = (
            entry["count"] / entry["self"] / 1e3 if entry["self"] else 0.0)
    metrics["ckptstore.restore_ratio"] = _ratio(
        get("ckptstore.load")["count"], get("exec.fast_forward")["count"])
    for pass_no in (1, 2):
        in_pass, _ = _span_totals([run for run in traced
                                   if run.pass_no == pass_no])
        metrics[f"ckptstore.pass{pass_no}.restore_ratio"] = _ratio(
            in_pass.get("ckptstore.load", zero)["count"],
            in_pass.get("exec.fast_forward", zero)["count"])
    artifacts = get("ckptstore.artifact.load")
    metrics["ckptstore.artifact_hit_ratio"] = _ratio(
        artifacts["count"], artifacts["n"])
    attributed = sum(entry["self"] for entry in totals.values())
    metrics["unattributed.s"] = (
        sum(run.ref_wall for run in traced) - attributed) / count
    metrics["trace_overhead_pct"] = 100 * (
        statistics.median(sweep.ref_seconds for sweep in traced_sweeps)
        / statistics.median(sweep.ref_seconds for sweep in sweeps
                            if not sweep.traced) - 1)
    return metrics
