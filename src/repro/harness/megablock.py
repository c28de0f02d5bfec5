"""Megablock-tier throughput benchmark: chained dispatch vs fused.

Measures guest instructions/second of the two *fast-path* engine
configurations —

* **mega**: the megablock tier enabled (default) — chains of hot
  fused superblocks inlined into single megablock functions with
  guarded exits (``repro.vm.chain``), hot loops iterating inside one
  compiled frame;
* **fused**: the same fused superblock engine with the megablock tier
  disabled (``machine.megablocks = False``, the ``REPRO_MEGABLOCKS=0``
  escape hatch) — every block returns to the dispatch loop

— in both event-mode flavours (``timed``: detailed out-of-order core;
``warming``: functional cache/branch warming), and writes the result
as the ``BENCH_megablock.json`` trajectory that the CI perf gate
checks.

Both engines execute the *same* deterministic guest instruction stream
— the megablock tier is bit-identical by contract, only wall-clock
changes — so the mega/fused ratio is a host-independent measure of the
tier.  The gate compares ratios against the committed baseline and
additionally holds the suite's overall geomean above an absolute floor
(``MIN_OVERALL_SPEEDUP``): the tier must keep paying for itself.

The suite is the loop-dominated subset of the workloads: megablocks
are Dynamo-style *trace* linking, so they engage where hot loops close
into chains (self-loop superblocks and short loop bodies).  Benchmarks
whose windows are dominated by phase churn or straight-line code (gzip,
gcc) exercise the tier's *safety* (guards, unlinking) but not its
throughput, and are covered by the parity tests instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sampling.controller import SimulationController
from repro.timing import TimingConfig
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

SCHEMA_VERSION = 1

MODES = ("timed", "warming")

ENGINES = ("mega", "fused")

#: loop-dominated benchmarks where the chain tier engages (see module
#: docstring); a mix of integer (mcf) and FP (applu, mgrid, lucas,
#: facerec, art) workloads
MEGABLOCK_BENCHES = ("mcf", "applu", "mgrid", "lucas", "facerec", "art")

#: (warm, measure) instruction windows per suite size.  The warm
#: window covers tier promotion *and* chain building (observation
#: threshold + compile) so the measure window sees steady-state
#: chained dispatch on both engines.
WINDOWS: Dict[str, Tuple[int, int]] = {
    "tiny": (6_000, 14_000),
    "small": (150_000, 350_000),
}

DEFAULT_SIZE = "small"
DEFAULT_BASELINE = "benchmarks/BENCH_megablock.json"
DEFAULT_TOLERANCE = 0.25
DEFAULT_REPEATS = 3

#: absolute floor on the small suite's overall mega/fused speedup
#: geomean — the headline number the tier must deliver.  The gate
#: applies the run tolerance on top for CI-runner noise.
MIN_OVERALL_SPEEDUP = 1.3


def geomean(values: Iterable[float]) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def _make_controller(bench: str, size: str,
                     engine: str) -> SimulationController:
    config = dataclasses.replace(TimingConfig.small(), fast_path=True)
    controller = SimulationController(
        load_benchmark(bench, size=size),
        timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS)
    if engine == "fused":
        # The same switch REPRO_MEGABLOCKS=0 flips: chains are never
        # built and every superblock returns to the dispatch loop.
        controller.machine.megablocks = False
    return controller


def measure_throughput(bench: str, size: str, engine: str, mode: str,
                       warm: int, measure: int,
                       repeats: int = DEFAULT_REPEATS) -> Dict[str, float]:
    """Best of ``repeats`` probes: fresh controller, warm, measure.

    Both engines compile (fused superblocks, and chains on the mega
    engine), so both get one untimed priming pass on a throwaway
    controller to populate the process-wide compiled-code cache —
    megablock cache keys are machine-independent link-set fingerprints,
    so primed chain sources are reused across controllers exactly like
    primed block sources.  The measured passes then report steady-state
    throughput instead of charging compilation to the first run.
    """
    primer = _make_controller(bench, size, engine)
    getattr(primer, "run_" + mode)(warm + measure)
    best = None
    for _ in range(max(1, repeats)):
        controller = _make_controller(bench, size, engine)
        run = getattr(controller, "run_" + mode)
        run(warm)
        start = time.perf_counter()
        executed = run(measure)
        elapsed = time.perf_counter() - start
        if mode == "timed":
            executed = executed[0]
        if best is None or elapsed < best[1]:
            best = (executed, elapsed)
    executed, elapsed = best
    return {
        "instructions": executed,
        "seconds": elapsed,
        "ips": executed / elapsed if elapsed > 0 else 0.0,
    }


def run_size(size: str, benchmarks: Optional[List[str]] = None,
             windows: Optional[Tuple[int, int]] = None,
             repeats: int = DEFAULT_REPEATS) -> Dict:
    """Measure every benchmark x mode x engine cell for one size."""
    benchmarks = list(benchmarks or MEGABLOCK_BENCHES)
    warm, measure = windows or WINDOWS[size]
    rows: Dict[str, Dict] = {}
    for bench in benchmarks:
        per_mode: Dict[str, Dict] = {}
        for mode in MODES:
            cell: Dict[str, Dict[str, float]] = {}
            for engine in ENGINES:
                cell[engine] = measure_throughput(
                    bench, size, engine, mode, warm, measure,
                    repeats=repeats)
            fused_ips = cell["fused"]["ips"]
            cell["speedup"] = (cell["mega"]["ips"] / fused_ips
                               if fused_ips > 0 else 0.0)
            per_mode[mode] = cell
        rows[bench] = per_mode
    summary = {
        mode: {
            "mega_ips_geomean": geomean(
                rows[b][mode]["mega"]["ips"] for b in benchmarks),
            "fused_ips_geomean": geomean(
                rows[b][mode]["fused"]["ips"] for b in benchmarks),
            "speedup_geomean": geomean(
                rows[b][mode]["speedup"] for b in benchmarks),
        }
        for mode in MODES
    }
    summary["overall_speedup_geomean"] = geomean(
        rows[b][mode]["speedup"] for b in benchmarks for mode in MODES)
    return {
        "windows": {"warm": warm, "measure": measure},
        "benchmarks": rows,
        "summary": summary,
    }


def run_bench(sizes: Iterable[str] = (DEFAULT_SIZE,),
              benchmarks: Optional[List[str]] = None,
              windows: Optional[Tuple[int, int]] = None,
              repeats: int = DEFAULT_REPEATS) -> Dict:
    """The full trajectory payload written to ``BENCH_megablock.json``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "modes": list(MODES),
        "sizes": {size: run_size(size, benchmarks, windows, repeats)
                  for size in sizes},
    }


# ----------------------------------------------------------------------
# baseline comparison (the CI perf gate)

def compare_to_baseline(current: Dict, baseline: Dict,
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` speedup ratios.

    A cell regresses when its mega/fused speedup falls more than
    ``tolerance`` (fractional) below the committed baseline's.  On top
    of the relative gate, the small suite's overall geomean must stay
    above ``MIN_OVERALL_SPEEDUP`` (with the same tolerance for runner
    noise): the megablock tier exists to be faster than the fused
    tier, and a baseline that ratchets below that is a regression even
    if it does so slowly.  Returns human-readable problem strings
    (empty = gate passes).
    """
    problems: List[str] = []
    for size, base_size in baseline.get("sizes", {}).items():
        cur_size = current.get("sizes", {}).get(size)
        if cur_size is None:
            continue
        for bench, base_modes in base_size["benchmarks"].items():
            cur_modes = cur_size["benchmarks"].get(bench)
            if cur_modes is None:
                problems.append(f"{size}/{bench}: missing from run")
                continue
            for mode, base_cell in base_modes.items():
                base_ratio = base_cell["speedup"]
                cur_ratio = cur_modes[mode]["speedup"]
                floor = base_ratio * (1.0 - tolerance)
                if cur_ratio < floor:
                    problems.append(
                        f"{size}/{bench}/{mode}: speedup {cur_ratio:.2f}x"
                        f" < {floor:.2f}x"
                        f" (baseline {base_ratio:.2f}x - {tolerance:.0%})")
        cur_overall = cur_size["summary"]["overall_speedup_geomean"]
        base_overall = base_size["summary"]["overall_speedup_geomean"]
        floor = base_overall * (1.0 - tolerance)
        if cur_overall < floor:
            problems.append(
                f"{size}/overall: geomean speedup {cur_overall:.2f}x"
                f" < {floor:.2f}x (baseline {base_overall:.2f}x)")
        if size == "small":
            absolute = MIN_OVERALL_SPEEDUP * (1.0 - tolerance)
            if cur_overall < absolute:
                problems.append(
                    f"{size}/overall: geomean speedup {cur_overall:.2f}x"
                    f" below the absolute megablock floor "
                    f"{MIN_OVERALL_SPEEDUP:.2f}x - {tolerance:.0%} = "
                    f"{absolute:.2f}x")
    return problems


def format_table(payload: Dict) -> str:
    """Human-readable per-benchmark table for one payload."""
    lines: List[str] = []
    for size, data in payload["sizes"].items():
        windows = data["windows"]
        lines.append(f"size={size} (warm {windows['warm']}, "
                     f"measure {windows['measure']} instructions)")
        lines.append(f"{'benchmark':10s} {'mode':8s} "
                     f"{'mega':>10s} {'fused':>10s} {'speedup':>8s}")
        for bench, per_mode in data["benchmarks"].items():
            for mode, cell in per_mode.items():
                lines.append(
                    f"{bench:10s} {mode:8s} "
                    f"{cell['mega']['ips']:>8.0f}/s "
                    f"{cell['fused']['ips']:>8.0f}/s "
                    f"{cell['speedup']:>7.2f}x")
        summary = data["summary"]
        for mode in payload["modes"]:
            lines.append(f"{'geomean':10s} {mode:8s} "
                         f"{summary[mode]['mega_ips_geomean']:>8.0f}/s "
                         f"{summary[mode]['fused_ips_geomean']:>8.0f}/s "
                         f"{summary[mode]['speedup_geomean']:>7.2f}x")
        lines.append("overall speedup geomean: "
                     f"{summary['overall_speedup_geomean']:.2f}x")
        lines.append("")
    return "\n".join(lines)


def load_baseline(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def write_baseline(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
