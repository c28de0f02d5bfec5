"""Engine-vs-engine throughput suites: ``hotpath`` and ``megablock``.

Each suite measures guest instructions/second of an engine pair in
both event-mode flavours (``timed``: detailed out-of-order core;
``warming``: functional cache/branch warming), per suite size:

* **hotpath** — ``fast``, the fused superblock path, against ``slow``,
  the per-instruction interpreter oracle (``REPRO_SLOW_PATH=1``) the
  fast path is validated against;
* **megablock** — ``mega``, the megablock tier (hot fused superblocks
  chained into single functions, ``repro.vm.chain``), against
  ``fused``, the same engine with the tier off (``REPRO_MEGABLOCKS=0``).

Both engines of a pair execute the *same* deterministic guest
instruction stream, so the speedup ratio is host-independent where
absolute instructions/sec are not: the gate compares ratios against
the committed baseline, and the megablock suite also holds its small
overall geomean above ``MIN_OVERALL_SPEEDUP``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sampling.controller import SimulationController
from repro.timing import TimingConfig
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

from .bench import Metric, geomean
from .experiments import default_benchmarks

SCHEMA_VERSION = 1

#: event-mode flavours measured (the "functional" mode is the warming
#: sink: full-speed sampling-support mode, no pipeline timing)
MODES = ("timed", "warming")

#: (warm, measure) instruction windows per suite size, sized so
#: warm + measure stays below the shortest benchmark's halt point
#: (tiny: art halts at ~22.9K instructions; small: at ~564K).  The
#: warm window covers tier promotion and chain building, so the
#: measure window sees steady-state dispatch on every engine.
WINDOWS: Dict[str, Tuple[int, int]] = {
    "tiny": (6_000, 14_000),
    "small": (150_000, 350_000),
}

#: probes per cell; the best (shortest-wall-clock) one is reported.
#: Best-of-N is the standard throughput-measurement discipline: host
#: scheduling noise only ever *slows* a probe, so the fastest repeat
#: is the least-contaminated estimate and keeps the CI gate stable.
DEFAULT_REPEATS = 3

#: loop-dominated benchmarks where the megablock tier engages, a mix
#: of integer (mcf) and FP (applu, mgrid, lucas, facerec, art)
#: workloads.  Megablocks are Dynamo-style *trace* linking: they pay
#: where hot loops close into chains.  Benchmarks dominated by phase
#: churn or straight-line code (gzip, gcc) exercise the tier's safety
#: (guards, unlinking) but not its throughput, and are covered by the
#: parity tests instead.
MEGABLOCK_BENCHES = ("mcf", "applu", "mgrid", "lucas", "facerec", "art")

#: absolute floor on the megablock suite's small-size overall
#: mega/fused speedup geomean — the headline number the tier must
#: deliver.  The gate applies the run tolerance on top for noise.
MIN_OVERALL_SPEEDUP = 1.3


def _make_controller(bench: str, size: str,
                     engine: str) -> SimulationController:
    config = dataclasses.replace(TimingConfig.small(), fast_path=True)
    controller = SimulationController(
        load_benchmark(bench, size=size),
        timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS)
    if engine == "slow":
        # The switch REPRO_SLOW_PATH=1 flips at construction: event
        # mode reverts to the per-instruction interpreter oracle.
        controller.machine.fast_path = False
    elif engine == "fused":
        # The switch REPRO_MEGABLOCKS=0 flips: chains are never built
        # and every superblock returns to the dispatch loop.
        controller.machine.megablocks = False
    return controller


def measure_throughput(bench: str, size: str, engine: str, mode: str,
                       warm: int, measure: int,
                       repeats: int = DEFAULT_REPEATS) -> Dict[str, float]:
    """Best of ``repeats`` probes: fresh controller, warm, measure.

    An untimed priming pass on a throwaway controller first fills the
    process-wide compiled-code cache (megablock keys are
    machine-independent, so primed chains are reused too), so the
    probes report the steady-state throughput a sweep sees instead of
    charging compilation to the first run.  The slow oracle compiles
    nothing; priming it only costs time.
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


@dataclasses.dataclass(frozen=True)
class ThroughputSuite:
    """One engine pair measured over a benchmark list."""

    #: (measured engine, reference engine); speedup = measured/reference
    engines: Tuple[str, str]
    #: benchmarks run when none are given (empty: the default suite)
    benches: Tuple[str, ...] = ()
    #: absolute floor on the small size's overall speedup geomean
    min_overall_speedup: Optional[float] = None

    def run_size(self, size: str, benchmarks: Optional[List[str]] = None,
                 repeats: int = DEFAULT_REPEATS) -> Dict:
        """Measure every benchmark x mode x engine cell for one size."""
        benchmarks = list(benchmarks or self.benches
                          or default_benchmarks())
        warm, measure = WINDOWS[size]
        fast, ref = self.engines
        rows: Dict[str, Dict] = {}
        for bench in benchmarks:
            per_mode: Dict[str, Dict] = {}
            for mode in MODES:
                cell: Dict[str, Dict[str, float]] = {}
                for engine in self.engines:
                    cell[engine] = measure_throughput(
                        bench, size, engine, mode, warm, measure,
                        repeats=repeats)
                ref_ips = cell[ref]["ips"]
                cell["speedup"] = (cell[fast]["ips"] / ref_ips
                                   if ref_ips > 0 else 0.0)
                per_mode[mode] = cell
            rows[bench] = per_mode
        summary = {
            mode: {
                **{f"{engine}_ips_geomean": geomean(
                    rows[b][mode][engine]["ips"] for b in benchmarks)
                   for engine in self.engines},
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

    def run(self, sizes: Iterable[str],
            benchmarks: Optional[List[str]] = None,
            repeats: Optional[int] = None) -> Dict:
        """The full trajectory payload written to the suite baseline."""
        return {
            "schema_version": SCHEMA_VERSION,
            "modes": list(MODES),
            "sizes": {size: self.run_size(size, benchmarks,
                                          repeats or DEFAULT_REPEATS)
                      for size in sizes},
        }

    def metrics(self, payload: Dict) -> Dict[str, Metric]:
        """Per-cell and overall speedups (gated relative to the
        baseline) and per-mode geomeans, scoped by size."""
        metrics: Dict[str, Metric] = {}
        for size, data in payload.get("sizes", {}).items():
            for bench, per_mode in data.get("benchmarks", {}).items():
                for mode, cell in per_mode.items():
                    metrics[f"{size}.{bench}.{mode}.speedup"] = Metric(
                        cell["speedup"], f"{size}/{bench}/{mode}: speedup",
                        relative=True, group=f"{size}/{bench}",
                        scope=size)
            summary = data.get("summary", {})
            for mode, value in summary.items():
                if isinstance(value, dict):
                    metrics[f"{size}.{mode}.speedup_geomean"] = Metric(
                        value["speedup_geomean"],
                        f"{size}/{mode}: geomean speedup", scope=size,
                        history=True)
            floor = self.min_overall_speedup if size == "small" else None
            metrics[f"{size}.overall_speedup_geomean"] = Metric(
                summary["overall_speedup_geomean"],
                f"{size}/overall: geomean speedup", relative=True,
                floor=floor, floor_tolerant=True, group=f"{size}/overall",
                scope=size, history=True)
        return metrics

    def format_table(self, payload: Dict) -> str:
        """Human-readable per-benchmark table for one payload."""
        fast, ref = self.engines
        lines: List[str] = []
        for size, data in payload["sizes"].items():
            windows = data["windows"]
            lines.append(f"size={size} (warm {windows['warm']}, "
                         f"measure {windows['measure']} instructions)")
            lines.append(f"{'benchmark':10s} {'mode':8s} "
                         f"{fast:>10s} {ref:>10s} {'speedup':>8s}")
            for bench, per_mode in data["benchmarks"].items():
                for mode, cell in per_mode.items():
                    lines.append(
                        f"{bench:10s} {mode:8s} "
                        f"{cell[fast]['ips']:>8.0f}/s "
                        f"{cell[ref]['ips']:>8.0f}/s "
                        f"{cell['speedup']:>7.2f}x")
            summary = data["summary"]
            for mode in payload["modes"]:
                geo = summary[mode]
                lines.append(f"{'geomean':10s} {mode:8s} "
                             f"{geo[f'{fast}_ips_geomean']:>8.0f}/s "
                             f"{geo[f'{ref}_ips_geomean']:>8.0f}/s "
                             f"{geo['speedup_geomean']:>7.2f}x")
            lines.append("overall speedup geomean: "
                         f"{summary['overall_speedup_geomean']:.2f}x")
            lines.append("")
        return "\n".join(lines)


HOTPATH = ThroughputSuite(engines=("fast", "slow"))
MEGABLOCK = ThroughputSuite(engines=("mega", "fused"),
                            benches=MEGABLOCK_BENCHES,
                            min_overall_speedup=MIN_OVERALL_SPEEDUP)
