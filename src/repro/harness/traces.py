"""Interval-grain traces for the paper's Figure 2 and Figure 4.

Figure 2 overlays the evolution of a VM-internal statistic with the IPC
measured by full timing, interval by interval.  Figure 4 adds the
simulation points chosen by SimPoint and the phases detected by Dynamic
Sampling on the same axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sampling import (SIMPOINT_PRESET, SimulationController,
                            dynamic_config)
from repro.sampling.simpoint import profile_bbv, select_simpoints
from repro.timing import TimingConfig
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark


@dataclass
class IntervalTrace:
    """Per-interval IPC and monitored-statistic deltas."""

    benchmark: str
    interval_length: int
    ipc: List[float] = field(default_factory=list)
    stats: Dict[str, List[int]] = field(default_factory=dict)
    starts: List[int] = field(default_factory=list)

    @property
    def intervals(self) -> int:
        return len(self.ipc)


def collect_interval_trace(benchmark: str, size: str = "small",
                           interval_length: int = 1000,
                           max_intervals: Optional[int] = None,
                           variables=("CPU", "EXC", "IO")
                           ) -> IntervalTrace:
    """Full-timing run recording per-interval IPC and statistic deltas.

    This is the paper's Figure 2 measurement: IPC from the timing
    simulator, statistics from the VM, on a common interval axis.
    """
    workload = load_benchmark(benchmark, size=size)
    controller = SimulationController(
        workload, timing_config=TimingConfig.small(),
        machine_kwargs=SUITE_MACHINE_KWARGS)
    trace = IntervalTrace(benchmark=benchmark,
                          interval_length=interval_length,
                          stats={variable: [] for variable in variables})
    last = {variable: 0 for variable in variables}
    while not controller.finished:
        if max_intervals is not None and trace.intervals >= max_intervals:
            break
        start = controller.icount
        executed, cycles = controller.run_timed(interval_length)
        if executed == 0:
            break
        trace.starts.append(start)
        trace.ipc.append(executed / cycles if cycles else 0.0)
        for variable in variables:
            count = controller.read_stat(variable)
            trace.stats[variable].append(count - last[variable])
            last[variable] = count
    return trace


@dataclass
class PhaseComparison:
    """SimPoint-chosen points vs Dynamic-Sampling-detected phases."""

    benchmark: str
    interval_length: int
    num_intervals: int
    simpoint_intervals: List[int]     # interval indices of simpoints
    dynamic_intervals: List[int]      # intervals where DS took a sample


def compare_phase_detection(benchmark: str, size: str = "small",
                            variable: str = "EXC",
                            sensitivity: int = 300) -> PhaseComparison:
    """Figure 4: where SimPoint and Dynamic Sampling place samples."""
    workload = load_benchmark(benchmark, size=size)
    interval = SIMPOINT_PRESET.interval_length

    controller = SimulationController(workload,
                                      machine_kwargs=SUITE_MACHINE_KWARGS)
    # SimPoint side: profile (on a replica, leaving the controller
    # untouched) + cluster
    collector = profile_bbv(controller, interval)
    selection = select_simpoints(collector.matrix(), SIMPOINT_PRESET)
    simpoint_intervals = [index for index, _ in selection.points]

    # Dynamic Sampling side: record where samples were triggered
    from repro.sampling.dynamic import DynamicSampler
    config = dynamic_config(variable, sensitivity, "1M", None)
    sampler = DynamicSampler(config)
    detected: List[int] = []
    original = controller.run_timed

    def probe(instructions, measure=True):
        position = controller.icount
        out = original(instructions, measure)
        if measure and out[0]:
            detected.append(position // interval)
        return out

    controller.run_timed = probe
    sampler.run(controller)
    return PhaseComparison(
        benchmark=benchmark,
        interval_length=interval,
        num_intervals=len(collector.starts),
        simpoint_intervals=simpoint_intervals,
        dynamic_intervals=sorted(set(detected)),
    )


def phase_match_score(comparison: PhaseComparison,
                      tolerance: int = 10) -> float:
    """Fraction of DS-detected phases within ``tolerance`` intervals of
    a SimPoint-selected interval (the paper's PN ~= SPN observation)."""
    if not comparison.dynamic_intervals:
        return 0.0
    matched = 0
    for detected in comparison.dynamic_intervals:
        if any(abs(detected - point) <= tolerance
               for point in comparison.simpoint_intervals):
            matched += 1
    return matched / len(comparison.dynamic_intervals)
