"""Ranked-set sampling with repeated subsampling.

The second Ekman successor of the paper's Dynamic Sampling (*CPU
Simulation with Ranked Set Sampling and Repeated Subsampling*, see
PAPERS.md).  Candidate intervals are partitioned into small consecutive
*sets*; within each set the members are ranked by the cheap VM-statistic
score from the functional pass, and one member per set — the one
holding that set's designated rank — is simulated in detail.  Cycling
the rank assignment (set *j* contributes rank ``(j + cycle) % m`` in
cycle number ``cycle``) and repeating the selection gives several
independent-rank subsamples of the same run; their spread yields a
per-benchmark IPC confidence interval carried in
``PolicyResult.extra`` — the statistical error bar the paper's own
policies cannot report.

All selections are rank-deterministic (ties broken by interval index),
so the policy needs no RNG and stays bit-identical across engines.
Degenerate inputs degrade gracefully: fewer intervals than the set
size means one (partial) set, and a single interval yields identical
subsamples with a zero-width spread (the half-width is reported as
``None`` until two subsamples exist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.vm.stats import MONITORABLE

from .base import Sampler
from .cheapstats import collect_cheap_stats
from .controller import SimulationController
from .estimators import RepeatedSubsampleEstimator
from .passes import measure_intervals


@dataclass(frozen=True)
class RankedSetConfig:
    """Knobs of the ranked-set sampler."""

    variables: Tuple[str, ...] = MONITORABLE
    interval_length: int = 1000
    #: intervals per ranking set (m); one member per set is measured
    #: in each subsampling cycle
    set_size: int = 5
    #: repeated-subsampling cycles (each yields one IPC estimate)
    cycles: int = 3
    warmup_length: int = 1000
    label: str = ""

    def __post_init__(self):
        if self.interval_length <= 0:
            raise ValueError("interval length must be positive")
        if self.set_size < 1:
            raise ValueError("set size must be >= 1")
        if self.cycles < 1:
            raise ValueError("need at least one subsampling cycle")
        for variable in self.variables:
            if variable not in MONITORABLE:
                raise KeyError(f"unknown monitored statistic "
                               f"{variable!r}; choose from {MONITORABLE}")

    @property
    def display(self) -> str:
        return self.label or f"rankedset-{self.cycles}"


def ranked_set_subsamples(scores: List[float], set_size: int,
                          cycles: int) -> List[List[int]]:
    """The interval indices each subsampling cycle measures.

    Consecutive runs of ``set_size`` intervals form one set (the last
    set may be partial); within a set members are ranked by (score,
    index) ascending.  Cycle ``c`` takes rank ``(j + c) % len(set)``
    from set ``j`` — every set is represented in every cycle, and over
    the cycles the designated rank rotates through the set.
    """
    n = len(scores)
    sets = [list(range(low, min(low + set_size, n)))
            for low in range(0, n, set_size)]
    ranked = [sorted(group, key=lambda i: (scores[i], i))
              for group in sets]
    return [[group[(j + cycle) % len(group)]
             for j, group in enumerate(ranked)]
            for cycle in range(cycles)]


class RankedSetSampler(Sampler):
    """Ranked-set sampling with repeated subsampling of one benchmark."""

    def __init__(self, config: RankedSetConfig | None = None, **kwargs):
        super().__init__(**kwargs)
        self.config = config or RankedSetConfig()
        self.name = f"rankedset:{self.config.display}"

    def sample(self, controller: SimulationController) -> Dict:
        config = self.config
        profile = collect_cheap_stats(controller, config.interval_length)
        n = profile.num_intervals
        if n == 0:
            return {"ipc": 0.0, "timed_intervals": 0,
                    "config": config.display, "num_intervals": 0,
                    "subsample_ipcs": [], "ipc_ci_halfwidth": None,
                    "cycles": config.cycles, "set_size": config.set_size}

        scores = profile.scores(config.variables)
        subsamples = ranked_set_subsamples(scores, config.set_size,
                                           config.cycles)
        # every designated interval is measured exactly once, in one
        # forward pass; the cycles then share the measurements
        wanted = sorted({index for picks in subsamples
                         for index in picks})
        measurements = measure_intervals(controller, profile, wanted,
                                         config.warmup_length)

        estimator = RepeatedSubsampleEstimator()
        for picks in subsamples:
            measured = [measurements[index] for index in picks
                        if index in measurements]
            instructions = sum(count for count, _ in measured)
            cycles_sum = sum(cycle for _, cycle in measured)
            if instructions > 0 and cycles_sum > 0:
                estimator.add_subsample(instructions / cycles_sum)
        halfwidth = estimator.ci_halfwidth()
        return {
            "ipc": estimator.ipc(),
            "timed_intervals": len(measurements),
            "config": config.display,
            "num_intervals": n,
            "set_size": config.set_size,
            "cycles": config.cycles,
            "subsample_ipcs": estimator.estimates,
            # None (not inf) below two subsamples: the extra dict must
            # stay JSON-clean for the result store
            "ipc_ci_halfwidth": (halfwidth if math.isfinite(halfwidth)
                                 else None),
            "ipc_ci_relative": (estimator.relative_halfwidth()
                                if math.isfinite(halfwidth)
                                and estimator.ipc() > 0 else None),
        }
