"""Cheap functional-pass statistics (phase 1 of the two-phase policies).

The stratified and ranked-set samplers both need to *rank* candidate
intervals before spending any detailed-simulation budget on them.  The
ranking statistic is exactly what the paper's Dynamic Sampler already
monitors for free — the per-interval deltas of the VM's CPU (code-cache
invalidations), EXC (exceptions) and IO (device operations) counters —
collected here as one feature stream of the shared full-speed
profiling pass (:mod:`repro.sampling.passes`) over a replica system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.vm.stats import MONITORABLE

from .controller import SimulationController
from .passes import profile_pass


@dataclass
class CheapStatProfile:
    """Per-interval deltas of the monitorable VM statistics."""

    interval_length: int
    #: instruction offset at which each interval began (the pass's
    #: recorded starts, see :func:`~repro.sampling.passes.profile_pass`)
    starts: List[int] = field(default_factory=list)
    #: instructions actually executed per interval
    executed: List[int] = field(default_factory=list)
    #: per-interval ``{"CPU": d, "EXC": d, "IO": d}`` counter deltas
    deltas: List[Dict[str, int]] = field(default_factory=list)

    @property
    def num_intervals(self) -> int:
        return len(self.starts)

    def attach(self, replica: SimulationController) -> None:
        self._last = {variable: replica.read_stat(variable)
                      for variable in MONITORABLE}

    def take(self, replica: SimulationController,
             executed: int) -> Tuple[int, Dict[str, int]]:
        delta: Dict[str, int] = {}
        for variable in MONITORABLE:
            count = replica.read_stat(variable)
            delta[variable] = count - self._last[variable]
            self._last[variable] = count
        return executed, delta

    def keep(self, feature: Tuple[int, Dict[str, int]]) -> None:
        executed, delta = feature
        self.executed.append(executed)
        self.deltas.append(delta)

    def dump(self) -> Dict:
        return {"executed": self.executed, "deltas": self.deltas}

    def load(self, payload: Dict) -> None:
        self.executed = payload["executed"]
        self.deltas = payload["deltas"]

    def scores(self, variables: Sequence[str]) -> List[float]:
        """One scalar ranking score per interval.

        Each requested variable's delta stream is normalised by its own
        peak (so a chatty statistic cannot drown a quiet one) and the
        normalised streams are summed.  A variable that never fires
        contributes nothing; all-quiet intervals score 0.0.
        """
        for variable in variables:
            if variable not in MONITORABLE:
                raise KeyError(f"unknown monitored statistic "
                               f"{variable!r}; choose from {MONITORABLE}")
        scores = [0.0] * len(self.deltas)
        for variable in variables:
            peak = max((delta[variable] for delta in self.deltas),
                       default=0)
            if peak <= 0:
                continue
            for i, delta in enumerate(self.deltas):
                scores[i] += delta[variable] / peak
        return scores


def collect_cheap_stats(controller: SimulationController,
                        interval_length: int) -> CheapStatProfile:
    """The full-run cheap-statistics profile of ``controller``'s
    workload: one :func:`~repro.sampling.passes.profile_pass` in the
    VM's plain fast mode, charged to the controller's ``fast``
    breakdown and memoized as the ``cheapstats-<interval>`` artifact.
    """
    profile = CheapStatProfile(interval_length=interval_length)
    profile.starts = profile_pass(controller,
                                  f"cheapstats-{interval_length}", "fast",
                                  interval_length, [profile])
    return profile
