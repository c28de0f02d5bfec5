"""IPC estimation and accuracy metrics for sampled simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class SegmentedIpcEstimator:
    """Weighted-segment IPC extrapolation (paper §4.2, "à la SimPoint").

    Every instruction of the run is assigned an IPC: instructions inside
    a timed interval get the measured IPC; instructions in functional
    intervals get the IPC of the *most recent* timed interval.
    Functional instructions executed before the first timed interval are
    retroactively assigned the first measurement.  The aggregate is
    ``total_instructions / estimated_cycles`` with
    ``estimated_cycles = sum(instructions_i / ipc_i)``.
    """

    #: (instructions, ipc) pairs; ipc None means "not yet known"
    _segments: List[Tuple[int, Optional[float]]] = field(
        default_factory=list)
    _last_ipc: Optional[float] = None

    def add_functional(self, instructions: int) -> None:
        """Account a fast-forwarded stretch."""
        if instructions > 0:
            self._segments.append((instructions, self._last_ipc))

    def add_timed(self, instructions: int, ipc: float) -> None:
        """Account a measured interval."""
        if instructions <= 0:
            return
        if ipc <= 0:
            ipc = self._last_ipc if self._last_ipc else 1e-6
        self._segments.append((instructions, ipc))
        if self._last_ipc is None:
            # backfill leading functional segments
            self._segments = [
                (count, ipc if segment_ipc is None else segment_ipc)
                for count, segment_ipc in self._segments]
        self._last_ipc = ipc

    @property
    def total_instructions(self) -> int:
        return sum(count for count, _ in self._segments)

    def estimated_cycles(self) -> float:
        cycles = 0.0
        for count, ipc in self._segments:
            if ipc is None or ipc <= 0:
                # no measurement at all: assume IPC 1 (documented choice)
                ipc = 1.0
            cycles += count / ipc
        return cycles

    def ipc(self) -> float:
        total = self.total_instructions
        if total == 0:
            return 0.0
        return total / self.estimated_cycles()


@dataclass
class WeightedClusterEstimator:
    """SimPoint-style estimate: per-cluster IPC with cluster weights."""

    _weights: List[float] = field(default_factory=list)
    _ipcs: List[float] = field(default_factory=list)

    def add_cluster(self, weight: float, ipc: float) -> None:
        if weight < 0:
            raise ValueError("negative cluster weight")
        self._weights.append(weight)
        self._ipcs.append(max(ipc, 1e-9))

    def ipc(self) -> float:
        """Weighted-harmonic IPC: cycles add, instructions add."""
        if not self._weights:
            return 0.0
        total_weight = sum(self._weights)
        cycles_per_instruction = sum(
            weight / ipc for weight, ipc
            in zip(self._weights, self._ipcs, strict=True))
        return total_weight / cycles_per_instruction


@dataclass
class MeanCpiEstimator:
    """SMARTS-style estimate over systematic measurement units.

    The point estimate weights units by their instruction counts (our
    units are block-boundary-aligned and therefore vary slightly in
    length; with the paper's exactly-equal units the weighted and
    unweighted means coincide).  The CLT confidence interval uses the
    per-unit CPI distribution, as in SMARTS.
    """

    _cpis: List[float] = field(default_factory=list)
    _instructions: int = 0
    _cycles: int = 0

    def add_unit(self, instructions: int, cycles: int) -> None:
        if instructions > 0 and cycles >= 0:
            self._cpis.append(cycles / instructions)
            self._instructions += instructions
            self._cycles += cycles

    @property
    def units(self) -> int:
        return len(self._cpis)

    def cpi(self) -> float:
        if not self._instructions:
            return 0.0
        return self._cycles / self._instructions

    def ipc(self) -> float:
        cpi = self.cpi()
        return 1.0 / cpi if cpi > 0 else 0.0

    def confidence_interval(self, z: float = 1.96) -> float:
        """Half-width of the CPI confidence interval (normal approx)."""
        n = len(self._cpis)
        if n < 2:
            return math.inf
        mean = sum(self._cpis) / n
        variance = sum((x - mean) ** 2 for x in self._cpis) / (n - 1)
        return z * math.sqrt(variance / n)

    def relative_error_bound(self, z: float = 1.96) -> float:
        """The +/- fraction of CPI the sample guarantees at confidence z."""
        cpi = self.cpi()
        if cpi <= 0:
            return math.inf
        return self.confidence_interval(z) / cpi


@dataclass
class RepeatedSubsampleEstimator:
    """Ranked-set repeated-subsampling estimate with a CLT interval.

    Each subsampling cycle contributes one whole-program IPC estimate
    (instruction-weighted over its rank-selected intervals); the point
    estimate is the mean over cycles, and the confidence interval comes
    from their spread: half-width ``z * s / sqrt(R)`` for R cycles of
    sample standard deviation s — so for a given spread, more cycles
    strictly shrink the interval.
    """

    _estimates: List[float] = field(default_factory=list)

    def add_subsample(self, ipc: float) -> None:
        """Record one cycle's IPC estimate."""
        if ipc <= 0:
            raise ValueError("subsample IPC must be positive")
        self._estimates.append(ipc)

    @property
    def estimates(self) -> List[float]:
        return list(self._estimates)

    @property
    def subsamples(self) -> int:
        return len(self._estimates)

    def ipc(self) -> float:
        if not self._estimates:
            return 0.0
        return sum(self._estimates) / len(self._estimates)

    def ci_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the IPC confidence interval (normal approx)."""
        n = len(self._estimates)
        if n < 2:
            return math.inf
        mean = self.ipc()
        variance = sum((x - mean) ** 2
                       for x in self._estimates) / (n - 1)
        return z * math.sqrt(variance / n)

    def relative_halfwidth(self, z: float = 1.96) -> float:
        """The +/- fraction of IPC the subsamples bound at confidence z."""
        ipc = self.ipc()
        if ipc <= 0:
            return math.inf
        return self.ci_halfwidth(z) / ipc


def accuracy_error(estimate: float, reference: float) -> float:
    """The paper's accuracy metric: |est - ref| / ref (fraction)."""
    if reference == 0:
        return math.inf
    return abs(estimate - reference) / reference


def speedup(reference_seconds: float, seconds: float) -> float:
    """Speedup of ``seconds`` relative to the reference (full timing)."""
    if seconds <= 0:
        return math.inf
    return reference_seconds / seconds
