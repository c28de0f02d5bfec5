"""Two-phase stratified sampling over cheap VM statistics.

The direct successor of the paper's Dynamic Sampling (Ekman's *CPU
Simulation Using Two-Phase Stratified Sampling*, see PAPERS.md): phase
1 runs the benchmark once at full VM speed collecting the per-interval
deltas of the statistics the dynamic sampler already monitors; the
intervals are *stratified* by quantile-binning that cheap score, and a
fixed detailed-simulation budget is split across strata with **Neyman
allocation** — proportional to stratum size times within-stratum
standard deviation, so the budget concentrates where the program's
behaviour actually varies.  Phase 2 fast-forwards to the selected
intervals (systematically spread within each stratum), warms, and
measures each with the detailed core; the whole-program CPI is the
population-weighted combination of per-stratum mean CPIs.

Degenerate inputs degrade gracefully rather than divide by zero: a
single interval becomes one stratum with one measurement, all-equal
scores collapse to one stratum, zero-variance strata fall back to
proportional (uniform-rate) allocation, and a budget at or above the
population simply measures everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.vm.stats import MONITORABLE

from .base import Sampler
from .cheapstats import collect_cheap_stats
from .controller import SimulationController
from .passes import measure_intervals


def quantile_strata(scores: Sequence[float], n_strata: int) -> List[int]:
    """Assign each interval a stratum id by quantile-binning its score.

    Returns one dense id in ``[0, k)`` per interval, ``k <= n_strata``.
    Equal scores always share a stratum (ties are pulled into the
    first tied member's bin), and empty bins are compacted away — so
    all-equal scores (or a single interval) produce exactly one
    stratum.  Ids are ordered by ascending score.
    """
    if n_strata < 1:
        raise ValueError("n_strata must be >= 1")
    n = len(scores)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (scores[i], i))
    raw = [0] * n
    for position, index in enumerate(order):
        raw[index] = position * n_strata // n
    # equal scores must not straddle a quantile edge: walk the sorted
    # order and pull ties down into the first tied member's bin
    for prev, index in zip(order, order[1:]):
        if scores[index] == scores[prev]:
            raw[index] = raw[prev]
    remap: Dict[int, int] = {}
    for index in order:
        if raw[index] not in remap:
            remap[raw[index]] = len(remap)
    return [remap[raw[i]] for i in range(n)]


def neyman_allocation(sizes: Sequence[int], stds: Sequence[float],
                      budget: int) -> List[int]:
    """Split ``budget`` detailed samples across strata (Neyman).

    The ideal share of stratum *h* is proportional to ``N_h * S_h``
    (size times standard deviation); integer counts come from
    largest-remainder rounding.  Guarantees:

    * the result sums to ``min(budget, sum(sizes))`` exactly;
    * ``0 <= n_h <= N_h`` for every stratum;
    * when every stratum has zero variance the weights fall back to
      the sizes themselves (proportional / uniform-rate allocation) —
      never a division by zero;
    * when the budget covers it, every non-empty stratum gets at least
      one sample (so no stratum's population weight is silently lost).
    """
    if len(sizes) != len(stds):
        raise ValueError("sizes and stds must have equal length")
    if any(size < 0 for size in sizes):
        raise ValueError("negative stratum size")
    if any(std < 0 for std in stds):
        raise ValueError("negative stratum standard deviation")
    total = sum(sizes)
    budget = max(0, min(budget, total))
    count = len(sizes)
    allocation = [0] * count
    if budget == 0 or count == 0:
        return allocation
    # coverage floor: one sample per non-empty stratum while the
    # budget lasts (ascending index — deterministic)
    remaining = budget
    for h in range(count):
        if remaining == 0:
            break
        if sizes[h] > 0:
            allocation[h] = 1
            remaining -= 1
    weights = [size * std
               for size, std in zip(sizes, stds, strict=True)]
    if sum(weights) <= 0.0:
        # all strata are internally homogeneous: Neyman degenerates,
        # allocate proportionally to size instead
        weights = [float(size) for size in sizes]
    total_weight = sum(weights)
    shares = [remaining * weight / total_weight for weight in weights]
    extra = [min(int(math.floor(share)), sizes[h] - allocation[h])
             for h, share in enumerate(shares)]
    for h in range(count):
        allocation[h] += extra[h]
    leftover = budget - sum(allocation)
    # hand the leftover out by largest fractional remainder (ties by
    # index), skipping full strata; budget <= total guarantees every
    # round places at least one sample, so this terminates
    while leftover > 0:
        open_strata = [h for h in range(count)
                       if allocation[h] < sizes[h]]
        open_strata.sort(key=lambda h: (-(shares[h] - extra[h]), h))
        for h in open_strata:
            if leftover == 0:
                break
            if allocation[h] < sizes[h]:
                allocation[h] += 1
                leftover -= 1
    return allocation


def systematic_pick(members: Sequence[int], count: int) -> List[int]:
    """``count`` members spread systematically across the stratum.

    Midpoint rule: pick positions ``floor((2j+1) * n / (2 * count))``,
    which are provably distinct for ``count <= n`` — no RNG, and the
    picks cover the stratum evenly rather than clustering at one end.
    """
    n = len(members)
    count = min(count, n)
    if count <= 0:
        return []
    if count == n:
        return list(members)
    return [members[(2 * j + 1) * n // (2 * count)]
            for j in range(count)]


def _score_std(scores: Sequence[float], members: Sequence[int]) -> float:
    """Population standard deviation of the members' cheap scores."""
    if len(members) < 2:
        return 0.0
    selected = [scores[i] for i in members]
    mean = sum(selected) / len(selected)
    return math.sqrt(sum((value - mean) ** 2 for value in selected)
                     / len(selected))


@dataclass(frozen=True)
class StratifiedConfig:
    """Knobs of the two-phase stratified sampler."""

    variables: Tuple[str, ...] = MONITORABLE
    interval_length: int = 1000
    n_strata: int = 4
    #: detailed measurements across all strata (phase-2 budget)
    budget: int = 12
    warmup_length: int = 1000
    label: str = ""

    def __post_init__(self):
        if self.interval_length <= 0:
            raise ValueError("interval length must be positive")
        if self.n_strata < 1:
            raise ValueError("need at least one stratum")
        if self.budget < 1:
            raise ValueError("need a positive timed budget")
        for variable in self.variables:
            if variable not in MONITORABLE:
                raise KeyError(f"unknown monitored statistic "
                               f"{variable!r}; choose from {MONITORABLE}")

    @property
    def display(self) -> str:
        return self.label or f"stratified-{self.budget}"


class StratifiedSampler(Sampler):
    """Two-phase stratified sampling of one benchmark."""

    def __init__(self, config: StratifiedConfig | None = None, **kwargs):
        super().__init__(**kwargs)
        self.config = config or StratifiedConfig()
        self.name = f"stratified:{self.config.display}"

    def sample(self, controller: SimulationController) -> Dict:
        config = self.config
        profile = collect_cheap_stats(controller, config.interval_length)
        n = profile.num_intervals
        if n == 0:
            return {"ipc": 0.0, "timed_intervals": 0,
                    "config": config.display, "num_intervals": 0,
                    "strata": [], "budget": config.budget}

        scores = profile.scores(config.variables)
        strata = quantile_strata(scores, config.n_strata)
        k = max(strata) + 1
        members: List[List[int]] = [[] for _ in range(k)]
        for index, stratum in enumerate(strata):
            members[stratum].append(index)
        sizes = [len(group) for group in members]
        stds = [_score_std(scores, group) for group in members]
        allocation = neyman_allocation(sizes, stds, config.budget)
        selected: List[int] = []
        for stratum, quota in enumerate(allocation):
            selected.extend(systematic_pick(members[stratum], quota))

        measurements = measure_intervals(controller, profile, selected,
                                         config.warmup_length)

        # Stratified estimate: each stratum contributes its measured
        # mean CPI at its population weight N_h/N; strata the program
        # ended before (or that measured nothing) renormalize out.
        covered_weight = 0.0
        weighted_cpi = 0.0
        per_stratum: List[Dict] = []
        for stratum in range(k):
            measured = [measurements[index]
                        for index in members[stratum]
                        if index in measurements]
            instructions = sum(count for count, _ in measured)
            cycles = sum(cycle for _, cycle in measured)
            entry = {
                "size": sizes[stratum],
                "allocated": allocation[stratum],
                "measured": len(measured),
                "score_std": stds[stratum],
            }
            if instructions > 0 and cycles > 0:
                cpi = cycles / instructions
                entry["cpi"] = cpi
                weight = sizes[stratum] / n
                covered_weight += weight
                weighted_cpi += weight * cpi
            per_stratum.append(entry)
        ipc = covered_weight / weighted_cpi if weighted_cpi > 0 else 0.0
        return {
            "ipc": ipc,
            "timed_intervals": len(measurements),
            "config": config.display,
            "num_intervals": n,
            "num_strata": k,
            "budget": config.budget,
            "strata": per_stratum,
            "covered_weight": covered_weight,
        }
