"""Scaled parameter presets mapping paper units to repro units.

One global rule (documented in DESIGN.md): the paper's 1M-instruction
interval maps to ``INTERVAL_UNIT`` instructions here, and every other
length scales with it.  Labels keep the *paper's* unit names (``1M``,
``10M``, ``100M``) so figures read like the original.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .dynamic import DynamicSamplingConfig
from .rankedset import RankedSetConfig
from .simpoint.config import SimPointConfig
from .smarts import SmartsConfig
from .stratified import StratifiedConfig

#: repro instructions per paper 1M instructions
INTERVAL_UNIT = 1000

#: paper-label -> scaled interval length
INTERVAL_LENGTHS: Dict[str, int] = {
    "1M": INTERVAL_UNIT,
    "10M": 10 * INTERVAL_UNIT,
    "100M": 100 * INTERVAL_UNIT,
}

#: warmup before each SimPoint/Dynamic-Sampling measurement.  The paper
#: warms for 1M instructions, ~36x the footprint of its 8K-line L2; a
#: 1:1 scaled warmup (1K) cannot even touch our scaled L2 once, so the
#: warmup shrinks less than the intervals: 5K instructions covers the
#: 512-line scaled L2 a few times over, preserving the paper's
#: warm-measurement property.
WARMUP_LENGTH = 5 * INTERVAL_UNIT

#: the paper's SMARTS configuration 97K/2K/1K, scaled.  The period is
#: compressed less than the benchmarks (2.5K instead of 100K) so the
#: scaled runs still contain hundreds of measurement units, while the
#: 97:2:1 cost proportions are preserved exactly.
SMARTS_PRESET = SmartsConfig(
    functional_warming=4450,
    detailed_warming=450,
    unit_size=100,
)

#: the paper's SimPoint setup: up to K=300 clusters of 1M instructions.
#: Our benchmarks have 1-3K intervals instead of 30-240K, so the cluster
#: budget compresses less than the interval unit (80 instead of 30) to
#: keep clusters-per-phase comparable; the BIC still chooses the final k
#: per benchmark, as in SimPoint 3.2.
SIMPOINT_PRESET = SimPointConfig(
    interval_length=INTERVAL_UNIT,
    max_clusters=80,
    projection_dims=15,
    warmup_length=WARMUP_LENGTH,
)

#: SimPoint with MAV-augmented features: identical clustering budget,
#: BBVs concatenated with page/stride touch histograms.  The MAV block
#: is down-weighted to a quarter of the BBV block: it should *refine*
#: code-similar clusters by memory behaviour, not dominate them — at
#: equal weight the extra variance can push the BIC to degenerate
#: single-cluster solutions on small interval counts.
SIMPOINT_MAV_PRESET = SimPointConfig(
    interval_length=INTERVAL_UNIT,
    max_clusters=80,
    projection_dims=15,
    warmup_length=WARMUP_LENGTH,
    mav=True,
    mav_weight=0.25,
)

#: default timed budget of the stratified sampler.  The tiny suite has
#: ~20-100 intervals per benchmark, so 12 detailed measurements keep
#: the policy clearly cheaper than full timing while covering every
#: stratum of the default 4-quantile split.
STRATIFIED_BUDGET = 12

STRATIFIED_PRESET = StratifiedConfig(
    interval_length=INTERVAL_UNIT,
    n_strata=4,
    budget=STRATIFIED_BUDGET,
    warmup_length=WARMUP_LENGTH,
)

#: default ranked-set shape: sets of 5 intervals, 3 subsampling cycles
#: (3 IPC estimates -> a reportable confidence interval)
RANKEDSET_SET_SIZE = 5
RANKEDSET_CYCLES = 3

RANKEDSET_PRESET = RankedSetConfig(
    interval_length=INTERVAL_UNIT,
    set_size=RANKEDSET_SET_SIZE,
    cycles=RANKEDSET_CYCLES,
    warmup_length=WARMUP_LENGTH,
)


def stratified_config(budget: int) -> StratifiedConfig:
    """The stratified preset at a different phase-2 budget."""
    return StratifiedConfig(
        interval_length=INTERVAL_UNIT,
        n_strata=STRATIFIED_PRESET.n_strata,
        budget=budget,
        warmup_length=WARMUP_LENGTH,
    )


def rankedset_config(cycles: int) -> RankedSetConfig:
    """The ranked-set preset at a different cycle count."""
    return RankedSetConfig(
        interval_length=INTERVAL_UNIT,
        set_size=RANKEDSET_SET_SIZE,
        cycles=cycles,
        warmup_length=WARMUP_LENGTH,
    )


def dynamic_config(variable: str, sensitivity_percent: float,
                   interval_label: str,
                   max_func: Optional[int] = None
                   ) -> DynamicSamplingConfig:
    """Build a Dynamic Sampling config from paper-style notation.

    ``dynamic_config("CPU", 300, "1M", None)`` is the paper's
    ``CPU-300-1M-inf`` point.  Fractional sensitivities are allowed
    (``dynamic_config("CPU", 0.3, "1M", 1000)`` → ``CPU-0.3-1M-1000``).
    """
    if interval_label not in INTERVAL_LENGTHS:
        raise KeyError(f"unknown interval label {interval_label!r}")
    maxf = "inf" if max_func is None else str(max_func)
    return DynamicSamplingConfig(
        variables=(variable,),
        sensitivity=sensitivity_percent / 100.0,
        interval_length=INTERVAL_LENGTHS[interval_label],
        max_func=max_func,
        warmup_length=WARMUP_LENGTH,
        label=f"{variable}-{sensitivity_percent}-{interval_label}-{maxf}",
    )


#: the named Dynamic Sampling points the paper highlights in Figure 5
FIGURE5_DYNAMIC_CONFIGS: Tuple[DynamicSamplingConfig, ...] = (
    dynamic_config("IO", 100, "1M", None),
    dynamic_config("CPU", 300, "1M", None),
    dynamic_config("CPU", 300, "1M", 100),
    dynamic_config("CPU", 300, "100M", 10),
    dynamic_config("EXC", 500, "10M", 10),
    dynamic_config("EXC", 300, "1M", 10),
)


def figure6_policy_grid() -> List[DynamicSamplingConfig]:
    """The Figure 6/7 bar groups: {CPU-300, IO-100} x {1M,10M,100M} x
    {10, inf}."""
    configs: List[DynamicSamplingConfig] = []
    for variable, sensitivity in (("CPU", 300), ("IO", 100)):
        for label in ("1M", "10M", "100M"):
            for max_func in (10, None):
                configs.append(dynamic_config(variable, sensitivity,
                                              label, max_func))
    return configs


def full_sweep(variables: Iterable[str] = ("CPU", "EXC", "IO"),
               sensitivities: Iterable[int] = (100, 300, 500),
               labels: Iterable[str] = ("1M", "10M", "100M"),
               max_funcs: Iterable[Optional[int]] = (10, None)
               ) -> List[DynamicSamplingConfig]:
    """The full §5 parameter grid."""
    return [dynamic_config(variable, sensitivity, label, max_func)
            for variable in variables
            for sensitivity in sensitivities
            for label in labels
            for max_func in max_funcs]
