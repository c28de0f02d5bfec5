"""SimPoint's configuration, importable without numpy (the presets
and the policy registry need it on every cell's import path)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimPointConfig:
    """Scaled analogue of the paper's K=300 x 1M-interval setup."""

    interval_length: int = 1000
    max_clusters: int = 30
    projection_dims: int = 15
    warmup_length: int = 1000
    bic_threshold: float = 0.9
    seed: int = 0
    #: augment BBVs with memory-access-vector features (page/stride
    #: touch histograms from the MMU fill path) before clustering
    mav: bool = False
    #: scale of the MAV block relative to the (L1-normalised) BBV block
    mav_weight: float = 1.0
