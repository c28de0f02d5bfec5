"""Basic Block Vector collection (Sherwood et al.).

A BBV is, for one execution interval, the number of instructions
executed in each basic block.  Our VM's PROFILE mode counts
instructions per dispatched block at full speed;
:class:`BbvCollector` is the feature stream that slices those counts
into per-interval vectors during the shared profiling pass
(:func:`~repro.sampling.passes.profile_pass`) and packs them into a
dense matrix for clustering.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..controller import SimulationController
from ..passes import profile_pass, rekey


class BbvCollector:
    """Collects one Basic Block Vector per fixed-length interval."""

    def __init__(self, interval_length: int):
        self.interval_length = interval_length
        self.vectors: List[Dict[int, int]] = []
        #: instruction offset at which each collected interval began
        #: (the pass's recorded starts)
        self.starts: List[int] = []

    def attach(self, replica: SimulationController) -> None:
        replica.take_profile()  # drop any stale counts

    def take(self, replica: SimulationController,
             executed: int) -> Optional[Dict[int, int]]:
        """The interval's counts; an empty vector refuses it."""
        return replica.take_profile() or None

    def keep(self, feature: Dict[int, int]) -> None:
        self.vectors.append(feature)

    def dump(self) -> Dict:
        return {"vectors": rekey(self.vectors, str)}

    def load(self, payload: Dict) -> None:
        self.vectors = rekey(payload["vectors"], int)

    def matrix(self) -> np.ndarray:
        """Dense (intervals x blocks) matrix with L1-normalised rows."""
        if not self.vectors:
            return np.zeros((0, 0))
        block_ids = sorted({pc for vector in self.vectors
                            for pc in vector})
        index = {pc: i for i, pc in enumerate(block_ids)}
        matrix = np.zeros((len(self.vectors), len(block_ids)))
        for row, vector in enumerate(self.vectors):
            for pc, count in vector.items():
                matrix[row, index[pc]] = count
        norms = matrix.sum(axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return matrix / norms


def profile_bbv(controller: SimulationController,
                interval_length: int) -> BbvCollector:
    """The full-run BBV profile of ``controller``'s workload: one
    :func:`~repro.sampling.passes.profile_pass` in the VM's profile
    mode, charged to the controller's ``profile`` breakdown and
    memoized as the ``profile-<interval>`` artifact.
    """
    collector = BbvCollector(interval_length)
    collector.starts = profile_pass(controller, f"profile-{interval_length}",
                                    "profile", interval_length, [collector])
    return collector
