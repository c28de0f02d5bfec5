"""The SimPoint sampling pipeline (profile -> cluster -> simulate).

Pass 1 profiles the complete benchmark in the VM's BBV mode.  The
per-interval Basic Block Vectors are random-projected and clustered
with k-means/BIC; each cluster contributes one *simulation point* (the
interval closest to its centroid) weighted by cluster population.
Pass 2 re-runs the benchmark, fast-forwarding between the chosen
points, warming before each, and measuring each point's IPC with the
detailed core; the whole-program IPC is the weighted combination.

Cost accounting follows the paper's §5.3: the published SimPoint
simulation times are proportional to the *number of points* (the
methodology restores checkpoints rather than replaying the program), so
the ``simpoint`` policy charges only warming + detailed simulation.
The separate ``simpoint+prof`` figure additionally charges the full
profiling pass.  This sampler executes its fast-forwards (restoring
from the on-disk checkpoint ladder when one is attached) and reports
them separately; :mod:`.checkpointed` restores an in-memory snapshot
at every point instead.  Both passes are the shared ones of
:mod:`repro.sampling.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..base import Sampler
from ..controller import SimulationController
from ..estimators import WeightedClusterEstimator
from ..passes import measure_intervals
from .bbv import profile_bbv
from .config import SimPointConfig
from .kmeans import choose_clustering, random_projection


@dataclass
class SimPointSelection:
    """The outcome of profiling + clustering."""

    points: List[Tuple[int, float]]   # (interval index, weight)
    num_intervals: int
    num_clusters: int

    @property
    def num_points(self) -> int:
        return len(self.points)


def select_simpoints(vectors_matrix: np.ndarray,
                     config: SimPointConfig) -> SimPointSelection:
    """Cluster BBVs and pick one representative interval per cluster."""
    n = vectors_matrix.shape[0]
    if n == 0:
        return SimPointSelection(points=[], num_intervals=0,
                                 num_clusters=0)
    projected = random_projection(vectors_matrix,
                                  dims=config.projection_dims,
                                  seed=config.seed)
    clustering = choose_clustering(projected, config.max_clusters,
                                   seed=config.seed,
                                   bic_threshold=config.bic_threshold)
    points: List[Tuple[int, float]] = []
    for cluster in range(clustering.k):
        members = np.flatnonzero(clustering.labels == cluster)
        if len(members) == 0:
            continue
        center = clustering.centers[cluster]
        distances = ((projected[members] - center) ** 2).sum(axis=1)
        representative = int(members[int(distances.argmin())])
        weight = len(members) / n
        points.append((representative, weight))
    points.sort()
    return SimPointSelection(points=points, num_intervals=n,
                             num_clusters=clustering.k)


def select_simpoints_cached(controller: SimulationController,
                            matrix_source: Callable[[], np.ndarray],
                            config: SimPointConfig) -> SimPointSelection:
    """:func:`select_simpoints`, memoized in the checkpoint store.

    Projection and clustering are seeded and deterministic, so the
    selection is a pure function of (feature matrix, config): a store
    hit reproduces it exactly while skipping the k-means/BIC search —
    and the feature-matrix build with it (``matrix_source`` is a
    zero-arg callable invoked only on a miss).  MAV-augmented configs
    get their own artifact name — the features differ, so the
    selections must never mix.
    """
    ladder = controller.checkpoints
    name = (f"selection-{config.interval_length}-{config.max_clusters}"
            f"-{config.projection_dims}-{config.bic_threshold}"
            f"-{config.seed}")
    if config.mav:
        name += f"-mav{config.mav_weight}"
    if ladder is not None:
        cached = ladder.load_artifact(name)
        if cached is not None:
            return SimPointSelection(
                points=[(int(index), float(weight))
                        for index, weight in cached["points"]],
                num_intervals=cached["num_intervals"],
                num_clusters=cached["num_clusters"])
    selection = select_simpoints(matrix_source(), config)
    if ladder is not None:
        ladder.publish_artifact(name, {
            "points": [[index, weight]
                       for index, weight in selection.points],
            "num_intervals": selection.num_intervals,
            "num_clusters": selection.num_clusters,
        })
    return selection


class SimPointSampler(Sampler):
    """Two-pass SimPoint simulation of one benchmark.

    With ``config.mav`` set the profiling pass also collects
    memory-access-vector histograms and the clusterer sees the
    concatenated BBV+MAV features; the policy then reports itself as
    ``simpoint-mav``.
    """

    name = "simpoint"
    charge_modes = ("warming", "timed")

    def __init__(self, config: SimPointConfig | None = None, **kwargs):
        super().__init__(**kwargs)
        self.config = config or SimPointConfig()
        if self.config.mav:
            self.name = "simpoint-mav"

    def sample(self, controller: SimulationController) -> Dict:
        config = self.config
        # ---- pass 1: profile on a separate, identical system (memoized
        # in the checkpoint store when a ladder is attached) ------------
        mav_features = None
        if config.mav:
            from .mav import mav_matrix, profile_bbv_mav
            collector, mav = profile_bbv_mav(controller,
                                             config.interval_length)
            mav_features = (
                len({vpn for hist in mav.page_hists for vpn in hist})
                + len({bucket for hist in mav.stride_hists
                       for bucket in hist}))

            def matrix_source() -> np.ndarray:
                bbv = collector.matrix()
                block = mav_matrix(mav.page_hists, mav.stride_hists,
                                   weight=config.mav_weight)
                if bbv.size and block.size:
                    return np.hstack([bbv, block])
                return bbv if bbv.size else block
        else:
            collector = profile_bbv(controller, config.interval_length)
            matrix_source = collector.matrix

        selection = select_simpoints_cached(controller, matrix_source,
                                            config)

        # ---- pass 2: fast-forward / warm / measure each point, at
        # the profiled intervals' *actual* starts ----------------------
        measurements = measure_intervals(
            controller, collector,
            [index for index, _ in selection.points],
            config.warmup_length)
        estimator = WeightedClusterEstimator()
        for index, weight in selection.points:
            if index in measurements:
                executed, cycles = measurements[index]
                estimator.add_cluster(weight,
                                      executed / cycles if cycles else 0.0)
        outcome = {
            "ipc": estimator.ipc(),
            "timed_intervals": selection.num_points,
            "num_simpoints": selection.num_points,
            "num_clusters": selection.num_clusters,
            "num_intervals": selection.num_intervals,
        }
        if mav_features is not None:
            outcome["mav_features"] = mav_features
            outcome["mav_weight"] = config.mav_weight
        return outcome
