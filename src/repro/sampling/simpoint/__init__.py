"""SimPoint: BBV profiling, k-means clustering, point selection.

Everything here but :class:`SimPointConfig` needs numpy, so those
names are imported on first use (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_attributes

from .config import SimPointConfig

__getattr__ = lazy_attributes(__name__, {
    ".bbv": ("BbvCollector", "profile_bbv"),
    ".checkpointed": ("CheckpointedSimPointSampler",),
    ".kmeans": ("KmeansResult", "choose_clustering", "kmeans",
                "random_projection"),
    ".mav": ("MavCollector", "mav_matrix", "profile_bbv_mav",
             "stride_bucket", "touch_histograms"),
    ".simpoint": ("SimPointSampler", "SimPointSelection",
                  "select_simpoints", "select_simpoints_cached"),
})

__all__ = [
    "BbvCollector", "profile_bbv",
    "CheckpointedSimPointSampler",
    "KmeansResult", "choose_clustering", "kmeans", "random_projection",
    "MavCollector", "mav_matrix", "profile_bbv_mav",
    "stride_bucket", "touch_histograms",
    "SimPointConfig", "SimPointSampler", "SimPointSelection",
    "select_simpoints", "select_simpoints_cached",
]
