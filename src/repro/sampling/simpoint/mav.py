"""Memory-Access-Vector features for SimPoint clustering.

Basic Block Vectors see only *code* similarity; two intervals running
the same loop over different working sets land in the same cluster even
when their memory behaviour — and therefore their IPC — differs.  MAVs
(memory access vectors, cf. the MAV-augmented SimPoint variants in
related work) close that gap with features from the *data* side.

The VM's cheap window onto data behaviour is the MMU's TLB-fill slow
path: every fill names the virtual page being touched, and fills are
deterministic and engine-invariant (the parity tests pin vm_stats
across all three engines).  :class:`MavCollector` hooks
``MMU.fill_log`` during the profiling pass and condenses each
interval's fill sequence into two histograms:

* **page touches** — ``{vpn: fills}``, which pages and how hard;
* **fill strides** — log2-bucketed ``|vpn delta|`` between successive
  fills (bucket 0 = refill of the same page), separating streaming
  from pointer-chasing intervals that touch similar page sets.

:func:`mav_matrix` turns the histograms into a dense per-interval
block (columns from *sorted* key sets — permutation-stable by
construction) that is concatenated onto the BBV block behind
``SimPointConfig.mav`` and fed to the existing k-means clusterer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..controller import SimulationController
from .bbv import BbvCollector

#: stride histogram buckets: 0 = same page, k = bit_length(|delta|)
#: capped at the last bucket (strides beyond 2^14 pages are one class)
STRIDE_BUCKETS = 16


def stride_bucket(delta: int) -> int:
    """Log2 bucket of one fill-to-fill VPN distance."""
    if delta == 0:
        return 0
    return min(abs(delta).bit_length(), STRIDE_BUCKETS - 1)


def touch_histograms(fills: Sequence[int]
                     ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Page-touch and stride histograms of one interval's fill log."""
    pages: Dict[int, int] = {}
    strides: Dict[int, int] = {}
    previous = None
    for vpn in fills:
        pages[vpn] = pages.get(vpn, 0) + 1
        if previous is not None:
            bucket = stride_bucket(vpn - previous)
            strides[bucket] = strides.get(bucket, 0) + 1
        previous = vpn
    return pages, strides


def _machine_mmus(machine) -> List:
    """Every MMU of a machine (one per hart on an SMP guest)."""
    cores = getattr(machine, "cores", None)
    if cores is not None:
        return [core.mmu for core in cores]
    return [machine.mmu]


class MavCollector:
    """Per-interval MAV features riding a profiling pass.

    One shared fill log is attached to every MMU of the profiled
    machine (an SMP guest's harts fill into the same log, in the
    deterministic gang-scheduled order the controller dispatches
    them), and :meth:`close_interval` drains it into the histograms.
    """

    def __init__(self):
        self.page_hists: List[Dict[int, int]] = []
        self.stride_hists: List[Dict[int, int]] = []
        self._log: List[int] = []
        self._mmus: List = []

    def attach(self, machine) -> None:
        self._mmus = _machine_mmus(machine)
        for mmu in self._mmus:
            mmu.fill_log = self._log

    def detach(self) -> None:
        for mmu in self._mmus:
            mmu.fill_log = None
        self._mmus = []

    def close_interval(self) -> None:
        """Fold the pending fill log into one interval's histograms."""
        pages, strides = touch_histograms(self._log)
        self.page_hists.append(pages)
        self.stride_hists.append(strides)
        # the MMUs hold a reference to this exact list: clear in place
        self._log.clear()

    def discard_pending(self) -> None:
        """Drop fills of an interval the BBV collector rejected."""
        self._log.clear()


def mav_matrix(page_hists: Sequence[Dict[int, int]],
               stride_hists: Sequence[Dict[int, int]],
               weight: float = 1.0) -> np.ndarray:
    """Dense (intervals x features) MAV block.

    Columns are the union of touched pages (ascending VPN) followed by
    the stride buckets (ascending bucket id); each half is
    L1-normalised per row — mirroring the BBV normalisation, so one
    long interval cannot dominate — then scaled by ``weight`` (the
    MAV-vs-BBV balance knob).  Column order depends only on the sorted
    key sets, never on dict insertion order: feature vectors are
    permutation-stable.
    """
    rows = len(page_hists)
    if rows == 0:
        return np.zeros((0, 0))
    if len(stride_hists) != rows:
        raise ValueError("page and stride histograms must align")
    page_ids = sorted({vpn for hist in page_hists for vpn in hist})
    bucket_ids = sorted({bucket for hist in stride_hists
                         for bucket in hist})
    page_index = {vpn: column for column, vpn in enumerate(page_ids)}
    bucket_index = {bucket: column
                    for column, bucket in enumerate(bucket_ids)}
    pages = np.zeros((rows, len(page_ids)))
    strides = np.zeros((rows, len(bucket_ids)))
    for row in range(rows):
        for vpn, count in page_hists[row].items():
            pages[row, page_index[vpn]] = count
        for bucket, count in stride_hists[row].items():
            strides[row, bucket_index[bucket]] = count
    for block in (pages, strides):
        if block.shape[1]:
            norms = block.sum(axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            block /= norms
    return np.hstack([pages, strides]) * weight


def profile_bbv_mav(controller: SimulationController,
                    interval_length: int
                    ) -> Tuple[BbvCollector, MavCollector]:
    """One profiling pass collecting BBVs *and* MAV histograms.

    Mirrors :func:`~repro.sampling.simpoint.bbv.profile_bbv`: the pass
    runs on a replica system, its cost lands in the controller's
    ``profile`` breakdown, and the result is memoized in the
    checkpoint ladder — under a MAV-specific artifact name, so plain
    BBV profiles and augmented ones never mix.
    """
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    ladder = controller.checkpoints
    artifact = f"mavprofile-{interval_length}"
    collector = BbvCollector(interval_length)
    mav = MavCollector()
    if ladder is not None:
        cached = ladder.load_artifact(artifact)
        if cached is not None:
            collector.vectors = [
                {int(pc): count for pc, count in vector.items()}
                for vector in cached["vectors"]]
            collector.starts = list(cached["starts"])
            mav.page_hists = [
                {int(vpn): count for vpn, count in hist.items()}
                for hist in cached["page_hists"]]
            mav.stride_hists = [
                {int(bucket): count for bucket, count in hist.items()}
                for hist in cached["stride_hists"]]
            controller.breakdown.profile_instructions += \
                cached["profile_instructions"]
            controller.checkpoint_stats["profile_cache_hits"] += 1
            return collector, mav
    replica = type(controller)(
        controller.workload,
        machine_kwargs=controller.machine_kwargs)
    mav.attach(replica.machine)
    try:
        replica.take_profile()  # drop any stale counts
        while not replica.finished:
            start = replica.icount
            executed = replica.run_profile(interval_length)
            if executed == 0:
                break
            counts = replica.take_profile()
            if counts:
                collector.vectors.append(counts)
                collector.starts.append(start)
                mav.close_interval()
            else:
                mav.discard_pending()
    finally:
        mav.detach()
    controller.breakdown.profile_instructions += \
        replica.breakdown.profile_instructions
    controller.breakdown.wall_seconds["profile"] += \
        replica.breakdown.wall_seconds["profile"]
    if ladder is not None:
        ladder.publish_artifact(artifact, {
            "vectors": [{str(pc): count for pc, count in vector.items()}
                        for vector in collector.vectors],
            "starts": list(collector.starts),
            "page_hists": [{str(vpn): count
                            for vpn, count in hist.items()}
                           for hist in mav.page_hists],
            "stride_hists": [{str(bucket): count
                              for bucket, count in hist.items()}
                             for hist in mav.stride_hists],
            "profile_instructions":
                replica.breakdown.profile_instructions,
        })
    return collector, mav
