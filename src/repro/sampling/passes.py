"""The two passes shared by the profile-then-measure policies.

SimPoint (plain and MAV-augmented) and the two-phase stratified and
ranked-set samplers have one shape.  Pass 1 (:func:`profile_pass`)
runs the whole program once on a replica system, interval by interval
in one VM mode, recording per-interval features; pass 2
(:func:`measure_intervals`) fast-forwards the real controller to each
chosen interval, warms up and times it with the detailed core.

The features of pass 1 are pluggable streams (cheap-statistic deltas,
Basic Block Vectors, memory-access histograms).  The pass is
deterministic and engine-invariant, so with a checkpoint ladder
attached its result is memoized in the store: a hit reconstructs the
features and charges the identical instruction count, so the cost
model sees the same run either way.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .controller import SimulationController


def rekey(dicts: Iterable[Dict], key: Callable) -> List[Dict]:
    """``dicts`` with ``key`` applied to every key: the JSON codec of
    the integer-keyed feature histograms (JSON object keys are
    strings)."""
    return [{key(name): count for name, count in mapping.items()}
            for mapping in dicts]


def profile_pass(controller: SimulationController, artifact: str,
                 mode: str, interval_length: int,
                 features: Sequence) -> List[int]:
    """Pass 1: run the whole program in ``mode`` ("fast" or "profile")
    on a replica of ``controller``, one ``interval_length`` stretch at a
    time, feeding every interval to the ``features`` streams.

    Each stream's ``attach(replica)`` runs before the first interval
    and its ``take(replica, executed)`` after every interval.  ``take``
    returns the interval's feature, or ``None`` to refuse the
    interval: an interval any stream refuses is dropped by all of
    them, and each accepted feature goes back through ``keep``.
    ``dump()`` and ``load(payload)`` are the stream's share of the
    store artifact.

    Returns the instruction offset at which each kept interval began.
    Intervals end on basic-block boundaries, so the grid drifts
    slightly from exact multiples of ``interval_length``; pass 2 must
    use these recorded starts.  The controller's own trajectory is
    untouched; the replica's ``mode`` instructions and wall time are
    charged to it.  With a checkpoint ladder attached the result is
    memoized under ``artifact``: a hit loads every stream, charges the
    recorded instruction count and bumps ``profile_cache_hits``.
    """
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    ladder = controller.checkpoints
    charged = f"{mode}_instructions"
    if ladder is not None:
        cached = ladder.load_artifact(artifact)
        if cached is not None:
            for stream in features:
                stream.load(cached)
            controller.breakdown.charge(mode, cached[charged], 0.0)
            controller.checkpoint_stats["profile_cache_hits"] += 1
            return cached["starts"]
    replica = controller.replica()
    run = getattr(replica, f"run_{mode}")
    for stream in features:
        stream.attach(replica)
    starts: List[int] = []
    while not replica.finished:
        start = replica.icount
        executed = run(interval_length)
        if executed == 0:
            break
        taken = [stream.take(replica, executed) for stream in features]
        if any(feature is None for feature in taken):
            continue
        starts.append(start)
        for stream, feature in zip(features, taken, strict=True):
            stream.keep(feature)
    instructions = getattr(replica.breakdown, charged)
    controller.breakdown.charge(mode, instructions,
                                replica.breakdown.wall_seconds[mode])
    if ladder is not None:
        payload = {"starts": starts, charged: instructions}
        for stream in features:
            payload.update(stream.dump())
        ladder.publish_artifact(artifact, payload)
    return starts


def measure_intervals(controller: SimulationController, profile,
                      indices: Iterable[int],
                      warmup_length: int) -> Dict[int, Tuple[int, int]]:
    """Pass 2: time the selected intervals of ``profile`` (anything
    with the ``starts`` and ``interval_length`` of a pass 1).

    Visits the selected interval indices in ascending order,
    fast-forwarding to each one's warm-up boundary (checkpoint-ladder
    accelerated when attached), warming, then measuring one interval
    with the detailed core.  Returns ``{index: (instructions, cycles)}``
    for every interval that retired at least one instruction; stops
    early if the program finishes under the selection.
    """
    measurements: Dict[int, Tuple[int, int]] = {}
    for index in sorted(set(indices)):
        if controller.finished:
            break
        start = profile.starts[index]
        warm_start = max(0, start - warmup_length)
        controller.fast_forward(warm_start)
        warm_gap = start - controller.icount
        if warm_gap > 0:
            controller.run_warming(warm_gap)
        executed, cycles = controller.run_timed(profile.interval_length)
        if executed:
            measurements[index] = (executed, cycles)
    return measurements
