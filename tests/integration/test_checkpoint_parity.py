"""Checkpoint equivalence: restores must be invisible to every result.

Two independent guarantees:

* **round trip** — taking a checkpoint mid-run (including mid-event
  mode), diverging, and restoring must leave the guest-visible machine
  (architectural state + the complete VM statistics snapshot)
  bit-identical to never having diverged, under all three execution
  engines (fused fast path, per-instruction event engine, interpreter
  oracle);
* **policy parity** — every sampling policy must produce an identical
  canonical result with checkpoint acceleration off (no ladder
  attached, as under ``REPRO_CHECKPOINTS=0``), against a cold store,
  and against a warm store (where fast-forwards restore and
  profiles/selections are served from disk).
"""

import dataclasses

import pytest

from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                  program_fingerprint)
from repro.kernel.checkpoint import restore, take
from repro.sampling import (CheckpointedSimPointSampler, RankedSetConfig,
                            RankedSetSampler, SimPointConfig,
                            SimPointSampler, SimulationController,
                            StratifiedConfig, StratifiedSampler)
from repro.timing import TimingConfig
from repro.workloads import (SUITE_MACHINE_KWARGS, WorkloadBuilder,
                             load_benchmark)

ENGINES = ("fused", "event", "interp")


def make_controller(engine, size="tiny"):
    config = dataclasses.replace(TimingConfig.small(),
                                 fast_path=engine == "fused")
    controller = SimulationController(
        load_benchmark("gzip", size=size),
        timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS)
    if engine == "interp":
        controller.machine.fast_path = False  # REPRO_SLOW_PATH=1
    return controller


def run_schedule(engine, rewind):
    controller = make_controller(engine)
    controller.run_fast(3000)
    controller.run_timed(900)
    controller.run_warming(700)
    if rewind:
        checkpoint = take(controller.system)
        # diverge hard: more detailed execution, then rewind
        controller.run_timed(1500)
        controller.run_warming(400)
        restore(controller.system, checkpoint)
    controller.run_timed(1200)
    controller.run_warming(300)
    controller.run_timed(800)
    return controller


@pytest.mark.parametrize("engine", ENGINES)
def test_round_trip_parity_all_engines(engine):
    straight = run_schedule(engine, rewind=False)
    rewound = run_schedule(engine, rewind=True)
    assert rewound.machine.state.snapshot() \
        == straight.machine.state.snapshot()
    assert rewound.machine.stats.snapshot() \
        == straight.machine.stats.snapshot()


# ----------------------------------------------------------------------
# policy parity: off / cold store / warm store


def parity_workload():
    builder = WorkloadBuilder("ckpt-parity", seed=3)
    for _ in range(3):
        builder.phase("crc", iters=4000)
        builder.phase("stream", n=512, iters=8, reuse_key="ws")
        builder.phase("branchy", iters=4000)
    return builder.build()


CONFIG = SimPointConfig(interval_length=1000, max_clusters=10,
                        warmup_length=2000)


def run_policy_once(make_sampler, store_root=None):
    workload = parity_workload()
    controller = SimulationController(
        workload, machine_kwargs=SUITE_MACHINE_KWARGS)
    if store_root is not None:
        controller.attach_checkpoints(CheckpointLadder(
            CheckpointStore(store_root),
            program_fingerprint(workload), "testcfg"))
    result = make_sampler().run(controller)
    return result.canonical_dict(), dict(controller.checkpoint_stats)


#: one factory per two-pass policy family, so each pass-1 artifact
#: (``profile-L``, ``mavprofile-L``, ``cheapstats-L``) round-trips
TWO_PASS_SAMPLERS = [
    pytest.param(lambda: SimPointSampler(CONFIG), id="SimPointSampler"),
    pytest.param(lambda: CheckpointedSimPointSampler(CONFIG),
                 id="CheckpointedSimPointSampler"),
    pytest.param(lambda: SimPointSampler(
        dataclasses.replace(CONFIG, mav=True)), id="SimPointSampler-mav"),
    pytest.param(lambda: StratifiedSampler(StratifiedConfig(
        interval_length=1000, budget=6, warmup_length=2000)),
        id="StratifiedSampler"),
    pytest.param(lambda: RankedSetSampler(RankedSetConfig(
        interval_length=1000, cycles=2, warmup_length=2000)),
        id="RankedSetSampler"),
]


@pytest.mark.parametrize("make_sampler", TWO_PASS_SAMPLERS)
def test_policy_parity_off_cold_warm(make_sampler, tmp_path):
    off, _ = run_policy_once(make_sampler, None)
    cold, cold_stats = run_policy_once(make_sampler, tmp_path / "ckpt")
    warm, warm_stats = run_policy_once(make_sampler, tmp_path / "ckpt")

    assert off == cold == warm

    # the warm run actually consumed the store (every policy memoizes
    # its profile once; the recorder-driven policy also restores rungs
    # — a plain SimPoint whose first warm-up window starts at icount 0
    # has no pristine gap to checkpoint)
    assert cold_stats["profile_cache_hits"] == 0
    assert warm_stats["profile_cache_hits"] == 1
    if off["policy"] == "simpoint-ckpt":
        assert cold_stats["published"] > 0
        assert warm_stats["restores"] > 0
        assert warm_stats["skipped_instructions"] > 0


def test_warm_run_skips_wall_clock_not_charges(tmp_path):
    """The cost model is warmth-invariant: identical modeled seconds
    and instruction charges, only host wall time may change."""
    cold, _ = run_policy_once(
        lambda: CheckpointedSimPointSampler(CONFIG), tmp_path / "ckpt")
    warm, _ = run_policy_once(
        lambda: CheckpointedSimPointSampler(CONFIG), tmp_path / "ckpt")
    for key in ("modeled_seconds", "total_instructions",
                "profile_instructions", "fast_instructions",
                "warming_instructions", "timed_instructions"):
        assert warm[key] == cold[key], key
