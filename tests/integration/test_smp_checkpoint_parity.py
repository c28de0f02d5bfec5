"""Checkpoint acceleration on multi-core guests: invisible, everywhere.

The 2-core analogue of ``test_checkpoint_parity``: every sampling
policy must produce the identical canonical result with checkpoint
acceleration off (no store attached, as under ``REPRO_CHECKPOINTS=0``),
against a cold store (publishing) and against a warm store (restoring
per-hart register files + the shared frame image) — under all three
execution engines, which must also agree with each other.
"""

import dataclasses

import pytest

from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                  program_fingerprint)
from repro.sampling import (CheckpointedSimPointSampler, SimPointConfig,
                            SimPointSampler, make_controller)
from repro.timing import TimingConfig
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

ENGINES = ("fused", "event", "interp")

CONFIG = SimPointConfig(interval_length=1000, max_clusters=10,
                        warmup_length=2000)


def run_policy_once(sampler_cls, engine, store_root=None,
                    bench="lockcnt"):
    workload = load_benchmark(bench, size="tiny")
    timing = dataclasses.replace(TimingConfig.small(),
                                 fast_path=engine == "fused")
    controller = make_controller(
        workload, timing_config=timing,
        machine_kwargs={**SUITE_MACHINE_KWARGS, "n_cores": 2})
    if engine == "interp":
        for core in controller.machine.cores:
            core.fast_path = False  # REPRO_SLOW_PATH=1 equivalent
    if store_root is not None:
        controller.attach_checkpoints(CheckpointLadder(
            CheckpointStore(store_root),
            program_fingerprint(workload), f"smp2-{engine}"))
    result = sampler_cls(CONFIG).run(controller)
    return result.canonical_dict(), dict(controller.checkpoint_stats)


@pytest.mark.parametrize("sampler_cls",
                         [SimPointSampler, CheckpointedSimPointSampler])
@pytest.mark.parametrize("engine", ENGINES)
def test_two_core_policy_parity_off_cold_warm(sampler_cls, engine,
                                              tmp_path):
    off, _ = run_policy_once(sampler_cls, engine, None)
    cold, cold_stats = run_policy_once(sampler_cls, engine,
                                       tmp_path / "ckpt")
    warm, warm_stats = run_policy_once(sampler_cls, engine,
                                       tmp_path / "ckpt")

    assert off == cold == warm

    assert cold_stats["profile_cache_hits"] == 0
    assert warm_stats["profile_cache_hits"] > 0
    if sampler_cls is CheckpointedSimPointSampler:
        assert cold_stats["published"] > 0
        assert warm_stats["restores"] > 0


@pytest.mark.parametrize("sampler_cls",
                         [SimPointSampler, CheckpointedSimPointSampler])
def test_two_core_engines_agree(sampler_cls):
    """The three engines produce one canonical result for the same
    2-core policy run (no store: pure simulation parity)."""
    results = [run_policy_once(sampler_cls, engine, None)[0]
               for engine in ENGINES]
    assert results[0] == results[1] == results[2]
