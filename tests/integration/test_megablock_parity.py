"""Megablock tier vs both oracles, across the full parity matrix.

Two matrices, both with the trace-linked tier actually engaged
(promotion thresholds lowered so hot loops chain inside the test
windows — every test asserts ``chains_built > 0`` so the comparison is
never vacuous):

* **engines** — the fused engine with megablocks on must report
  bit-identical results (IPC, mode breakdown, complete VM-stat
  snapshot, decision timeline) against the fused engine with the tier
  off (``REPRO_MEGABLOCKS=0``), the per-instruction event engine, and
  the interpreter oracle (``REPRO_SLOW_PATH=1``);
* **checkpoint policies** — with megablocks on, a sampling policy must
  produce one canonical result with checkpoint acceleration off, cold
  and warm (restores flush code caches, which unlinks every chain —
  the re-chained steady state must not perturb anything the store
  keys or results observe).
"""

import dataclasses

import pytest

from repro import obs
from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                  program_fingerprint)
from repro.harness.experiments import policy_factory
from repro.sampling import (CheckpointedSimPointSampler, SimPointConfig,
                            SimulationController)
from repro.timing import TimingConfig
from repro.workloads import (SUITE_MACHINE_KWARGS, WorkloadBuilder,
                             load_benchmark)

#: mega = fused engine, tier on; fused = same engine, tier off
ENGINES = ("mega", "fused", "event", "interp")

POLICIES = ("smarts", "CPU-300-1M-inf")

_memo = {}


def chains_built(machine):
    return sum(linker.chains_built
               for linker in machine._chain_linkers.values())


def run_policy_on_engine(policy_key, engine, bench="mcf"):
    """One (policy, engine) cell: result + decision log + chain count."""
    key = (policy_key, engine, bench)
    if key in _memo:
        return _memo[key]
    sink = obs.RingBufferSink(capacity=200_000)
    config = dataclasses.replace(TimingConfig.small(),
                                 fast_path=engine in ("mega", "fused"))
    controller = SimulationController(
        load_benchmark(bench, size="tiny"),
        timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS,
        tracer=obs.Tracer(sink))
    machine = controller.machine
    if engine == "interp":
        machine.fast_path = False  # REPRO_SLOW_PATH=1 equivalent
    if engine == "fused":
        machine.megablocks = False  # REPRO_MEGABLOCKS=0 equivalent
    # chain within the tiny windows (host tiering only — thresholds
    # must not be observable in any result)
    machine.fast_promote_threshold = 2
    machine.mega_promote_threshold = 4
    result = policy_factory(policy_key)().run(controller)
    decisions = [{k: v for k, v in record.items() if k != "ts"}
                 for record in obs.decision_timeline(sink.events)]
    _memo[key] = (result, decisions, chains_built(machine))
    return _memo[key]


@pytest.mark.parametrize("engine", ("fused", "event", "interp"))
@pytest.mark.parametrize("policy_key", POLICIES)
def test_megablock_engine_parity(policy_key, engine):
    mega_result, _, built = run_policy_on_engine(policy_key, "mega")
    other_result, _, _ = run_policy_on_engine(policy_key, engine)
    assert built > 0  # the tier really ran in the mega cell
    assert abs(mega_result.ipc - other_result.ipc) < 1e-9
    assert mega_result.total_instructions \
        == other_result.total_instructions
    assert mega_result.timed_intervals == other_result.timed_intervals
    for mode in ("fast", "profile", "warming", "timed"):
        attr = mode + "_instructions"
        assert getattr(mega_result, attr) == getattr(other_result, attr), \
            f"{attr} differs on {policy_key} vs {engine}"
    # block_dispatches lives in the snapshot: chain accounting must be
    # 1:1 with the fused tier so store keys and thresholds see the
    # same monitored streams
    assert mega_result.extra["vm_stats"] == other_result.extra["vm_stats"]


@pytest.mark.parametrize("engine", ("fused", "event", "interp"))
@pytest.mark.parametrize("policy_key", POLICIES)
def test_megablock_decision_timeline_parity(policy_key, engine):
    _, mega_decisions, _ = run_policy_on_engine(policy_key, "mega")
    _, other_decisions, _ = run_policy_on_engine(policy_key, engine)
    assert mega_decisions == other_decisions


# ----------------------------------------------------------------------
# checkpoint policies off / cold / warm, tier on


def parity_workload():
    builder = WorkloadBuilder("mega-ckpt-parity", seed=5)
    for _ in range(3):
        builder.phase("crc", iters=4000)
        builder.phase("branchy", iters=4000)
    return builder.build()


CONFIG = SimPointConfig(interval_length=1000, max_clusters=10,
                        warmup_length=2000)


def run_ckpt_policy(store_root, mega=True):
    workload = parity_workload()
    controller = SimulationController(
        workload, machine_kwargs=SUITE_MACHINE_KWARGS)
    controller.machine.megablocks = mega
    controller.machine.fast_promote_threshold = 2
    controller.machine.mega_promote_threshold = 4
    if store_root is not None:
        controller.attach_checkpoints(CheckpointLadder(
            CheckpointStore(store_root),
            program_fingerprint(workload), "testcfg"))
    result = CheckpointedSimPointSampler(CONFIG).run(controller)
    return result.canonical_dict(), chains_built(controller.machine)


def test_policy_parity_off_cold_warm_with_megablocks(tmp_path):
    cold, built = run_ckpt_policy(tmp_path / "ckpt")
    warm, _ = run_ckpt_policy(tmp_path / "ckpt")
    tier_off, _ = run_ckpt_policy(None, mega=False)

    assert built > 0  # chains engaged under the checkpointed policy
    assert cold == warm == tier_off
