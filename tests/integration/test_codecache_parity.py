"""The persistent code cache never changes a result.

Runs the cells of the three parity suites — the engines
(``test_fastpath_parity``), the megablock tier built and declined
(``test_megablock_parity``) and checkpoint acceleration off/cold/warm
(``test_checkpoint_parity``) — three times over one ``codecache-v1/``
directory:

* **cold** — the directory is empty: every block is vetted, compiled
  and persisted;
* **warm** — the in-process cache is dropped, so every block comes
  from disk: nothing is vetted and nothing is corrupt;
* **corrupt** — every entry is truncated or has a bit flipped first:
  each one must read as a miss and be vetted and compiled afresh.

All three must give bit-identical canonical results, VM-stat snapshots
and decision timelines.
"""

import dataclasses

from repro import obs
from repro.analysis import sanitizer
from repro.exec import codecache
from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                  program_fingerprint)
from repro.harness.experiments import policy_factory
from repro.sampling import (CheckpointedSimPointSampler, SimPointConfig,
                            SimulationController)
from repro.timing import TimingConfig
from repro.vm import translator as translator_module
from repro.workloads import (SUITE_MACHINE_KWARGS, WorkloadBuilder,
                             load_benchmark)

#: mega = fused engine with the megablock tier (inline fusion),
#: declined = the same with every link set declined (fusion forced to
#: fail), fused = tier off, event / interp = the two slow-path oracles
ENGINES = ("mega", "declined", "fused", "event", "interp")


def chains_built(machine):
    return sum(linker.chains_built
               for linker in machine._chain_linkers.values())


def engine_cell(engine):
    sink = obs.RingBufferSink(capacity=200_000)
    config = dataclasses.replace(
        TimingConfig.small(), fast_path=engine not in ("event", "interp"))
    controller = SimulationController(
        load_benchmark("mcf", size="tiny"), timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS, tracer=obs.Tracer(sink))
    machine = controller.machine
    if engine == "interp":
        machine.fast_path = False
    if engine == "fused":
        machine.megablocks = False
    if engine == "declined":
        def no_inline(*args, **kwargs):
            raise ValueError("forced decline")
        machine.translator.generate_chain = no_inline
        # megablocks an earlier cell compiled would be served from the
        # in-process cache without ever reaching generate_chain
        for key in [key for key in translator_module._CODE_CACHE
                    if key[0] == "mega-inline"]:
            del translator_module._CODE_CACHE[key]
    machine.fast_promote_threshold = 2
    machine.mega_promote_threshold = 4
    result = policy_factory("smarts")().run(controller)
    decisions = [{k: v for k, v in record.items() if k != "ts"}
                 for record in obs.decision_timeline(sink.events)]
    if engine == "mega":
        assert chains_built(machine) > 0  # the tier really engaged
    if engine == "declined":
        assert chains_built(machine) == 0
    return result.canonical_dict(), result.extra["vm_stats"], decisions


def checkpoint_cell(store_root):
    builder = WorkloadBuilder("codecache-parity", seed=3)
    for _ in range(2):
        builder.phase("crc", iters=3000)
        builder.phase("branchy", iters=3000)
    workload = builder.build()
    controller = SimulationController(
        workload, machine_kwargs=SUITE_MACHINE_KWARGS)
    controller.machine.fast_promote_threshold = 2
    controller.machine.mega_promote_threshold = 4
    if store_root is not None:
        controller.attach_checkpoints(CheckpointLadder(
            CheckpointStore(store_root), program_fingerprint(workload),
            "testcfg"))
    result = CheckpointedSimPointSampler(SimPointConfig(
        interval_length=1000, max_clusters=10,
        warmup_length=2000)).run(controller)
    return result.canonical_dict()


def suite_results(ckpt_root):
    results = {engine: engine_cell(engine) for engine in ENGINES}
    results["ckpt-off"] = checkpoint_cell(None)
    results["ckpt-cold"] = checkpoint_cell(ckpt_root)
    results["ckpt-warm"] = checkpoint_cell(ckpt_root)
    return results


def fresh_process_state():
    """What a new process starts with: no in-process code, no counts."""
    translator_module._CODE_CACHE.clear()
    sanitizer.reset_stats()
    codecache.reset_stats()


def corrupt_every_entry(root):
    paths = sorted(root.rglob("*.bin"))
    for index, path in enumerate(paths):
        data = path.read_bytes()
        if index % 2:
            data = data[:len(data) // 2]                   # torn
        else:
            spot = 64 + index % (len(data) - 64)           # in payload
            data = (data[:spot] + bytes([data[spot] ^ 0x04])
                    + data[spot + 1:])
        path.write_bytes(data)
    return len(paths)


def test_cold_warm_corrupt_code_cache_give_identical_results(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    entries = tmp_path / "cache" / codecache.CODECACHE_DIR_NAME
    try:
        fresh_process_state()
        cold = suite_results(tmp_path / "ckpt-cold")
        vetted = sanitizer.stats()["checked"]
        assert vetted > 0
        assert codecache.stats()["hit"] == 0

        fresh_process_state()
        warm = suite_results(tmp_path / "ckpt-warm")
        assert sanitizer.stats()["checked"] == 0
        assert codecache.stats()["corrupt"] == 0
        assert codecache.stats()["hit"] > 0

        damaged = corrupt_every_entry(entries)
        assert damaged > 0
        fresh_process_state()
        corrupt = suite_results(tmp_path / "ckpt-corrupt")
        assert codecache.stats()["corrupt"] == damaged
        assert sanitizer.stats()["checked"] >= damaged
    finally:
        fresh_process_state()

    assert cold == warm == corrupt
    # and the engines still agree with each other under every state
    for engine in ENGINES[1:]:
        assert cold[engine] == cold["mega"], engine
    assert cold["ckpt-off"] == cold["ckpt-cold"] == cold["ckpt-warm"]
