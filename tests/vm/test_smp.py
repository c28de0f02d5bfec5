"""SMP machine: deterministic interleaving, shared memory, parity.

The multi-core contract (see :mod:`repro.vm.smp`): the round-robin
interleaver is a pure function of the guest program and the budget
sequence, identical across the three execution engines; all harts
share one physical memory and one code-page registry (cross-core SMC
fan-out); per-core monitors attribute work to the hart that did it.
"""

import pytest

from repro.kernel import GLOBALS_BASE
from repro.vm.machine import MODE_EVENT
from repro.vm.smp import SmpMachine
from repro.workloads import SUITE_MACHINE_KWARGS, build_parallel

ENGINES = ("fused", "event", "interp")


class CountingSink:
    """Minimal event-mode sink: counts the instructions it is fed."""

    def __init__(self):
        self.instructions = 0

    def on_inst(self, pc, cls, dst, src1, src2, addr, taken, target):
        self.instructions += 1


def boot_bench(name, n_cores, size="tiny"):
    workload = build_parallel(name, size=size)
    return workload.boot(n_cores=n_cores, **SUITE_MACHINE_KWARGS)


def run_fingerprint(system):
    """Everything the determinism contract promises, per core."""
    system.run_to_completion()
    return [
        {"icount": core.state.icount,
         "pc": core.state.pc,
         "stats": core.stats.snapshot()}
        for core in system.machine.cores
    ]


# ----------------------------------------------------------------------
# construction and interleaving


def test_rejects_invalid_shapes():
    with pytest.raises(ValueError):
        SmpMachine(n_cores=0)
    with pytest.raises(ValueError):
        SmpMachine(n_cores=2, quantum=0)


def test_harts_share_phys_and_page_table():
    machine = SmpMachine(n_cores=3)
    for core in machine.cores[1:]:
        assert core.mmu.phys is machine.phys
        assert core.page_table is machine.page_table
    assert [core.core_id for core in machine.cores] == [0, 1, 2]


def test_rotation_starts_at_core_zero_and_interleaves():
    system = boot_bench("lockcnt", n_cores=2)
    machine = system.machine
    quantum = machine.quantum
    executed = machine.run(quantum * 2)
    # each quantum stops at the engine's block-boundary grain, so a
    # hart may overshoot its quantum by less than one max block — but
    # the budget must still be split between both harts, core 0 first
    assert executed >= quantum * 2
    icounts = [core.state.icount for core in machine.cores]
    assert quantum <= icounts[0] < quantum * 2
    assert 0 < icounts[1] < quantum * 2
    assert sum(icounts) == executed


def test_budget_is_total_across_cores():
    system = boot_bench("lockcnt", n_cores=4)
    executed = system.run(1000)
    assert executed >= 1000
    assert sum(core.state.icount for core in system.machine.cores) \
        == executed
    assert all(core.state.icount > 0 for core in system.machine.cores)


def test_halted_cores_are_skipped():
    system = boot_bench("pcq", n_cores=2)
    system.run_to_completion()
    assert system.machine.halted
    # a further run is a no-op, not a livelock
    assert system.run(1000) == 0


# ----------------------------------------------------------------------
# determinism and engine parity


@pytest.mark.parametrize("bench", ("pcq", "mtstencil", "lockcnt"))
def test_rerun_is_bit_identical(bench):
    first = run_fingerprint(boot_bench(bench, n_cores=2))
    second = run_fingerprint(boot_bench(bench, n_cores=2))
    assert first == second


@pytest.mark.parametrize("n_cores", (2, 4))
@pytest.mark.parametrize("bench", ("pcq", "mtstencil", "lockcnt"))
def test_event_engine_parity_per_core(bench, n_cores):
    """The translated event engine and the interpreter oracle
    (``REPRO_SLOW_PATH=1``) must retire the same per-core instruction
    streams: equal icounts, equal block_dispatches, equal monitored
    statistics.  (The fused *timing* engine is compared at the
    sampling layer, where its TimingConfig-compiled blocks exist.)"""
    results = {}
    for engine in ("event", "interp"):
        system = boot_bench(bench, n_cores=n_cores)
        if engine == "interp":
            for core in system.machine.cores:
                core.fast_path = False  # REPRO_SLOW_PATH=1 equivalent
        sinks = [CountingSink() for _ in range(n_cores)]
        system.run_to_completion(mode=MODE_EVENT, sink=sinks)
        results[engine] = [
            {"icount": core.state.icount,
             "dispatches": core.stats.block_dispatches,
             "exceptions": core.stats.exceptions,
             "io": core.stats.io_operations}
            for core in system.machine.cores]
    assert results["event"] == results["interp"]


@pytest.mark.parametrize("bench", ("pcq", "mtstencil", "lockcnt"))
def test_fast_mode_matches_event_mode_architecturally(bench):
    """MODE_FAST (superblock chaining) must agree with event mode on
    everything guest-visible: per-core icounts, final pc, exceptions,
    I/O.  (Dispatch counts legitimately differ — fusion is a host
    execution strategy, not simulated behaviour.)"""
    fast = boot_bench(bench, n_cores=2)
    fast.run_to_completion()
    event = boot_bench(bench, n_cores=2)
    event.run_to_completion(mode=MODE_EVENT,
                            sink=[CountingSink(), CountingSink()])
    for fast_core, event_core in zip(fast.machine.cores,
                                     event.machine.cores):
        assert fast_core.state.icount == event_core.state.icount
        assert fast_core.state.pc == event_core.state.pc
        assert fast_core.stats.exceptions == event_core.stats.exceptions
        assert fast_core.stats.io_operations \
            == event_core.stats.io_operations


def test_event_mode_requires_matching_sink_count():
    system = boot_bench("lockcnt", n_cores=2)
    with pytest.raises(ValueError):
        system.run(100, mode=MODE_EVENT, sink=[CountingSink()])


def test_event_sinks_see_per_core_streams():
    system = boot_bench("lockcnt", n_cores=2)
    sinks = [CountingSink(), CountingSink()]
    system.run(600, mode=MODE_EVENT, sink=sinks)
    assert sinks[0].instructions == system.machine.cores[0].state.icount
    assert sinks[1].instructions == system.machine.cores[1].state.icount


# ----------------------------------------------------------------------
# cross-core coupling


def test_shared_memory_is_visible_across_harts():
    system = boot_bench("lockcnt", n_cores=2)
    system.run_to_completion()
    # every hart read the region base core 0 published via the
    # globals page — shared-memory bootstrap succeeded on both
    base = system.machine.cores[0].mmu.read_u64(GLOBALS_BASE)
    assert base != 0
    assert system.machine.cores[1].mmu.read_u64(GLOBALS_BASE) == base


def test_code_pages_are_shared_and_writes_fan_out():
    system = boot_bench("lockcnt", n_cores=2)
    machine = system.machine
    machine.run(2000)  # both harts have translated the hot loop
    # one shared code-page registry: every MMU sees the same set
    registries = [core.mmu.code_pages for core in machine.cores]
    assert all(registry is registries[0] for registry in registries)
    assert registries[0]
    vpn = min(registries[0])
    before = [core.stats.code_cache_invalidations
              for core in machine.cores]
    machine._on_code_write(vpn, vpn << 12)
    after = [core.stats.code_cache_invalidations
             for core in machine.cores]
    # a store into translated code invalidates on *every* hart that
    # had translations of that page — both did (same hot loop)
    assert all(b > a for a, b in zip(before, after))


def test_profile_counts_merge_across_cores():
    from repro.sampling import make_controller
    controller = make_controller(
        build_parallel("lockcnt", size="tiny"),
        machine_kwargs={**SUITE_MACHINE_KWARGS, "n_cores": 2})
    controller.run_profile(2000)
    per_core = [dict(core.profile_counts)
                for core in controller.machine.cores]
    assert all(per_core)
    counts = controller.take_profile()
    assert sum(counts.values()) == sum(
        sum(core_counts.values()) for core_counts in per_core)
    # taking drains every core
    assert controller.take_profile() == {}
