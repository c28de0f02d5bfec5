"""Megablock tier: chain building, dispatch parity, SMC unlinking.

The trace-linked tier above fused superblocks (``repro.vm.chain``):
hot heads record their observed successors and are re-emitted as
inline-fused megablocks with guarded exits.  The contract under test
is the equivalence contract from the module docstring — results are
bit-identical with the tier on or off (``REPRO_MEGABLOCKS=0``),
including ``block_dispatches``, the full VM-stat snapshot and the
out-of-order core's cycle count — plus the linking/unlinking
invariants: SMC and page invalidation unlink precisely the chains
whose fragments they hit, bump the generation epoch, and the head
re-earns promotion afterwards.  A link set that cannot be fused is
declined: no chain is built and the head stays a fused block.
"""

import dataclasses

from repro.isa import assemble
from repro.kernel import boot
from repro.mem import PAGE_SHIFT
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen
from repro.vm import MODE_EVENT
from repro.vm import translator as translator_module
from repro.workloads import SUITE_MACHINE_KWARGS, build_parallel

LOOP_SOURCE = """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    blt s0, s1, loop
    halt
"""


#: a loop body (5 instructions) longer than the fetch queue below
LONG_LOOP_SOURCE = """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    addi s2, s2, 2
    addi t0, t0, 3
    addi t1, t1, 4
    blt s0, s1, loop
    halt
"""


def chained_machine(mega=True, fast_threshold=4, mega_threshold=8,
                    source=LOOP_SOURCE, config=None):
    system = boot(assemble(source))
    machine = system.machine
    machine.megablocks = mega
    core = OutOfOrderCore(config or TimingConfig.small())
    machine.register_fast_sink(core, TimedBlockCodegen(core))
    machine.fast_promote_threshold = fast_threshold
    machine.mega_promote_threshold = mega_threshold
    return system, machine, core


def run_chunked(system, machine, core, chunk=500, limit=100_000):
    """Drive event mode in dispatch-loop-sized chunks to completion."""
    total = 0
    while not machine.state.halted and total < limit:
        total += system.run(chunk, mode=MODE_EVENT, sink=core)
    assert machine.state.halted, "guest did not finish"
    return total


def the_linker(machine, core):
    return machine._chain_linkers[id(core)]


def fingerprint(machine, core, total):
    return {
        "executed": total,
        "icount": machine.state.icount,
        "pc": machine.state.pc,
        "regs": list(machine.state.regs),
        "stats": machine.stats.snapshot(),
        "cycles": core.cycles,
    }


# ----------------------------------------------------------------------
# chain building and tier handover


def test_hot_loop_builds_chain():
    system, machine, core = chained_machine()
    run_chunked(system, machine, core)
    linker = the_linker(machine, core)
    assert linker.chains_built > 0
    assert linker.mega  # the loop head closed into a self-chain
    head, entry = next(iter(linker.mega.items()))
    assert entry.chained
    assert entry.pages  # page index feeds the SMC unlink path
    assert (head >> PAGE_SHIFT) in linker.page_index


def test_chain_handover_evicts_head_without_counting():
    # the head's fused entry is discarded when its chain takes over the
    # PC (single-lookup dispatch); the drop is host tiering, never an
    # architectural invalidation
    system, machine, core = chained_machine()
    before = machine.stats.code_cache_invalidations
    system.run(2000, mode=MODE_EVENT, sink=core)
    linker = the_linker(machine, core)
    assert linker.mega
    _sink, _codegen, cache, _counts = machine._fast_bindings[id(core)]
    for head in linker.mega:
        assert head not in cache._blocks
    assert machine.stats.code_cache_invalidations == before


def test_below_threshold_builds_nothing():
    system, machine, core = chained_machine(mega_threshold=10 ** 9)
    run_chunked(system, machine, core)
    linker = the_linker(machine, core)
    assert not linker.mega
    assert linker.chains_built == 0
    assert linker.pending  # observations accumulating, not ripe


# ----------------------------------------------------------------------
# bit-identical equivalence vs the tier switched off


def run_loop(mega):
    system, machine, core = chained_machine(mega=mega)
    total = run_chunked(system, machine, core)
    return fingerprint(machine, core, total), the_linker(machine, core)


def test_results_bit_identical_with_tier_off():
    with_mega, linker = run_loop(mega=True)
    without, _ = run_loop(mega=False)
    assert linker.chains_built > 0  # the comparison is not vacuous
    assert with_mega == without  # icount, pc, regs, vmstats, cycles


def test_megablocks_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_MEGABLOCKS", "0")
    assert boot(assemble("halt")).machine.megablocks is False
    monkeypatch.delenv("REPRO_MEGABLOCKS")
    assert boot(assemble("halt")).machine.megablocks is True


def assert_declined(machine, core):
    """The linker finalized link sets but built no chain, and every
    head it tried is still dispatched from the fused cache."""
    linker = the_linker(machine, core)
    assert linker.links, "no head ever ripened for chaining"
    assert linker.chains_built == 0
    assert not linker.mega
    _sink, _codegen, cache, _counts = machine._fast_bindings[id(core)]
    for head in linker.links:
        assert head in cache._blocks


def test_unspliceable_link_set_declines_bit_identical(monkeypatch):
    # force inline fusion to fail the way a non-spliceable fragment
    # does (ValueError): the linker declines to chain, compiles no
    # megablock, and results match the tier switched off
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    system, machine, core = chained_machine()

    def not_spliceable(*args, **kwargs):
        raise ValueError("fragment cannot be spliced")

    monkeypatch.setattr(machine.translator, "generate_chain",
                        not_spliceable)
    total = run_chunked(system, machine, core)
    assert_declined(machine, core)
    assert not any(key[0].startswith("mega")
                   for key in translator_module._CODE_CACHE)
    declined = fingerprint(machine, core, total)
    without, _ = run_loop(mega=False)
    assert declined == without


def test_dynamic_ring_addressing_declines_bit_identical():
    # a fetch queue shorter than the loop body gives every timed
    # fragment dynamic ring addressing, which inline fusion cannot
    # bridge: a real (unpatched) decline
    config = dataclasses.replace(TimingConfig.small(),
                                 fetch_queue_size=2)
    results = []
    for mega in (True, False):
        system, machine, core = chained_machine(
            mega=mega, source=LONG_LOOP_SOURCE, config=config)
        total = run_chunked(system, machine, core)
        if mega:
            assert_declined(machine, core)
        results.append(fingerprint(machine, core, total))
    assert results[0] == results[1]  # icount, pc, regs, vmstats, cycles


# ----------------------------------------------------------------------
# SMC / invalidation unlinking


def test_page_invalidation_unlinks_and_head_rechains():
    system, machine, core = chained_machine()
    system.run(2000, mode=MODE_EVENT, sink=core)
    linker = the_linker(machine, core)
    assert linker.mega
    head = next(iter(linker.mega))
    generation = linker.generation[0]
    built = linker.chains_built
    machine.invalidate_code_page(head >> PAGE_SHIFT)
    assert head not in linker.mega
    assert linker.chains_unlinked > 0
    assert linker.generation[0] > generation  # running chains break
    # the head re-earns promotion from scratch and re-chains
    total = 2000 + run_chunked(system, machine, core)
    assert linker.chains_built > built
    assert machine.state.regs[9] == 2000
    assert machine.state.icount == total


def test_smc_unlink_is_range_precise():
    # a write into the page but outside every fragment's code range is
    # a data store sharing the page: the chain must survive it
    system, machine, core = chained_machine()
    system.run(2000, mode=MODE_EVENT, sink=core)
    linker = the_linker(machine, core)
    head = next(iter(linker.mega))
    entry = linker.mega[head]
    vpn = head >> PAGE_SHIFT
    beyond = max(pc + length * 4 for pc, length in entry.chain)
    assert linker.invalidate_address(vpn, beyond + 64) == 0
    assert head in linker.mega
    assert linker.invalidate_address(vpn, head) == 1
    assert head not in linker.mega


# ----------------------------------------------------------------------
# cross-core SMC on a 2-core SmpMachine


def run_smp_smc(mega, head=None):
    """Chain on both harts, write into chained code mid-run, finish.

    Returns (per-core fingerprints, linkers, head) — the write lands
    at the same deterministic instruction boundary whichever way the
    tier is switched, so the runs are directly comparable.  The
    ``mega`` run discovers its hottest chained head; the comparison
    run receives the same ``head`` so both write the same address.
    """
    system = build_parallel("lockcnt", size="tiny").boot(
        n_cores=2, **SUITE_MACHINE_KWARGS)
    machine = system.machine
    machine.megablocks = mega
    sinks = []
    for core in machine.cores:
        sink = OutOfOrderCore(TimingConfig.small())
        core.register_fast_sink(sink, TimedBlockCodegen(sink))
        core.fast_promote_threshold = 2
        sinks.append(sink)
    machine.mega_promote_threshold = 4
    system.run(6000, mode=MODE_EVENT, sink=sinks)
    linkers = [core._chain_linkers[id(sink)]
               for core, sink in zip(machine.cores, sinks)]
    if head is None:
        assert any(linker.mega for linker in linkers), "no chains built"
        head = next(iter(next(lk for lk in linkers if lk.mega).mega))
    generations = [linker.generation[0] for linker in linkers]
    # a store into translated code fans out to every hart
    machine._on_code_write(head >> PAGE_SHIFT, head)
    for linker, generation in zip(linkers, generations):
        assert head not in linker.mega  # unlinked everywhere
        if mega:
            assert linker.generation[0] >= generation
    while not machine.halted:
        if system.run(4000, mode=MODE_EVENT, sink=sinks) == 0:
            break
    assert machine.halted
    prints = [{"icount": core.state.icount,
               "pc": core.state.pc,
               "stats": core.stats.snapshot()}
              for core in machine.cores]
    return prints, linkers, head


def test_smp_mid_chain_smc_unlinks_and_stays_bit_identical():
    with_mega, linkers, head = run_smp_smc(mega=True)
    without, _, _ = run_smp_smc(mega=False, head=head)
    assert with_mega == without  # per-core icount, pc, full vmstats
    # the write unlinked a live chain somewhere, and execution after
    # the unlink re-translated and re-chained (lockcnt keeps looping)
    assert sum(lk.chains_unlinked for lk in linkers) > 0
    assert sum(lk.chains_built for lk in linkers) \
        > sum(lk.chains_unlinked for lk in linkers) - 1
