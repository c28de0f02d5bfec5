"""Mutation self-check: seeded codegen bugs the verifier must catch.

Each mutant takes a real generated source (a loop-form fast block with
symbolic registers, or an inline megablock chain under the timed and
the warming codegen) and seeds one semantic bug on a live path — a
dropped register write, an off-by-one in the instruction accounting, a
missing exit-stub guard.  The verifier must flag every one with at
least one diff; a mutant that verifies clean would mean the proof has
a blind spot.

Mutations must live on *live* paths: in straight-line blocks whose
registers are concrete after ``li``, branch conditions fold and the
untaken arm is dead code — a bug there is genuinely unreachable and
verifying it clean is correct, not a miss.  The same goes for a fault
handler of a fragment that cannot fault, hence the load in the
two-fragment chain.  Dropping ``state.halted`` from an exit stub is an
*equivalent* mutant on inline chains, not a live one: only HALT sets
the flag, and it leaves ``state.pc`` on the halt instruction, so the
successor-pc atom of the same guard already breaks the chain.

Every anchor must occur exactly once in its source: chains repeat
their guard atoms per fragment, and a first-occurrence replace could
silently seed the bug into a different guard than intended.
"""

import pytest

from repro.analysis.symexec import (verify_block_source,
                                    verify_inline_chain)
from repro.isa import assemble
from repro.kernel import boot
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen, WarmingBlockCodegen
from repro.timing.warming import FunctionalWarmingSink

LOOP = """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    addi s2, s2, 2
    blt s0, s1, loop
    halt
"""

#: a loop body of two branch-terminated fragments: the first exits the
#: loop when taken and falls through to the second, the back edge
BRANCH_LOOP = """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    bge s0, s1, done
    addi s2, s2, 2
    blt s0, s1, loop
done:
    halt
"""

#: a loop body of two fragments, the first of which loads past its
#: entry instruction (so its fault handler's pc restore is live) and
#: ends at ``rdinstr`` (a block terminator that makes the chain track
#: ``state.icount``); the second is the back branch
LD_LOOP = """
_start:
    li s0, 4096
    li s1, 2000
loop:
    addi s2, s2, 1
    lw t0, 0(s0)
    rdinstr t1
    blt s2, s1, loop
    halt
"""


def codegens():
    return (TimedBlockCodegen(OutOfOrderCore(TimingConfig.small())),
            WarmingBlockCodegen(FunctionalWarmingSink(
                OutOfOrderCore(TimingConfig.small()))))


def loop_chains_of(program, nfrags):
    """``(frags, loop_back, source)`` of the looping chain over the
    ``nfrags`` blocks after the two ``li``s, once per codegen."""
    system = boot(assemble(program))
    tr = system.machine.translator
    pc = system.machine.state.pc + 8
    frags = []
    for _ in range(nfrags):
        instrs = tr._decode_block(pc)
        frags.append((pc, instrs))
        pc += 4 * len(instrs)
    return [(frags, True, tr.generate_chain(frags, True, cg))
            for cg in codegens()]


@pytest.fixture(scope="module")
def loop_chains():
    return loop_chains_of(LOOP, 1)


@pytest.fixture(scope="module")
def branch_chains():
    return loop_chains_of(BRANCH_LOOP, 2)


@pytest.fixture(scope="module")
def ld_chains():
    return loop_chains_of(LD_LOOP, 2)


@pytest.fixture(scope="module")
def loop_block():
    system = boot(assemble(LOOP))
    tr = system.machine.translator
    pc = system.machine.state.pc + 8  # the loop: block, past the li's
    instrs = tr._decode_block(pc)
    source = tr._generate(pc, instrs, "fast")
    return pc, instrs, source


def mutate(source, old, new):
    count = source.count(old)
    assert count == 1, f"mutation anchor {old!r} occurs {count} times"
    return source.replace(old, new)


BLOCK_MUTANTS = {
    "dropped-register-write": ("r[11] = (r[11] + 2) & M",
                               "pass"),
    "wrong-register-value": ("r[11] = (r[11] + 2) & M",
                             "r[11] = (r[11] + 3) & M"),
    "icount-off-by-one": ("n += 3", "n += 2"),
    "wrong-exit-pc": ("state.pc = 4116", "state.pc = 4120"),
    "condition-flipped": ("if s64(r[9]) < s64(r[10]):",
                          "if s64(r[9]) >= s64(r[10]):"),
    "signedness-dropped": ("if s64(r[9]) < s64(r[10]):",
                           "if r[9] < r[10]:"),
    "budget-off-by-one": ("if n + 3 <= budget:", "if n + 3 < budget:"),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MUTANTS))
def test_block_mutant_caught(loop_block, name):
    pc, instrs, source = loop_block
    old, new = BLOCK_MUTANTS[name]
    diffs = verify_block_source(mutate(source, old, new), pc, instrs,
                                "fast")
    assert diffs, f"verifier missed seeded bug {name}"


def test_pristine_block_still_clean(loop_block):
    pc, instrs, source = loop_block
    assert verify_block_source(source, pc, instrs, "fast") == []


GUARD = ("if state.pc != {succ} or _base >= _lim{length} "
         "or state.halted or _irq or _gen[0] != _g0:")

#: exit-stub mutants, seeded into one guard line at a time
GUARD_MUTANTS = {
    "missing-generation-guard": (" or _gen[0] != _g0", ""),
    "missing-irq-guard": (" or _irq", ""),
    "missing-successor-guard": ("state.pc != {succ} or ", ""),
    "budget-guard-flipped": ("_base >= _lim", "_base > _lim"),
}

#: accounting and fault-path mutants, seeded into the ``LD_LOOP`` chain
BODY_MUTANTS = {
    "icount-not-rewound": ("    state.icount = state.icount - _base\n",
                           ""),
    "dispatch-count-off": ("VS.block_dispatches + _d - 1",
                           "VS.block_dispatches + _d"),
    "fault-pc-not-restored": ("state.pc = {pc0} + ((_n % 3) * 4)",
                              "pass"),
}

CHAIN_MUTANTS = {**GUARD_MUTANTS, **BODY_MUTANTS}


def guards(chain):
    """The exit-stub guard line of every fragment that continues."""
    frags, loop_back, _source = chain
    for k, (_pc, instrs) in enumerate(frags):
        if k + 1 < len(frags):
            succ = frags[k + 1][0]
        elif loop_back:
            succ = frags[0][0]
        else:
            continue
        yield GUARD.format(succ=succ, length=len(instrs)), succ


def mutate_guard(chain, guard, succ, name):
    old, new = GUARD_MUTANTS[name]
    old = old.format(succ=succ)
    assert old in guard, f"mutation anchor {old!r} not in {guard!r}"
    return mutate(chain[2], guard, guard.replace(old, new, 1))


@pytest.mark.parametrize("name", sorted(CHAIN_MUTANTS))
def test_chain_mutant_caught(loop_chains, branch_chains, ld_chains,
                             name):
    """A guard mutant on every guard of the single-fragment loop chain
    (the common shape: a hot loop whose body is one superblock) and of
    the two-fragment ``BRANCH_LOOP`` chain, back edges included; an
    accounting or fault-path mutant on the ``LD_LOOP`` chain."""
    if name in GUARD_MUTANTS:
        mutants = [(chain, mutate_guard(chain, guard, succ, name))
                   for chain in loop_chains + branch_chains
                   for guard, succ in guards(chain)]
        assert len(mutants) == len(loop_chains) + 2 * len(branch_chains)
    else:
        old, new = BODY_MUTANTS[name]
        mutants = [(chain, mutate(chain[2],
                                  old.format(pc0=chain[0][0][0]), new))
                   for chain in ld_chains]
    for (frags, loop_back, _source), mutant in mutants:
        diffs = verify_inline_chain(mutant, frags, loop_back)
        assert diffs, f"verifier missed seeded bug {name}"


def test_pristine_chain_still_clean(loop_chains, branch_chains,
                                   ld_chains):
    for frags, loop_back, source in (loop_chains + branch_chains
                                     + ld_chains):
        assert verify_inline_chain(source, frags, loop_back) == []


def test_diff_carries_minimized_trace(loop_block):
    """A diff names the diverging field and points at source lines."""
    pc, instrs, source = loop_block
    old, new = BLOCK_MUTANTS["wrong-exit-pc"]
    diffs = verify_block_source(mutate(source, old, new), pc, instrs,
                                "fast")
    text = "\n".join(d.format() for d in diffs)
    assert "pc" in text
    assert "state.pc = 4120" in text  # the seeded line, in the trace
