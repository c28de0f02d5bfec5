"""Trace-linked megablocks: inline-fused superblock chains (tier 3).

The fused tier (PR 3) compiles the timing model into each superblock
but still returns to the Python dispatch loop at every block boundary —
one dict lookup, a handful of attribute reads and a call frame per few
guest instructions.  This module adds the tier above it, the analogue
of Dynamo's fragment linking and QEMU/HQEMU's TB chaining: once the
tier-promotion counters mark a fused superblock hot, the linker records
its observed successors and re-emits the chain as a **megablock** — the
constituents' fused bodies spliced into one compiled function with a
single shared timing-model prologue/epilogue and guarded exits between
fragments, so hot loops execute as a closed chain without touching the
dispatch loop.  There is one emission form: a link set that cannot be
spliced (a fragment with dynamic ring addressing, or code that no
longer decodes to the translated fragment) is simply not chained — the
head stays a fused block and may re-earn promotion later.

Equivalence contract
--------------------

A megablock must be observationally identical to dispatching its
fragments one by one from the fused tier.  The generated chain code
therefore reproduces the dispatch loop's per-iteration behaviour
exactly:

* each exit stub guards on the predicted next PC, the remaining
  instruction budget (the loop's bounded-overshoot rule ``remaining >
  0``), ``state.halted``, pending IRQs, and the chain *generation* (an
  SMC/page-invalidation epoch — see below); any miss falls back to the
  dispatch loop;
* ``state.icount`` advances per retired fragment and
  ``VmStats.block_dispatches`` counts one per fragment, reconciled
  with the loop's uniform post-dispatch accounting so store keys and
  decision timelines are unchanged (1:1 with the fused tier);
* a guest fault restores the faulting fragment's PC, folds chain
  progress into ``block_progress`` and re-raises, so the machine's
  fault delivery observes exactly what the fused tier would show it.

Linking and unlinking invariants
--------------------------------

* A chain may only fuse fragments resident in the binding's fused
  cache at build time; the megablock stays valid even if the cache
  later evicts them (eviction is host bookkeeping, the guest code is
  unchanged).
* Invalidating any byte of any constituent fragment — SMC store, page
  invalidation, or flush — unlinks every chain that enters it *and*
  bumps the generation counter, so even a chain currently executing
  breaks at its next exit stub instead of threading into stale code.
  ``SmpMachine`` fans code writes out to every core, so cross-core SMC
  unlinks every hart's chains.
* ``flush_code_caches`` clears the link tables and chain-entry
  counters along with the chains themselves: a restored machine starts
  cold, exactly like the tier-promotion counts (PR 4).

``REPRO_MEGABLOCKS=0`` disables the tier entirely; results are
bit-identical either way, only wall-clock changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.mem.faults import GuestFault

from . import translator as _translator
from .code_cache import ChainedBlock, block_pages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.timing.codegen import (TimedBlockCodegen,
                                      WarmingBlockCodegen)

    from .code_cache import CodeCache, TranslatedBlock
    from .machine import Machine

    BlockCodegen = TimedBlockCodegen | WarmingBlockCodegen

__all__ = ["ChainLinker", "MAX_CHAIN", "DEFAULT_OBSERVATIONS"]

#: longest chain a megablock may thread through.  Long enough that a
#: typical hot loop body (a handful of superblocks) closes into one
#: chain; short enough that a cold mispredicted tail stays cheap.
MAX_CHAIN = 8

#: successor observations a hot head must accumulate before its chain
#: is built (entries counted from the moment the fused tier promotes
#: the block; mirrors ``fast_promote_threshold`` in spirit)
DEFAULT_OBSERVATIONS = 16

#: minimum share of a head's observed exits the dominant successor must
#: hold before an exit stub threads into it — chaining a coin-flip
#: branch would pay the guard on every dispatch and win nothing
MIN_SUCCESSOR_SHARE = 0.6


class ChainLinker:
    """Per-binding link tables, chain construction and unlinking.

    One linker exists per fused binding (per ``register_fast_sink``
    call); it owns the successor-observation tables the dispatch loop
    feeds, the megablock store the loop dispatches from, and the page
    index / generation counter the SMC path unlinks through.
    """

    def __init__(self, machine: "Machine", cache: "CodeCache",
                 codegen: "BlockCodegen",
                 max_chain: int = MAX_CHAIN) -> None:
        self.machine = machine
        self.cache = cache          # the binding's fused CodeCache
        self.codegen = codegen
        self.max_chain = max_chain
        #: heads still recording: head pc -> {successor pc: entries}
        #: (the chain-entry counters; cleared by flush)
        self.pending: Dict[int, Dict[int, int]] = {}
        #: finalized observation tables kept for interior-hop lookups
        self.links: Dict[int, Dict[int, int]] = {}
        #: built megablocks by head pc — the tier the loop dispatches
        self.mega: Dict[int, ChainedBlock] = {}
        #: vpn -> head pcs of chains entering that page
        self.page_index: Dict[int, Set[int]] = {}
        #: SMC/invalidation epoch, shared with every generated chain
        #: (a bump breaks running chains at their next exit stub)
        self.generation: List[int] = [0]
        #: host telemetry
        self.chains_built = 0
        self.chains_unlinked = 0

    # ------------------------------------------------------------------
    # recording (driven by the machine's event-mode dispatch loop)

    def watch(self, pc: int) -> None:
        """Start (or restart) successor recording for a promoted head."""
        self.pending[pc] = {}
        self.links.pop(pc, None)

    def observe(self, head: int, successor: int) -> None:
        """Record one ``head -> successor`` exit; build when ripe."""
        record = self.pending.get(head)
        if record is None:
            return
        record[successor] = record.get(successor, 0) + 1
        total = sum(record.values())
        if total >= self.machine.mega_promote_threshold:
            self.pending.pop(head, None)
            self.links[head] = record
            self._build(head)

    # ------------------------------------------------------------------
    # chain construction

    def _successor(self, pc: int) -> Optional[int]:
        """Dominant observed successor of ``pc`` (deterministic)."""
        record = self.links.get(pc) or self.pending.get(pc)
        if not record:
            return None
        total = sum(record.values())
        best = sorted(record.items(),
                      key=lambda item: (-item[1], item[0]))[0]
        if best[1] < total * MIN_SUCCESSOR_SHARE:
            return None
        return best[0]

    def _build(self, head: int) -> Optional[ChainedBlock]:
        """Inline-fuse the dominant-successor chain starting at
        ``head``; None when there is nothing to chain or the link set
        cannot be fused (the head then simply stays a fused block)."""
        fragments: List["TranslatedBlock"] = []
        seen: Set[int] = set()
        loop_back = False
        current = head
        while len(fragments) < self.max_chain:
            block = self.cache.get(current)
            if block is None or getattr(block, "chained", False):
                break
            fragments.append(block)
            seen.add(current)
            successor = self._successor(current)
            if successor is None:
                break
            if successor == head:
                loop_back = True
                break
            if successor in seen:
                break  # inner cycle that skips the head: stop threading
            current = successor
        if not fragments or (len(fragments) < 2 and not loop_back):
            return None  # nothing to thread
        entry = self._compile(head, fragments, loop_back)
        if entry is None:
            return None  # declined: the link set cannot be fused
        self.mega[head] = entry
        for vpn in entry.pages:
            self.page_index.setdefault(vpn, set()).add(head)
        # Tier handover: evict the head's fused entry so the dispatch
        # loop's primary (cache) lookup misses for chained heads and
        # every other PC pays a single lookup.  Not an architectural
        # invalidation — discard() keeps the CPU signal untouched.  If
        # the chain is later unlinked the head simply re-earns
        # promotion, exactly as after an SMC invalidation.
        self.cache.discard(head)
        self.chains_built += 1
        return entry

    def _compile(self, head: int,
                 fragments: Sequence["TranslatedBlock"],
                 loop_back: bool) -> Optional[ChainedBlock]:
        """Emit, compile and sanitize one megablock (sanctioned JIT
        site — rule REPRO004 lists this module beside the translator).

        The constituents are re-decoded and their fused bodies spliced
        into one function with a single shared timing-model
        prologue/epilogue
        (:meth:`~repro.vm.translator.Translator.generate_chain`) — this
        is where the speedup lives.  A link set that cannot be spliced
        is declined (None): a fragment uses dynamic ring addressing
        (``generate_chain`` raises ``ValueError``) or its code no longer
        decodes to the translated fragment.
        """
        translator = self.machine.translator
        frags = [(block.pc, translator._decode_block(block.pc))
                 for block in fragments]
        if any(len(instrs) != block.length
               for block, (_pc, instrs) in zip(fragments, frags)):
            return None  # the code changed since translation
        key = ("mega-inline", self.codegen.cache_key, loop_back,
               tuple((pc, tuple((i.op, i.rd, i.rs1, i.rs2, i.imm)
                                for i in instrs))
                     for pc, instrs in frags))
        source: Optional[str] = None
        if _translator._CODE_CACHE.get(key) is None:
            # generate eagerly: a fragment that cannot be spliced
            # (dynamic ring addressing) raises here and is declined
            try:
                source = translator.generate_chain(frags, loop_back,
                                                   self.codegen)
            except ValueError:
                return None
        flavor = self.codegen.flavor
        env = {"GuestFault": GuestFault,
               "IRQ": self.machine._pending_irqs,
               "GEN": self.generation}
        env.update(translator._env_base)
        env.update(self.codegen.env())
        env["VS"] = self.machine.stats     # keep ours over any alias
        verifier = _translator._verifier()

        def verify(source: str) -> None:
            # symbolic deep-check seam (see translator._verify_block)
            if verifier.verifier_active():
                verifier.hook_inline_chain(source, frags, loop_back,
                                           flavor)

        profiler = _translator._profiler()
        profiling = profiler.profiling_enabled()
        code, _source = _translator.compile_block(
            key, lambda: source, env, f"<megablock 0x{head:x} {flavor}>",
            "mega", verify, head, "megablock")
        namespace = env
        exec(code, namespace)  # noqa: S102 - the megablock tier's JIT
        fn = namespace["_block"]
        if profiling:
            fn = profiler.wrap_block(fn, head, "megablock")
        pages: Set[int] = set()
        length = 0
        for block in fragments:
            pages |= block_pages(block.pc, block.length)
            length += block.length
        chain = tuple((block.pc, block.length) for block in fragments)
        return ChainedBlock(head, fn, length, pages, chain)

    # ------------------------------------------------------------------
    # unlinking

    def _unlink(self, head: int) -> None:
        entry = self.mega.pop(head, None)
        if entry is None:
            return
        for vpn in entry.pages:
            heads = self.page_index.get(vpn)
            if heads is not None:
                heads.discard(head)
                if not heads:
                    del self.page_index[vpn]
        self.chains_unlinked += 1
        self.generation[0] += 1

    def invalidate_address(self, vpn: int, addr: int) -> int:
        """Unlink every chain with a fragment whose code range contains
        ``addr`` (the SMC path); returns the number unlinked."""
        heads = self.page_index.get(vpn)
        if not heads:
            return 0
        hit = [head for head in heads
               if any(pc <= addr < pc + length * 4
                      for pc, length in self.mega[head].chain)]
        for head in hit:
            self._unlink(head)
        return len(hit)

    def invalidate_page(self, vpn: int) -> int:
        """Unlink every chain entering page ``vpn``; returns the count."""
        heads = self.page_index.get(vpn)
        if not heads:
            return 0
        hit = list(heads)
        for head in hit:
            self._unlink(head)
        return len(hit)

    def flush(self) -> None:
        """Drop every chain, link table and chain-entry counter.

        Paired with ``Machine.flush_code_caches``: link state is host
        tiering state tied to the flushed translations, so a restored
        machine re-records from scratch (the same invariant PR 4
        established for the tier-promotion counts).
        """
        if self.mega:
            self.generation[0] += 1
        self.pending.clear()
        self.links.clear()
        self.mega.clear()
        self.page_index.clear()
