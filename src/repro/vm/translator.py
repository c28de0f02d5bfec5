"""Dynamic binary translator: Z64 basic blocks -> Python closures.

This is a real DBT in miniature.  ``translate`` decodes one guest basic
block, emits specialised Python source for it (constants folded, zero
register folded, per-instruction dispatch eliminated), compiles it once
with :func:`compile`, and returns a callable that executes the whole
block.  The machine's dispatch loop then runs blocks out of the
translation cache — the same structure that lets SimNow/QEMU run near
native speed, and the reason instrumenting every instruction is so
expensive (the paper's core premise).

Two translation *flavours* exist:

* ``FLAVOR_FAST`` — pure execution.  Blocks that end in a conditional
  branch back to their own start additionally get an internal loop (the
  analogue of fragment chaining) so hot loops execute without leaving
  the translated code until the instruction budget runs out.
* ``FLAVOR_EVENT`` — identical semantics, plus one ``sink`` call per
  retired instruction carrying the event fields described in
  :mod:`repro.vm.events`.  This is the "sampled mode" of the paper: it
  costs an order of magnitude more than fast mode.

Generated functions have signature ``fn(state, budget) -> executed`` and
must leave ``state.pc`` at the next instruction to execute.  Before any
instruction that can raise a guest fault the generated code updates
``state.pc`` and ``state.block_progress`` so the machine can account
retired instructions precisely.
"""

from __future__ import annotations

from types import CodeType
from typing import Callable, List, Mapping, Tuple

from repro.isa import DecodeError, Instr, OP_INFO, Op, decode
from repro.mem.faults import (BreakpointTrap, GuestFault, IllegalInstruction,
                              PageFault, SyscallTrap)

from .code_cache import TranslatedBlock, block_pages
from .semantics import MASK64, SEMANTIC_HELPERS

FLAVOR_FAST = "fast"
FLAVOR_EVENT = "event"

MAX_BLOCK = 32

_CLS = {op: int(info.opclass) for op, info in OP_INFO.items()}

#: value expressions for integer ALU ops; {a}/{b} are operand expressions,
#: {im} is the (signed) immediate literal
_ALU_RR = {
    Op.ADD: "({a} + {b}) & M",
    Op.SUB: "({a} - {b}) & M",
    Op.MUL: "({a} * {b}) & M",
    Op.MULH: "((s64({a}) * s64({b})) >> 64) & M",
    Op.DIV: "idiv({a}, {b})",
    Op.REM: "irem({a}, {b})",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SLL: "({a} << ({b} & 63)) & M",
    Op.SRL: "{a} >> ({b} & 63)",
    Op.SRA: "(s64({a}) >> ({b} & 63)) & M",
    Op.SLT: "(1 if s64({a}) < s64({b}) else 0)",
    Op.SLTU: "(1 if {a} < {b} else 0)",
}

_ALU_RI = {
    Op.ADDI: "({a} + {im}) & M",
    Op.ANDI: "{a} & {imu}",
    Op.ORI: "{a} | {imu}",
    Op.XORI: "{a} ^ {imu}",
    Op.SLLI: "({a} << {sh}) & M",
    Op.SRLI: "{a} >> {sh}",
    Op.SRAI: "(s64({a}) >> {sh}) & M",
    Op.SLTI: "(1 if s64({a}) < {im} else 0)",
    Op.LDI: "{imu}",
    Op.ORIS: "((({a}) << 16) | {im16}) & M",
}

_LOADS = {
    Op.LB: "sx8(ld1({ea}))",
    Op.LBU: "ld1({ea})",
    Op.LH: "sx16(ld2({ea}))",
    Op.LHU: "ld2({ea})",
    Op.LW: "sx32(ld4({ea}))",
    Op.LWU: "ld4({ea})",
    Op.LD: "ld8({ea})",
}

_STORES = {
    Op.SB: "st1({ea}, {b} & 0xFF)",
    Op.SH: "st2({ea}, {b} & 0xFFFF)",
    Op.SW: "st4({ea}, {b} & 0xFFFFFFFF)",
    Op.SD: "st8({ea}, {b})",
}

_BRANCH_COND = {
    Op.BEQ: "{a} == {b}",
    Op.BNE: "{a} != {b}",
    Op.BLT: "s64({a}) < s64({b})",
    Op.BGE: "s64({a}) >= s64({b})",
    Op.BLTU: "{a} < {b}",
    Op.BGEU: "{a} >= {b}",
}

_FP_RR = {
    Op.FADD: "f[{rs1}] + f[{rs2}]",
    Op.FSUB: "f[{rs1}] - f[{rs2}]",
    Op.FMUL: "f[{rs1}] * f[{rs2}]",
    Op.FDIV: "fdiv(f[{rs1}], f[{rs2}])",
    Op.FMIN: "fmin2(f[{rs1}], f[{rs2}])",
    Op.FMAX: "fmax2(f[{rs1}], f[{rs2}])",
}

_FP_UNARY = {
    Op.FSQRT: "fsqrt(f[{rs1}])",
    Op.FNEG: "-f[{rs1}]",
    Op.FABS: "abs(f[{rs1}])",
}

_FP_CMP = {
    Op.FEQ: "(1 if f[{rs1}] == f[{rs2}] else 0)",
    Op.FLT: "(1 if f[{rs1}] < f[{rs2}] else 0)",
    Op.FLE: "(1 if f[{rs1}] <= f[{rs2}] else 0)",
}

_TERMINATOR_CLASSES = frozenset((5, 6, 11))  # branch, jump, system


def _u_int(index: int) -> int:
    return -1 if index == 0 else index


def event_fields(instr: Instr) -> tuple:
    """``(cls, dst, src1, src2)`` exactly as the event flavour reports.

    Single source of truth shared by the event-flavour code generator
    and the fused timing code generators (:mod:`repro.timing.codegen`):
    both must describe each instruction with identical unified-register
    indices or the fast path would diverge from the slow-path oracle.
    """
    op = instr.op
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    cls = _CLS[op]
    if op in _ALU_RR:
        return cls, _u_int(rd), _u_int(rs1), _u_int(rs2)
    if op in _ALU_RI:
        return cls, _u_int(rd), _u_int(rs1), -1
    if op == Op.FLD:
        return cls, 16 + rd, _u_int(rs1), -1
    if op in _LOADS:
        return cls, _u_int(rd), _u_int(rs1), -1
    if op == Op.FSD:
        return cls, -1, _u_int(rs1), 16 + rs2
    if op in _STORES:
        return cls, -1, _u_int(rs1), _u_int(rs2)
    if op in _FP_RR:
        return cls, 16 + rd, 16 + rs1, 16 + rs2
    if op in _FP_UNARY:
        return cls, 16 + rd, 16 + rs1, -1
    if op in _FP_CMP:
        return cls, _u_int(rd), 16 + rs1, 16 + rs2
    if op == Op.FCVTIF:
        return cls, 16 + rd, _u_int(rs1), -1
    if op == Op.FCVTFI:
        return cls, _u_int(rd), 16 + rs1, -1
    if op in _BRANCH_COND:
        return cls, -1, _u_int(rs1), _u_int(rs2)
    if op == Op.JAL:
        return cls, _u_int(rd), -1, -1
    if op == Op.JALR:
        return cls, _u_int(rd), _u_int(rs1), -1
    if op in (Op.ECALL, Op.EBREAK, Op.HALT):
        return cls, -1, -1, -1
    if op in (Op.RDCYCLE, Op.RDINSTR):
        return cls, _u_int(rd), -1, -1
    raise AssertionError(f"unhandled opcode {op!r}")  # pragma: no cover


#: host-level compiled-code cache shared by every Machine in the
#: process.  A block's generated source — and therefore its compiled
#: code object — is a pure function of its decoded instructions, its
#: address, the flavour, and (for fused flavours) the timing
#: configuration; the cache is keyed on exactly those inputs, so a hit
#: skips source generation *and* ``compile()`` while remaining
#: incapable of changing any simulated result.  It exists because
#: compilation dominates translation cost (fused superblocks run to
#: hundreds of lines): a sweep that boots many controllers over the
#: same deterministic workloads would otherwise re-generate and
#: re-compile the exact same blocks in every Machine.  Values are
#: ``(code, source)`` so ``Translator.last_source`` stays accurate on
#: hits.  Behind it sits the persistent code cache
#: (:mod:`repro.exec.codecache`, one pack per job under
#: ``codecache-v2/``), which carries vetted code objects across
#: processes; see :func:`compile_block`.
_CODE_CACHE: dict = {}
_CODE_CACHE_CAPACITY = 8192

#: lazily bound repro.analysis.sanitizer module (the import is deferred
#: to first translation so importing repro.vm never drags the analysis
#: package — and its result-analysis dependencies — along)
_SANITIZER = None

#: lazily bound repro.exec.codecache module, same deferral rationale
_CODECACHE = None

#: lazily bound repro.obs.profiler module, same deferral rationale.
#: When profiling is disabled (the default) the only cost is one flag
#: check per *translation* — never per dispatch — and translated
#: blocks are returned unwrapped, so the dispatch loop is untouched.
_PROFILER = None


def _profiler():
    global _PROFILER
    if _PROFILER is None:
        from repro.obs import profiler as _profiler_module
        _PROFILER = _profiler_module
    return _PROFILER


def _codecache():
    global _CODECACHE
    if _CODECACHE is None:
        from repro.exec import codecache as _codecache_module
        _CODECACHE = _codecache_module
    return _CODECACHE


def _sanitize(code: CodeType, env_names, flavor: str,
              source: str) -> bool:
    """Run the generated-superblock sanitizer unless disabled.

    Every code object this module compiles goes through here before it
    is executed or persisted (rule REPRO004's runtime counterpart): the
    sanitizer checks the compiled bytecode and rejects imports, I/O,
    and writes outside machine/timing state.  Returns whether it ran
    (False when ``REPRO_SANITIZE=0`` disables it); results are
    identical either way because the sanitizer only vets code, it never
    rewrites it.
    """
    global _SANITIZER
    if _SANITIZER is None:
        from repro.analysis import sanitizer as _sanitizer_module
        _SANITIZER = _sanitizer_module
    if _SANITIZER.sanitizer_enabled():
        _SANITIZER.sanitize_block_source(code, env_names, flavor, source)
        return True
    return False


#: lazily bound repro.analysis.symexec module (the symbolic verifier);
#: same deferral rationale as the sanitizer — and doubly so here, the
#: deep check costs a full abstract interpretation per translation
_VERIFIER = None


def _verifier():
    global _VERIFIER
    if _VERIFIER is None:
        from repro.analysis import symexec as _symexec_module
        _VERIFIER = _symexec_module
    return _VERIFIER


def _verify_block(source: str, pc: int, instrs, flavor: str) -> None:
    """Symbolic deep-check seam, layered above the sanitizer.

    Inactive (one flag check) unless ``REPRO_VERIFY=1`` or a
    :func:`repro.analysis.symexec.capture` collector is open; when
    verifying, a semantic diff raises ``VerifyError`` before the
    source is ever compiled.
    """
    verifier = _verifier()
    if verifier.verifier_active():
        verifier.hook_block(source, pc, instrs, flavor)


def compile_block(key: tuple, generate: Callable[[], str],
                  env: Mapping[str, object], filename: str, flavor: str,
                  verify: Callable[[str], None], pc: int,
                  tier: str) -> Tuple[CodeType, str]:
    """``(code, source)`` of one generated block: the one compile path
    of the translator and the megablock linker.

    An in-process hit (``_CODE_CACHE[key]``) costs a dict lookup.  On a
    miss the source is generated and looked up in the persistent code
    cache by content; a persistent hit skips only ``compile()`` and the
    sanitizer.  Otherwise the source is compiled once, the code object
    is sanitized against ``env``'s names, and exactly that
    ``compile(source)`` is persisted, only if the sanitizer actually
    ran.  ``verify`` (the opt-in symbolic deep check) sees every
    generated source either way.
    """
    cached = _CODE_CACHE.get(key)
    if cached is not None:
        return cached
    profiler = _profiler()
    profiling = profiler.profiling_enabled()
    started = profiler.now() if profiling else 0.0
    source = generate()
    persistent = _codecache()
    entry = persistent.entry_key(filename, env, source)
    code = persistent.load(entry)
    vetted = False
    if code is None:
        # dont_inherit: the code must not depend on this module's
        # __future__ imports, so a cache entry is compile(source) as
        # any caller would get it
        code = compile(source, filename, "exec", dont_inherit=True)
        vetted = _sanitize(code, env, flavor, source)
    verify(source)
    if vetted:
        persistent.store(entry, code)
    if profiling:
        profiler.record_translation(pc, tier, profiler.now() - started,
                                    source_lines=source.count("\n"))
    if len(_CODE_CACHE) >= _CODE_CACHE_CAPACITY:
        _CODE_CACHE.clear()
    _CODE_CACHE[key] = (code, source)
    return code, source


def _block_key(pc: int, instrs, flavor: str, codegen) -> tuple:
    return (flavor, pc,
            None if codegen is None else codegen.cache_key,
            tuple((instr.op, instr.rd, instr.rs1, instr.rs2, instr.imm)
                  for instr in instrs))


class Translator:
    """Compiles guest basic blocks to Python; owned by the Machine."""

    def __init__(self, mmu, sink_box: list, max_block: int = MAX_BLOCK):
        self.mmu = mmu
        self.sink_box = sink_box
        self.max_block = max_block
        self._env_base = dict(SEMANTIC_HELPERS)
        self._env_base.update({
            "ld1": mmu.read_u8, "ld2": mmu.read_u16,
            "ld4": mmu.read_u32, "ld8": mmu.read_u64, "ldf": mmu.read_f64,
            "st1": mmu.write_u8, "st2": mmu.write_u16,
            "st4": mmu.write_u32, "st8": mmu.write_u64, "stf": mmu.write_f64,
            "SyscallTrap": SyscallTrap, "BreakpointTrap": BreakpointTrap,
            "GuestFault": GuestFault,
            "SINK": sink_box,
        })
        #: generated source by block pc (debugging / tests)
        self.last_source: str = ""

    # ------------------------------------------------------------------

    def translate(self, pc: int, flavor: str,
                  codegen=None) -> TranslatedBlock:
        """Decode and compile the basic block starting at ``pc``.

        With a ``codegen`` (see :mod:`repro.timing.codegen`) the block is
        compiled as a *fused* flavour: the fast-flavour semantics with the
        codegen's specialised timing-update code inlined after each
        instruction, replacing the per-instruction ``sink`` call of
        ``FLAVOR_EVENT``.  The codegen contributes a prologue (hoists
        timing-model state into locals), per-instruction lines, and an
        epilogue (writes the state back) and must reproduce the sink's
        observable behaviour exactly — the event flavour stays available
        as the oracle.
        """
        instrs = self._decode_block(pc)
        profiler = _profiler()
        profiling = profiler.profiling_enabled()
        namespace = dict(self._env_base)
        if codegen is None:
            tier = verify_flavor = flavor
            generate = lambda: self._generate(  # noqa: E731
                pc, instrs, flavor)
        else:
            tier, verify_flavor = f"fused-{codegen.flavor}", codegen.flavor
            namespace.update(codegen.env())
            generate = lambda: self._generate_fused(  # noqa: E731
                pc, instrs, codegen)
        code, source = compile_block(
            _block_key(pc, instrs, flavor, codegen), generate, namespace,
            f"<block 0x{pc:x} {flavor}>", flavor,
            lambda source: _verify_block(source, pc, instrs,
                                         verify_flavor),
            pc, tier)
        self.last_source = source
        exec(code, namespace)  # noqa: S102 - this *is* the JIT
        fn = namespace["_block"]
        if profiling:
            fn = profiler.wrap_block(fn, pc, tier)
        return TranslatedBlock(pc, fn, len(instrs),
                               block_pages(pc, len(instrs)))

    def _decode_block(self, pc: int) -> List[Instr]:
        instrs: List[Instr] = []
        mmu = self.mmu
        current = pc
        while len(instrs) < self.max_block:
            try:
                word = mmu.fetch_word(current)
            except PageFault:
                if instrs:
                    break  # block ends at the mapped region's edge
                raise
            try:
                instr = decode(word)
            except DecodeError:
                if instrs:
                    break  # the bad word faults when it is reached
                raise IllegalInstruction(pc, word) from None
            instrs.append(instr)
            if _CLS[instr.op] in _TERMINATOR_CLASSES:
                break
            current += 4
        return instrs

    # ------------------------------------------------------------------
    # code generation

    def _generate(self, pc0: int, instrs: List[Instr], flavor: str) -> str:
        event = flavor == FLAVOR_EVENT
        last = instrs[-1]
        last_pc = pc0 + (len(instrs) - 1) * 4
        loop = (not event
                and last.op in _BRANCH_COND
                and (last_pc + last.imm * 4) & MASK64 == pc0
                and len(instrs) >= 1)
        lines: List[str] = ["def _block(state, budget):",
                            "    r = state.regs",
                            "    f = state.fregs"]
        if event:
            lines.append("    sink = SINK[0]")
        indent = "    "
        progress = "{i}"
        if loop:
            lines.append("    n = 0")
            lines.append("    while 1:")
            indent = "        "
            progress = "n + {i}"

        for index, instr in enumerate(instrs[:-1]):
            self._gen_body(lines, indent, instr, pc0 + index * 4, index,
                           progress, event)
        self._gen_terminator(lines, indent, last, last_pc,
                             len(instrs) - 1, len(instrs), pc0, progress,
                             event, loop)
        return "\n".join(lines) + "\n"

    # -- non-terminator instructions -----------------------------------

    def _gen_body(self, lines: List[str], ind: str, instr: Instr, pc: int,
                  index: int, progress: str, event: bool) -> None:
        op = instr.op
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        a = f"r[{rs1}]" if rs1 else "0"
        b = f"r[{rs2}]" if rs2 else "0"
        cls, dst, s1, s2 = event_fields(instr)
        emit = lines.append

        def guard() -> None:
            """Progress bookkeeping before a faulting operation.

            The machine reconstructs the faulting PC as
            ``block.pc + (progress % block.length) * 4`` — blocks are
            sequential by construction, so no per-op PC store is needed.
            """
            emit(f"{ind}state.block_progress = "
                 + progress.format(i=index))

        def event_call(addr: str = "0") -> None:
            if event:
                emit(f"{ind}sink({pc}, {cls}, {dst}, {s1}, {s2}, {addr}, "
                     "0, 0)")

        if op in _ALU_RR:
            expr = _ALU_RR[op].format(a=a, b=b)
            if rd:
                emit(f"{ind}r[{rd}] = {expr}")
            event_call()
        elif op in _ALU_RI:
            expr = _ALU_RI[op].format(
                a=a, im=imm, imu=imm & MASK64, sh=imm & 63,
                im16=imm & 0xFFFF)
            if rd:
                emit(f"{ind}r[{rd}] = {expr}")
            event_call()
        elif op in _LOADS or op == Op.FLD:
            guard()
            ea = f"({a} + {imm}) & M" if rs1 else f"{imm & MASK64}"
            emit(f"{ind}ea = {ea}")
            if op == Op.FLD:
                emit(f"{ind}f[{rd}] = ldf(ea)")
            else:
                expr = _LOADS[op].format(ea="ea")
                if rd:
                    emit(f"{ind}r[{rd}] = {expr}")
                else:
                    emit(f"{ind}{expr}")
            event_call("ea")
        elif op in _STORES or op == Op.FSD:
            guard()
            ea = f"({a} + {imm}) & M" if rs1 else f"{imm & MASK64}"
            emit(f"{ind}ea = {ea}")
            if op == Op.FSD:
                emit(f"{ind}stf(ea, f[{rs2}])")
            else:
                emit(f"{ind}{_STORES[op].format(ea='ea', b=b)}")
            event_call("ea")
        elif op in _FP_RR:
            emit(f"{ind}f[{rd}] = {_FP_RR[op].format(rs1=rs1, rs2=rs2)}")
            event_call()
        elif op in _FP_UNARY:
            emit(f"{ind}f[{rd}] = {_FP_UNARY[op].format(rs1=rs1)}")
            event_call()
        elif op in _FP_CMP:
            if rd:
                emit(f"{ind}r[{rd}] = "
                     f"{_FP_CMP[op].format(rs1=rs1, rs2=rs2)}")
            event_call()
        elif op == Op.FCVTIF:
            emit(f"{ind}f[{rd}] = float(s64({a}))")
            event_call()
        elif op == Op.FCVTFI:
            if rd:
                emit(f"{ind}r[{rd}] = f2i(f[{rs1}])")
            event_call()
        else:  # pragma: no cover - terminators never reach _gen_body
            raise AssertionError(f"unexpected body opcode {op!r}")

    # -- terminators ----------------------------------------------------

    def _gen_terminator(self, lines: List[str], ind: str, instr: Instr,
                        pc: int, index: int, length: int, pc0: int,
                        progress: str, event: bool, loop: bool) -> None:
        op = instr.op
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        a = f"r[{rs1}]" if rs1 else "0"
        b = f"r[{rs2}]" if rs2 else "0"
        cls, dst, s1, s2 = event_fields(instr)
        fall = (pc + 4) & MASK64
        emit = lines.append

        def sink_line(taken: int, target: str, indent: str) -> None:
            if event:
                emit(f"{indent}sink({pc}, {cls}, {dst}, {s1}, {s2}, 0, "
                     f"{taken}, {target})")

        if op in _BRANCH_COND:
            cond = _BRANCH_COND[op].format(a=a, b=b)
            target = (pc + imm * 4) & MASK64
            if loop:
                # Conditional branch back to the block start: iterate
                # inside the translated code while the budget allows.
                emit(f"{ind}n += {length}")
                emit(f"{ind}if {cond}:")
                emit(f"{ind}    if n + {length} <= budget:")
                emit(f"{ind}        continue")
                emit(f"{ind}    state.pc = {pc0}")
                emit(f"{ind}    return n")
                emit(f"{ind}state.pc = {fall}")
                emit(f"{ind}return n")
                return
            emit(f"{ind}if {cond}:")
            sink_line(1, str(target), ind + "    ")
            emit(f"{ind}    state.pc = {target}")
            emit(f"{ind}    return {length}")
            sink_line(0, str(fall), ind)
            emit(f"{ind}state.pc = {fall}")
            emit(f"{ind}return {length}")
            return
        if op == Op.JAL:
            target = (pc + imm * 4) & MASK64
            if rd:
                emit(f"{ind}r[{rd}] = {fall}")
            sink_line(1, str(target), ind)
            emit(f"{ind}state.pc = {target}")
            emit(f"{ind}return {length}")
            return
        if op == Op.JALR:
            emit(f"{ind}t = ({a} + {imm}) & M & ~3")
            if rd:
                emit(f"{ind}r[{rd}] = {fall}")
            sink_line(1, "t", ind)
            emit(f"{ind}state.pc = t")
            emit(f"{ind}return {length}")
            return
        if op in (Op.ECALL, Op.EBREAK):
            trap = "SyscallTrap" if op == Op.ECALL else "BreakpointTrap"
            emit(f"{ind}state.pc = {pc}")
            emit(f"{ind}state.block_progress = "
                 + progress.format(i=index))
            sink_line(0, str(fall), ind)
            emit(f"{ind}raise {trap}({pc})")
            return
        if op == Op.HALT:
            emit(f"{ind}state.pc = {pc}")
            emit(f"{ind}state.halted = True")
            sink_line(0, str(pc), ind)
            emit(f"{ind}return {length}")
            return
        if op == Op.RDCYCLE:
            if rd:
                emit(f"{ind}r[{rd}] = state.cycles & M")
            sink_line(0, "0", ind)
            emit(f"{ind}state.pc = {fall}")
            emit(f"{ind}return {length}")
            return
        if op == Op.RDINSTR:
            if rd:
                emit(f"{ind}r[{rd}] = (state.icount + {index}) & M")
            sink_line(0, "0", ind)
            emit(f"{ind}state.pc = {fall}")
            emit(f"{ind}return {length}")
            return
        # Block ended by MAX_BLOCK or a page edge: plain fallthrough.
        self._gen_body(lines, ind, instr, pc, index, progress, event)
        emit(f"{ind}state.pc = {fall}")
        emit(f"{ind}return {length}")

    # -- fused flavours (fast semantics + inlined timing updates) -------

    def _generate_fused(self, pc0: int, instrs: List[Instr],
                        codegen) -> str:
        """One straight-line pass: semantics, then timing, per instruction.

        Control flow mirrors the event flavour exactly — one event's
        worth of timing per retired instruction, trap timing applied
        before the trap raises, and the timing of a faulting memory
        operation never applied (the event flavour's sink call sits after
        the memory access).  All exits funnel through a single epilogue:
        ``_n`` counts the instructions whose timing ran, faults are
        re-raised after the timing state is written back.
        """
        length = len(instrs)
        block = codegen.begin(pc0, instrs)
        lines: List[str] = ["def _block(state, budget):",
                            "    r = state.regs",
                            "    f = state.fregs"]
        for text in block.prologue(length):
            lines.append("    " + text)
        lines.append("    try:")
        ind = "        "
        for index, instr in enumerate(instrs[:-1]):
            self._gen_body(lines, ind, instr, pc0 + index * 4, index,
                           "{i}", False)
            for text in block.instr(pc0 + index * 4, instr):
                lines.append(ind + text)
        self._gen_fused_terminator(lines, ind, instrs[-1],
                                   pc0 + (length - 1) * 4, length - 1,
                                   block)
        lines.append("    except (SyscallTrap, BreakpointTrap) as _e2:")
        lines.append("        _n = state.block_progress + 1")
        lines.append("        _flt = _e2")
        lines.append("    except GuestFault as _e2:")
        lines.append("        _n = state.block_progress")
        lines.append("        _flt = _e2")
        for text in block.epilogue():
            lines.append("    " + text)
        lines.append("    if _flt is not None:")
        lines.append("        raise _flt")
        lines.append(f"    return {length}")
        return "\n".join(lines) + "\n"

    def _gen_fused_terminator(self, lines: List[str], ind: str,
                              instr: Instr, pc: int, index: int,
                              block) -> None:
        op = instr.op
        rd, rs1, imm = instr.rd, instr.rs1, instr.imm
        a = f"r[{rs1}]" if rs1 else "0"
        b = f"r[{instr.rs2}]" if instr.rs2 else "0"
        fall = (pc + 4) & MASK64
        emit = lines.append

        if op in _BRANCH_COND:
            cond = _BRANCH_COND[op].format(a=a, b=b)
            target = (pc + imm * 4) & MASK64
            # The pipeline stages don't depend on the branch outcome;
            # only the front-end redirect does, so the arms carry just
            # the control-flow part with taken/target constant-folded.
            for text in block.branch_stages(pc, instr):
                emit(ind + text)
            emit(f"{ind}if {cond}:")
            for text in block.branch_arm(pc, instr, True, str(target)):
                emit(ind + "    " + text)
            emit(f"{ind}    state.pc = {target}")
            emit(f"{ind}else:")
            for text in block.branch_arm(pc, instr, False, str(fall)):
                emit(ind + "    " + text)
            emit(f"{ind}    state.pc = {fall}")
            return
        if op == Op.JAL:
            target = (pc + imm * 4) & MASK64
            if rd:
                emit(f"{ind}r[{rd}] = {fall}")
            for text in block.jump(pc, instr, str(target)):
                emit(ind + text)
            emit(f"{ind}state.pc = {target}")
            return
        if op == Op.JALR:
            emit(f"{ind}t = ({a} + {imm}) & M & ~3")
            if rd:
                emit(f"{ind}r[{rd}] = {fall}")
            for text in block.jump(pc, instr, "t"):
                emit(ind + text)
            emit(f"{ind}state.pc = t")
            return
        if op in (Op.ECALL, Op.EBREAK):
            trap = "SyscallTrap" if op == Op.ECALL else "BreakpointTrap"
            emit(f"{ind}state.pc = {pc}")
            emit(f"{ind}state.block_progress = {index}")
            for text in block.system(pc, instr):
                emit(ind + text)
            emit(f"{ind}raise {trap}({pc})")
            return
        if op == Op.HALT:
            emit(f"{ind}state.pc = {pc}")
            emit(f"{ind}state.halted = True")
            for text in block.system(pc, instr):
                emit(ind + text)
            return
        if op == Op.RDCYCLE:
            if rd:
                emit(f"{ind}r[{rd}] = state.cycles & M")
            for text in block.system(pc, instr):
                emit(ind + text)
            emit(f"{ind}state.pc = {fall}")
            return
        if op == Op.RDINSTR:
            if rd:
                emit(f"{ind}r[{rd}] = (state.icount + {index}) & M")
            for text in block.system(pc, instr):
                emit(ind + text)
            emit(f"{ind}state.pc = {fall}")
            return
        # Block ended by MAX_BLOCK or a page edge: plain fallthrough.
        self._gen_body(lines, ind, instr, pc, index, "{i}", False)
        for text in block.instr(pc, instr):
            emit(ind + text)
        emit(f"{ind}state.pc = {fall}")

    # ------------------------------------------------------------------
    # megablock chains (tier 3 — see repro.vm.chain)

    def generate_chain(self, frags, loop_back: bool, codegen) -> str:
        """Inline-fuse a chain of fused blocks into one megablock.

        ``frags`` is the ordered list of ``(pc, instrs)`` constituents.
        The chain re-emits their fused bodies into a single function that
        shares ONE timing-model prologue and ONE epilogue: the heavy
        spill of core micro-state (bandwidth rings, queue pointers,
        unit busy times, branch state) into locals happens once per
        chain entry rather than once per block, and between fragments
        only a few locals-space glue lines run — the ring-name
        rotations and pointer advances that the back-to-back
        epilogue/prologue pair would have produced.  With ``loop_back``
        the chain closes into a ``while`` loop and a hot guest loop
        iterates entirely inside this one frame.

        Equivalence with per-block fused dispatch is kept by the same
        bookkeeping the dispatch loop does: ``_base`` accumulates
        completed fragments, every exit stub re-checks the loop's
        continue conditions, and fault paths fold fragment-local
        ``block_progress``/``_n`` into chain totals before the shared
        epilogue writes the model state back (``retire`` expression
        ``_base + _n``) and the fault re-raises.

        Raises ``ValueError`` for fragments the glue cannot bridge
        (dynamic ring addressing); the linker then declines to chain.
        """
        emitters = [codegen.begin(pc, instrs) for pc, instrs in frags]
        timed = emitters[0].timed
        if timed:
            for emitter in emitters:
                if not (emitter.fq_static and emitter.rob_static
                        and emitter.ld_static and emitter.st_static):
                    raise ValueError("fragment uses dynamic ring "
                                     "addressing; cannot inline-fuse")
        has_load = any(e.has_load for e in emitters)
        has_store = any(e.has_store for e in emitters)
        # Union-flag prototype emitters over the head block: one carries
        # the prologue (loads everything any fragment touches), one the
        # epilogue (ld/st pointer write-back is chain-managed, so those
        # flags stay off and the lines are emitted below).
        pro = codegen.begin(frags[0][0], frags[0][1])
        epi = codegen.begin(frags[0][0], frags[0][1])
        for proto in (pro, epi):
            proto.has_branch = any(e.has_branch for e in emitters)
            proto.has_jump = any(e.has_jump for e in emitters)
            proto.fu_groups = set().union(
                *(e.fu_groups for e in emitters))
            proto.faultable = True      # epilogue paths must take the
            proto.length = 0            # dynamic-``_n`` form throughout
        pro.has_load, pro.has_store = has_load, has_store
        epi.has_load = epi.has_store = False

        from repro.timing.codegen import chain_exit_stub

        # ``state.icount`` is only observable inside the chain through a
        # guest RDINSTR; without one the per-fragment bump and the final
        # back-out cancel exactly, so both are skipped.
        track_icount = any(instr.op == Op.RDINSTR
                           for _pc, instrs in frags for instr in instrs)

        single_loop = loop_back and len(frags) == 1
        lines: List[str] = ["def _block(state, budget):",
                            "    r = state.regs",
                            "    f = state.fregs",
                            "    _irq = IRQ",
                            "    _gen = GEN",
                            "    _g0 = _gen[0]",
                            "    _base = 0"]
        if not single_loop:
            lines.append("    _d = 0")
        # hoisted budget limits: the guard ``_base + L >= budget``
        # becomes ``_base >= _lim{L}``, one add less per iteration
        for limit in sorted({e.length for e in emitters}):
            lines.append(f"    _lim{limit} = budget - {limit}")
        if has_load:
            lines.append("    _ldadv = 0")
        if has_store:
            lines.append("    _stadv = 0")
        for text in pro.prologue(emitters[0].length):
            lines.append("    " + text)
        lines.append("    while 1:")
        ind = "        "
        bind = "            "
        # A single-fragment loop chain (by far the common shape: a hot
        # guest loop whose body is one superblock) needs no per-
        # iteration dispatch counter — every completed iteration is one
        # dispatch, so ``_base // length`` reconstructs the count on
        # exit and the hot path drops the increment.
        for k, (emitter, (pc0, instrs)) in enumerate(zip(emitters,
                                                         frags)):
            length = emitter.length
            # partial buffer advance for a breaking fragment (indexed
            # by its retired count, like the fused epilogue); only the
            # break paths need it, so the lines live in the except
            # handlers and the guard's miss path — never on the
            # fall-through path
            fault_adv = []
            if has_load:
                fault_adv.append(
                    f"_ldadv = {tuple(emitter.pre_ld)}[_n]"
                    if emitter.has_load else "_ldadv = 0")
            if has_store:
                fault_adv.append(
                    f"_stadv = {tuple(emitter.pre_st)}[_n]"
                    if emitter.has_store else "_stadv = 0")
            lines.append(f"{ind}try:")
            for index, instr in enumerate(instrs[:-1]):
                self._gen_body(lines, bind, instr, pc0 + index * 4,
                               index, "{i}", False)
                for text in emitter.instr(pc0 + index * 4, instr):
                    lines.append(bind + text)
            self._gen_fused_terminator(lines, bind, instrs[-1],
                                       pc0 + (length - 1) * 4,
                                       length - 1, emitter)
            lines.append(f"{ind}except (SyscallTrap, BreakpointTrap) "
                         "as _e2:")
            lines.append(f"{ind}    _n = state.block_progress + 1")
            lines.append(f"{ind}    _flt = _e2")
            lines.extend(f"{ind}    {text}" for text in fault_adv)
            lines.append(f"{ind}    break")
            lines.append(f"{ind}except GuestFault as _e2:")
            lines.append(f"{ind}    _n = state.block_progress")
            lines.append(f"{ind}    _flt = _e2")
            # restore the faulting pc here: the machine's head-relative
            # reconstruction is wrong for interior fragments, so it
            # skips chained entries (state.pc still holds this
            # fragment's entry pc — the preceding guard checked it)
            lines.append(f"{ind}    state.pc = {pc0} + "
                         f"((_n % {length}) * 4)")
            lines.extend(f"{ind}    {text}" for text in fault_adv)
            lines.append(f"{ind}    break")
            if not single_loop:
                lines.append(f"{ind}_d = _d + 1")
            # clean-exit bookkeeping also rides the guard's miss path:
            # ``_n`` is only read after a break, so the fall-through
            # path never touches it
            clean_exit = [f"_n = {length}"]
            if has_load:
                clean_exit.append(f"_ldadv = {emitter.pre_ld[-1]}")
            if has_store:
                clean_exit.append(f"_stadv = {emitter.pre_st[-1]}")
            if k + 1 < len(frags):
                succ = frags[k + 1][0]
            elif loop_back:
                succ = frags[0][0]
            else:
                lines.extend(ind + text for text in clean_exit)
                lines.append(f"{ind}break")
                continue
            for text in chain_exit_stub(succ, clean_exit,
                                        f"_base >= _lim{length}"):
                lines.append(ind + text)
            lines.append(f"{ind}_base = _base + {length}")
            if track_icount:
                lines.append(f"{ind}state.icount = "
                             f"state.icount + {length}")
            if timed:
                # locals-space glue: what this fragment's epilogue +
                # the successor's prologue would have done, minus every
                # store/load pair that round-trips through CORE
                lines.append(f"{ind}_fqp = _fqp + {length}")
                lines.append(f"{ind}if _fqp >= {emitter.fqn}:")
                lines.append(f"{ind}    _fqp = _fqp - {emitter.fqn}")
                lines.append(f"{ind}_robp = _robp + {length}")
                lines.append(f"{ind}if _robp >= {emitter.robn}:")
                lines.append(f"{ind}    _robp = _robp - {emitter.robn}")
                if emitter.has_load:
                    step = emitter.pre_ld[-1]
                    lines.append(f"{ind}_ldp = _ldp + {step}")
                    lines.append(f"{ind}if _ldp >= {emitter.ldn}:")
                    lines.append(f"{ind}    _ldp = _ldp - {emitter.ldn}")
                if emitter.has_store:
                    step = emitter.pre_st[-1]
                    lines.append(f"{ind}_stp = _stp + {step}")
                    lines.append(f"{ind}if _stp >= {emitter.stn}:")
                    lines.append(f"{ind}    _stp = _stp - {emitter.stn}")
                for ring in (emitter.fring, emitter.dring,
                             emitter.rring):
                    count = length % ring.width
                    if count:
                        lines.append(ind + ", ".join(ring.names)
                                     + " = "
                                     + ", ".join(ring.perm(count)))
        if track_icount:
            lines.append("    state.icount = state.icount - _base")
        for text in epi.epilogue(retire="_base + _n"):
            lines.append("    " + text)
        if timed and has_load:
            ldn = emitters[0].ldn
            lines += ["    _ldp = _ldp + _ldadv",
                      f"    if _ldp >= {ldn}:",
                      f"        _ldp = _ldp - {ldn}",
                      "    CORE._ld_pos = _ldp"]
        if timed and has_store:
            stn = emitters[0].stn
            lines += ["    _stp = _stp + _stadv",
                      f"    if _stp >= {stn}:",
                      f"        _stp = _stp - {stn}",
                      "    CORE._st_pos = _stp"]
        # completed-fragment dispatches, reconciled with the loop's
        # uniform accounting (+1 clean / +0 fault on the machine side);
        # single-fragment loops reconstruct the count from ``_base``
        # (clean: _base/L full iterations + the breaking one - 1;
        # fault: _base/L — the same expression either way)
        fault_d = f"_base // {emitters[0].length}" if single_loop \
            else "_d"
        clean_d = fault_d if single_loop else "_d - 1"
        lines += ["    if _flt is not None:",
                  "        state.block_progress = "
                  "_base + state.block_progress",
                  "        VS.block_dispatches = "
                  f"VS.block_dispatches + {fault_d}",
                  "        raise _flt",
                  "    VS.block_dispatches = "
                  f"VS.block_dispatches + {clean_d}",
                  "    return _base + _n"]
        return "\n".join(lines) + "\n"
