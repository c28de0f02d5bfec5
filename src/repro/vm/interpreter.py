"""Instruction-at-a-time interpreter for Z64.

This is the classic fetch-decode-execute loop used by interpreted
emulators (the slow end of the paper's Figure 1 taxonomy).  The machine
uses it for exact-length runs (sampling-interval tails) and the test
suite uses it as an independent reference implementation to co-simulate
against the binary translator.

``step_run`` executes one decoded superblock from ``state.pc``: each
instruction updates registers and the PC and optionally emits one event
to ``sink``; a :class:`~repro.mem.faults.GuestFault` leaves the PC at
the faulting instruction.
"""

from __future__ import annotations

from repro.isa import DecodeError, Op, OP_INFO, decode
from repro.mem.faults import (BreakpointTrap, GuestFault, IllegalInstruction,
                              PageFault, SyscallTrap)

from .code_cache import block_pages
from .semantics import (MASK64, f2i, fdiv, fmax2, fmin2, fsqrt, idiv, irem,
                        s64, sx8, sx16, sx32)

_CLS = {op: int(info.opclass) for op, info in OP_INFO.items()}

_TERMINATORS = frozenset((5, 6, 11))  # branch, jump, system

#: default superblock length cap.  The machine overrides it with its
#: translator's ``max_block`` so interpreter runs and translated blocks
#: share dispatch boundaries exactly — that makes per-run bookkeeping
#: (``block_dispatches``) bit-identical between the interpreter oracle
#: and the translated engines.
MAX_RUN = 256
#: run-cache size.  Host state only (decode is deterministic), sized so
#: large instruction footprints don't thrash the oracle's decode work.
RUN_CACHE_CAPACITY = 4096


def _u(index: int) -> int:
    """Integer register in the unified event namespace (-1 for r0)."""
    return -1 if index == 0 else index


class Interpreter:
    """Executes one instruction at a time against shared machine state."""

    def __init__(self, state, mmu, max_run: int = MAX_RUN):
        self.state = state
        self.mmu = mmu
        #: superblock length cap (the machine passes its translator's
        #: ``max_block`` so dispatch boundaries match exactly)
        self.max_run = max_run
        #: decoded-instruction cache; flushed when code pages change
        self._decoded = {}
        #: superblock cache: entry pc -> straight-line decoded run
        self._runs = {}
        #: virtual pages containing decoded instructions (SMC tracking)
        self._pages = set()
        #: bumped on every flush so in-flight batched runs notice
        #: self-modifying code and re-decode (SMC safety)
        self._gen = 0
        #: instructions retired by the last (possibly faulted) step_run
        self._progress = 0
        #: full length of the run the last step_run dispatched
        self._last_run_len = 0

    def flush_decode_cache(self) -> None:
        self._decoded.clear()
        self._runs.clear()
        self._pages.clear()
        self._gen += 1

    def notice_code_write(self, vpn: int) -> None:
        """A store hit code page ``vpn``: flush if we decoded from it.

        The machine calls this when a code-page write drops no
        translation — the write may still land on instructions only the
        interpreter has decoded, which the translation caches cannot
        know about.
        """
        if vpn in self._pages:
            self.flush_decode_cache()

    # ------------------------------------------------------------------
    # superblock dispatch

    def _decode_run(self, pc: int) -> list:
        """Decode the straight-line run starting at ``pc``.

        The run ends at the first control-flow/system instruction, at
        the mapped region's edge, at an undecodable word, or after
        :attr:`max_run` instructions — exactly the boundaries the
        translator uses for its superblocks, so a run never spans a
        control transfer and run dispatches line up one-to-one with
        translated-block dispatches.

        Every page the run spans is registered with the MMU so stores
        into it trigger self-modifying-code detection, mirroring what
        ``Machine`` does when it inserts a translated block.
        """
        run = []
        decoded = self._decoded
        mmu = self.mmu
        max_run = self.max_run
        current = pc
        while len(run) < max_run:
            instr = decoded.get(current)
            if instr is None:
                try:
                    word = mmu.fetch_word(current)
                except PageFault:
                    if run:
                        break  # faults when reached, not when decoded
                    raise
                try:
                    instr = decode(word)
                except DecodeError:
                    if run:
                        break
                    raise IllegalInstruction(current, word) from None
                decoded[current] = instr
            run.append(instr)
            if _CLS[instr.op] in _TERMINATORS:
                break
            current += 4
        self._register(pc, len(run))
        return run

    def _register(self, pc: int, length: int) -> None:
        """Register the pages of a decoded span for SMC detection."""
        pages = self._pages
        register = self.mmu.register_code_page
        for vpn in block_pages(pc, length):
            if vpn not in pages:
                pages.add(vpn)
                register(vpn)

    def step_run(self, sink=None, budget: int = 1 << 30) -> int:
        """Dispatch one superblock as a unit; returns instructions retired.

        Executes decoded instructions back-to-back, bumping
        ``state.icount`` per instruction so guest counter reads stay
        exact.  Stops at the run end, the ``budget``, a HALT, or a flush
        of the decode cache (self-modifying code mid-run).  On a guest
        fault the retired count is recoverable via
        :meth:`consume_progress` — the faulting instruction itself is
        *not* counted.
        """
        state = self.state
        pc = state.pc
        self._progress = 0  # before decode: decode faults retire nothing
        runs = self._runs
        run = runs.get(pc)
        if run is None:
            run = self._decode_run(pc)
            if len(runs) >= RUN_CACHE_CAPACITY:
                runs.clear()
            runs[pc] = run
        self._last_run_len = len(run)
        gen = self._gen
        execute = self._exec
        executed = 0
        try:
            for instr in run:
                if executed >= budget:
                    break
                execute(instr, state.pc, sink)
                executed += 1
                state.icount += 1
                self._progress = executed
                if state.halted or self._gen != gen:
                    break
        except GuestFault:
            self._progress = executed
            raise
        return executed

    def consume_progress(self) -> int:
        """Retired count of the last ``step_run`` (one-shot, for fault
        recovery paths in the machine)."""
        progress = self._progress
        self._progress = 0
        return progress

    def _exec(self, instr, pc: int, sink=None) -> None:
        """Execute one decoded instruction at ``pc``."""
        state = self.state
        mmu = self.mmu
        op = instr.op
        r = state.regs
        f = state.fregs
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        next_pc = pc + 4
        # event fields (defaults for plain ALU ops)
        dst, src1, src2 = _u(rd), _u(rs1), _u(rs2)
        addr = 0
        taken = 0
        target = 0  # only control flow reports a target

        if op == Op.ADD:
            value = (r[rs1] + r[rs2]) & MASK64
        elif op == Op.ADDI:
            value = (r[rs1] + imm) & MASK64
            src2 = -1
        elif op == Op.SUB:
            value = (r[rs1] - r[rs2]) & MASK64
        elif op == Op.MUL:
            value = (r[rs1] * r[rs2]) & MASK64
        elif op == Op.MULH:
            value = ((s64(r[rs1]) * s64(r[rs2])) >> 64) & MASK64
        elif op == Op.DIV:
            value = idiv(r[rs1], r[rs2])
        elif op == Op.REM:
            value = irem(r[rs1], r[rs2])
        elif op == Op.AND:
            value = r[rs1] & r[rs2]
        elif op == Op.OR:
            value = r[rs1] | r[rs2]
        elif op == Op.XOR:
            value = r[rs1] ^ r[rs2]
        elif op == Op.SLL:
            value = (r[rs1] << (r[rs2] & 63)) & MASK64
        elif op == Op.SRL:
            value = r[rs1] >> (r[rs2] & 63)
        elif op == Op.SRA:
            value = (s64(r[rs1]) >> (r[rs2] & 63)) & MASK64
        elif op == Op.SLT:
            value = 1 if s64(r[rs1]) < s64(r[rs2]) else 0
        elif op == Op.SLTU:
            value = 1 if r[rs1] < r[rs2] else 0
        elif op == Op.ANDI:
            value = r[rs1] & (imm & MASK64)
            src2 = -1
        elif op == Op.ORI:
            value = r[rs1] | (imm & MASK64)
            src2 = -1
        elif op == Op.XORI:
            value = r[rs1] ^ (imm & MASK64)
            src2 = -1
        elif op == Op.SLLI:
            value = (r[rs1] << (imm & 63)) & MASK64
            src2 = -1
        elif op == Op.SRLI:
            value = r[rs1] >> (imm & 63)
            src2 = -1
        elif op == Op.SRAI:
            value = (s64(r[rs1]) >> (imm & 63)) & MASK64
            src2 = -1
        elif op == Op.SLTI:
            value = 1 if s64(r[rs1]) < imm else 0
            src2 = -1
        elif op == Op.LDI:
            value = imm & MASK64
            src1 = src2 = -1
        elif op == Op.ORIS:
            value = ((r[rs1] << 16) | (imm & 0xFFFF)) & MASK64
            src2 = -1
        elif Op.LB <= op <= Op.FLD:  # loads
            addr = (r[rs1] + imm) & MASK64
            src2 = -1
            if op == Op.LB:
                value = sx8(mmu.read_u8(addr))
            elif op == Op.LBU:
                value = mmu.read_u8(addr)
            elif op == Op.LH:
                value = sx16(mmu.read_u16(addr))
            elif op == Op.LHU:
                value = mmu.read_u16(addr)
            elif op == Op.LW:
                value = sx32(mmu.read_u32(addr))
            elif op == Op.LWU:
                value = mmu.read_u32(addr)
            elif op == Op.LD:
                value = mmu.read_u64(addr)
            else:  # FLD
                f[rd] = mmu.read_f64(addr)
                value = None
                dst = 16 + rd
        elif Op.SB <= op <= Op.FSD:  # stores
            addr = (r[rs1] + imm) & MASK64
            dst = -1
            if op == Op.SB:
                mmu.write_u8(addr, r[rs2] & 0xFF)
            elif op == Op.SH:
                mmu.write_u16(addr, r[rs2] & 0xFFFF)
            elif op == Op.SW:
                mmu.write_u32(addr, r[rs2] & 0xFFFFFFFF)
            elif op == Op.SD:
                mmu.write_u64(addr, r[rs2])
            else:  # FSD
                mmu.write_f64(addr, f[rs2])
                src2 = 16 + rs2
            value = None
        elif Op.BEQ <= op <= Op.BGEU:
            dst = -1
            if op == Op.BEQ:
                taken = 1 if r[rs1] == r[rs2] else 0
            elif op == Op.BNE:
                taken = 1 if r[rs1] != r[rs2] else 0
            elif op == Op.BLT:
                taken = 1 if s64(r[rs1]) < s64(r[rs2]) else 0
            elif op == Op.BGE:
                taken = 1 if s64(r[rs1]) >= s64(r[rs2]) else 0
            elif op == Op.BLTU:
                taken = 1 if r[rs1] < r[rs2] else 0
            else:  # BGEU
                taken = 1 if r[rs1] >= r[rs2] else 0
            if taken:
                next_pc = (pc + imm * 4) & MASK64
            target = next_pc
            value = None
        elif op == Op.JAL:
            value = (pc + 4) & MASK64
            next_pc = (pc + imm * 4) & MASK64
            src1 = src2 = -1
            taken = 1
            target = next_pc
        elif op == Op.JALR:
            value = (pc + 4) & MASK64
            next_pc = (r[rs1] + imm) & MASK64 & ~3
            src2 = -1
            taken = 1
            target = next_pc
        elif op == Op.FADD:
            f[rd] = f[rs1] + f[rs2]
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FSUB:
            f[rd] = f[rs1] - f[rs2]
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FMUL:
            f[rd] = f[rs1] * f[rs2]
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FDIV:
            f[rd] = fdiv(f[rs1], f[rs2])
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FSQRT:
            f[rd] = fsqrt(f[rs1])
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, -1
        elif op == Op.FMIN:
            f[rd] = fmin2(f[rs1], f[rs2])
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FMAX:
            f[rd] = fmax2(f[rs1], f[rs2])
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, 16 + rs2
        elif op == Op.FNEG:
            f[rd] = -f[rs1]
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, -1
        elif op == Op.FABS:
            f[rd] = abs(f[rs1])
            value = None
            dst, src1, src2 = 16 + rd, 16 + rs1, -1
        elif op == Op.FEQ:
            value = 1 if f[rs1] == f[rs2] else 0
            src1, src2 = 16 + rs1, 16 + rs2
        elif op == Op.FLT:
            value = 1 if f[rs1] < f[rs2] else 0
            src1, src2 = 16 + rs1, 16 + rs2
        elif op == Op.FLE:
            value = 1 if f[rs1] <= f[rs2] else 0
            src1, src2 = 16 + rs1, 16 + rs2
        elif op == Op.FCVTIF:
            f[rd] = float(s64(r[rs1]))
            value = None
            dst, src2 = 16 + rd, -1
        elif op == Op.FCVTFI:
            value = f2i(f[rs1])
            src1, src2 = 16 + rs1, -1
        elif op == Op.ECALL:
            if sink is not None:
                sink.on_inst(pc, _CLS[op], -1, -1, -1, 0, 0, next_pc)
            raise SyscallTrap(pc)
        elif op == Op.EBREAK:
            if sink is not None:
                sink.on_inst(pc, _CLS[op], -1, -1, -1, 0, 0, next_pc)
            raise BreakpointTrap(pc)
        elif op == Op.HALT:
            state.halted = True
            next_pc = pc
            target = pc
            value = None
            dst = src1 = src2 = -1
        elif op == Op.RDCYCLE:
            value = state.cycles & MASK64
            src1 = src2 = -1
        elif op == Op.RDINSTR:
            value = state.icount & MASK64
            src1 = src2 = -1
        else:  # pragma: no cover - every opcode is handled above
            raise IllegalInstruction(pc)

        if value is not None and rd != 0:
            r[rd] = value
        state.pc = next_pc
        if sink is not None:
            sink.on_inst(pc, _CLS[op], dst, src1, src2, addr, taken, target)
