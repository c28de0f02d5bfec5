"""Static analysis of one superblock.

The out-of-order timing recurrence is loop-carried — every stage cycle
depends on the previous instruction's — so only what is *static* about
a block can be computed ahead of time: fetch-line boundaries, i-side
cache/TLB set indices and tags, operation latencies and
functional-unit occupancies are computed here once per translation and
folded into the generated fast-path code as constants
(:mod:`repro.timing.codegen`).

The fields follow the unified event-field convention of
:func:`repro.vm.translator.event_fields` so the plan is guaranteed to
describe each instruction exactly as the slow-path oracle sees it.
"""

from __future__ import annotations

from typing import List

from repro.vm.translator import event_fields

from .config import TimingConfig

__all__ = ["BlockPlan", "plan_block"]


class BlockPlan:
    """Static per-instruction facts for one translated superblock.

    All fields are plain Python lists: they are consumed by the code
    generator as source-code constants, not at execution time.
    """

    __slots__ = ("length", "pcs", "cls", "dst", "src1", "src2",
                 "newline", "lines", "lat", "occ")

    length: int
    pcs: List[int]
    cls: List[int]
    dst: List[int]
    src1: List[int]
    src2: List[int]
    #: True where the instruction starts a new i-cache line relative to
    #: the previous instruction (index 0 is always True: the entry line
    #: is only known at run time and gets a runtime check).
    newline: List[bool]
    lines: List[int]
    lat: List[int]
    occ: List[int]


def plan_block(pc0: int, instrs, config: TimingConfig) -> BlockPlan:
    """Analyse a decoded block; returns the static facts per instruction."""
    fields = [event_fields(instr) for instr in instrs]
    line_shift = config.l1i.line_size.bit_length() - 1
    latencies = {int(opclass): int(latency)
                 for opclass, latency in config.latencies.items()}
    unpipelined = {int(opclass) for opclass in config.unpipelined}

    plan = BlockPlan()
    plan.length = len(fields)
    plan.pcs = [pc0 + 4 * index for index in range(len(fields))]
    plan.lines = [pc >> line_shift for pc in plan.pcs]
    plan.newline = [True] + [
        line != previous
        for previous, line in zip(plan.lines, plan.lines[1:], strict=False)]
    plan.cls = [field[0] for field in fields]
    plan.dst = [field[1] for field in fields]
    plan.src1 = [field[2] for field in fields]
    plan.src2 = [field[3] for field in fields]
    plan.lat = [latencies.get(cls, 0) for cls in plan.cls]
    plan.occ = [latency if cls in unpipelined else 1
                for cls, latency in zip(plan.cls, plan.lat, strict=True)]
    return plan
