"""Workload construction DSL.

A :class:`WorkloadBuilder` composes kernel phases into a complete guest
program.  Phases are page-aligned (each phase's code starts on a fresh
page, so entering a new phase brings new code into the translation
cache — the CPU signal) and each phase maps its own working set (fresh
pages — the EXC signal).  I/O kernels between compute phases provide
the I/O signal.  The result is a :class:`Workload`: a named, assembled,
bootable program with per-phase metadata.

Example::

    builder = WorkloadBuilder("demo", seed=7)
    builder.phase("stream", n=2048, iters=20)
    builder.phase("console_io", nbytes=64)
    builder.phase("branchy", iters=30000)
    workload = builder.build()
    system = workload.boot()
    system.run_to_completion()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa import Program, assemble
from repro.kernel import System, boot

from .kernels import KERNELS, SLOTTED_KERNELS

#: default load address for workload programs
PROGRAM_BASE = 0x10000


@dataclass
class PhaseInfo:
    """Metadata for one phase of a built workload."""

    index: int
    kernel: str
    params: Dict
    estimated_instructions: int


@dataclass
class Workload:
    """A named, bootable guest program with phase metadata."""

    name: str
    program: Program
    phases: List[PhaseInfo] = field(default_factory=list)
    seed: int = 0
    #: reference input label (Table 2 column 2)
    ref_input: str = ""
    #: multi-threaded workload: every hart runs the program, dispatching
    #: on its core id (gp); booting one defaults to :attr:`n_cores`
    parallel: bool = False
    #: default hart count for parallel workloads (1 for sequential)
    n_cores: int = 1

    @property
    def estimated_instructions(self) -> int:
        return sum(phase.estimated_instructions for phase in self.phases)

    def smp_cores(self, n_cores: int = 0) -> int:
        """Hart count of this workload's SMP boot, 0 for a plain one.

        An explicit ``n_cores > 1`` or a parallel workload (at its own
        :attr:`n_cores` unless one is given) boots an
        :class:`~repro.vm.smp.SmpMachine`; everything else boots the
        plain one-hart :class:`~repro.vm.machine.Machine`.
        """
        if self.parallel:
            return n_cores or max(1, self.n_cores)
        return n_cores if n_cores > 1 else 0

    def boot(self, **kwargs) -> System:
        """Boot a fresh system running this workload (deterministic).

        ``n_cores`` in ``kwargs`` picks the machine through
        :meth:`smp_cores`.
        """
        n_cores = self.smp_cores(int(kwargs.pop("n_cores", 0) or 0))
        return boot(self.program, n_cores=n_cores or None, **kwargs)

    def run_fast(self, **kwargs) -> int:
        """Convenience: run to completion in fast mode, return icount."""
        system = self.boot(**kwargs)
        system.run_to_completion()
        return system.machine.state.icount


class WorkloadBuilder:
    """Compose kernel phases into a workload program."""

    def __init__(self, name: str, seed: int = 0):
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self._phases: List[PhaseInfo] = []
        self._sections: List[str] = []
        self._uid = 0
        self._slots: Dict[str, int] = {}
        self.ref_input = ""
        self.parallel = False
        self.n_cores = 1

    def _next_uid(self) -> str:
        self._uid += 1
        return f"ph{self._uid}"

    def slot_for(self, key: str) -> int:
        """Allocate (or look up) the working-set slot for ``key``."""
        if key not in self._slots:
            self._slots[key] = len(self._slots)
        return self._slots[key]

    def phase(self, kernel: str, *, code_copies: int = 1,
              reuse_key: Optional[str] = None,
              **params) -> "WorkloadBuilder":
        """Append one kernel phase.

        ``code_copies`` replicates the kernel body (with iteration counts
        divided accordingly) to inflate the phase's *code* footprint —
        benchmarks like `gcc` churn through much more code than a single
        tight loop, which matters for the translation-cache signal.

        ``reuse_key`` (memory kernels only) makes phases with the same
        key share one long-lived working set: the first initialises it,
        later ones run pure steady-state (see
        :mod:`repro.workloads.kernels`).
        """
        if kernel not in KERNELS:
            raise KeyError(f"unknown kernel {kernel!r}; "
                           f"available: {sorted(KERNELS)}")
        if reuse_key is not None and kernel in SLOTTED_KERNELS:
            params["slot"] = self.slot_for(reuse_key)
        emitter = KERNELS[kernel]
        copies = max(1, code_copies)
        divisible = _scalable_param(kernel)
        total_estimate = 0
        texts = []
        for copy in range(copies):
            copy_params = dict(params)
            if copies > 1 and divisible and divisible in copy_params:
                share = copy_params[divisible] // copies
                copy_params[divisible] = max(1, share)
            asm, estimate = emitter(uid=self._next_uid(), **copy_params)
            texts.append(asm)
            total_estimate += estimate
        self._sections.append("\n".join(texts))
        self._phases.append(PhaseInfo(
            index=len(self._phases), kernel=kernel, params=dict(params),
            estimated_instructions=total_estimate))
        return self

    def raw(self, asm: str, estimate: int = 0,
            label: str = "raw") -> "WorkloadBuilder":
        """Append hand-written assembly as a phase."""
        self._sections.append(asm)
        self._phases.append(PhaseInfo(
            index=len(self._phases), kernel=label, params={},
            estimated_instructions=estimate))
        return self

    def build(self, base: int = PROGRAM_BASE) -> Workload:
        """Assemble the composed phases into a bootable workload.

        Each phase's code is placed on a fresh page (entering a phase
        pulls new code into the translation cache); explicit jumps skip
        the alignment padding between phases.
        """
        if not self._sections:
            raise ValueError("workload has no phases")
        parts = ["_start:"]
        for index, section in enumerate(self._sections):
            parts.append(f"    j sec{index}")
            parts.append("    .align 4096")
            parts.append(f"sec{index}:")
            parts.append(section)
        parts.append(_EPILOGUE)
        program = assemble("\n".join(parts), base=base)
        return Workload(name=self.name, program=program,
                        phases=list(self._phases), seed=self.seed,
                        ref_input=self.ref_input,
                        parallel=self.parallel, n_cores=self.n_cores)


_EPILOGUE = """
    li t7, 0
    li t0, 0
    ecall
"""


def _scalable_param(kernel: str) -> Optional[str]:
    """The parameter that scales total work for each kernel."""
    return {
        "stream": "iters",
        "stencil": "iters",
        "matmul": "reps",
        "pointer_chase": "steps",
        "gather": "iters",
        "branchy": "iters",
        "crc": "iters",
        "string_scan": "iters",
        "calls": "reps",
        "sort": "reps",
        "console_io": "reps",
        "disk_io": "reps",
        "net_io": "reps",
    }.get(kernel)
