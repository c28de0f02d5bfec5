"""Full-system bring-up: machine + devices + kernel + program.

:func:`boot` is the one-call way to get a runnable guest:

    >>> from repro.isa import assemble
    >>> from repro.kernel import boot
    >>> system = boot(assemble("li t0, 2\\nli t1, 3\\nadd t2, t0, t1\\nhalt"))
    >>> system.run_to_completion()
    4
    >>> system.machine.state.regs[3]
    5
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.devices import (BlockDevice, Bus, ConsoleDevice, NicDevice,
                           TimerDevice)
from repro.isa import Program
from repro.mem import PAGE_SHIFT, PROT_DEVICE, PROT_RW
from repro.vm.machine import Machine
from repro.vm.smp import DEFAULT_QUANTUM, SmpMachine

from .loader import load_program
from .syscalls import Kernel

#: MMIO window bases (one page each)
CONSOLE_BASE = 0xF000_0000
BLOCK_BASE = 0xF000_1000
TIMER_BASE = 0xF000_2000
NIC_BASE = 0xF000_3000


@dataclass
class System:
    """A booted guest system with convenient device handles.

    ``machine`` is a plain :class:`Machine` or, on a multi-core boot,
    an :class:`~repro.vm.smp.SmpMachine` (its harts are
    ``machine.cores``).
    """

    machine: Union[Machine, SmpMachine]
    kernel: Kernel
    console: ConsoleDevice
    disk: BlockDevice
    timer: TimerDevice
    nic: NicDevice

    def run(self, max_instructions: int, **kwargs) -> int:
        return self.machine.run(max_instructions, **kwargs)

    def run_to_completion(self, **kwargs) -> int:
        return self.machine.run_to_completion(**kwargs)

    @property
    def output(self) -> str:
        return self.console.output_text()

    @property
    def exit_code(self) -> int:
        return self.machine.state.exit_code


def boot(program: Optional[Program] = None,
         phys_size: int = 64 * 1024 * 1024,
         code_cache_capacity: int = 512,
         code_cache_policy: str = "fifo",
         tlb_capacity: int = 256,
         nic_peer=None,
         n_cores: Optional[int] = None,
         smp_quantum: int = DEFAULT_QUANTUM) -> System:
    """Create a machine with the standard device set and load a program.

    ``n_cores`` boots an :class:`~repro.vm.smp.SmpMachine` of that many
    harts (interleaved in ``smp_quantum``-instruction turns); the
    default boots the plain one-hart :class:`Machine`.  Devices are
    mapped once in the (shared) page table and reachable from every
    hart; the timer interrupt targets hart 0, the conventional boot
    hart.  See :func:`~repro.kernel.loader.load_program` for the
    per-hart entry convention.
    """
    if n_cores is None:
        machine = Machine(phys_size=phys_size,
                          code_cache_capacity=code_cache_capacity,
                          code_cache_policy=code_cache_policy,
                          tlb_capacity=tlb_capacity)
        boot_hart = machine
    else:
        machine = SmpMachine(n_cores=n_cores, phys_size=phys_size,
                             code_cache_capacity=code_cache_capacity,
                             code_cache_policy=code_cache_policy,
                             tlb_capacity=tlb_capacity,
                             quantum=smp_quantum)
        boot_hart = machine.cores[0]
    bus = Bus(stats=boot_hart.stats)
    machine.attach_bus(bus)

    console = ConsoleDevice()
    disk = BlockDevice()
    timer = TimerDevice(boot_hart)
    nic = NicDevice(peer=nic_peer)
    for device, base in ((console, CONSOLE_BASE), (disk, BLOCK_BASE),
                         (timer, TIMER_BASE), (nic, NIC_BASE)):
        bus.attach(device, base)
        machine.page_table.map(base >> PAGE_SHIFT, 0,
                               PROT_RW | PROT_DEVICE)

    kernel = Kernel(console=console, disk=disk, nic=nic, timer=timer)
    machine.kernel = kernel
    if program is not None:
        load_program(machine, kernel, program)
    return System(machine=machine, kernel=kernel, console=console,
                  disk=disk, timer=timer, nic=nic)
