"""The benchmark's workloads: which cells each one runs, and why.

A cell is one ``(benchmark, policy, size, cores)`` simulation, run in
a fresh interpreter exactly as ``python -m repro run`` would run it.
A workload is a list of passes over one result/checkpoint store; the
workload seed permutes the cell order within each pass, never the
cells themselves (the guest programs are fixed: each benchmark is
seeded by the crc32 of its name).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: the 26 SPEC CPU2000 analogues in the suite's own order
SPEC_ORDER = (
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk",
    "gap", "vortex", "bzip2", "twolf", "wupwise", "swim", "mgrid",
    "applu", "mesa", "galgel", "art", "equake", "facerec", "ammp",
    "lucas", "fma3d", "sixtrack", "apsi")
PARALLEL = ("pcq", "mtstencil", "lockcnt")


@dataclass(frozen=True)
class Cell:
    benchmark: str
    policy: str
    size: str
    cores: int = 1

    @property
    def ref_key(self) -> str:
        """Reference-table key; the config fingerprint is stored beside
        the entry so a mismatch can be reported instead of skipped."""
        return f"{self.benchmark}|{self.policy}|{self.size}|c{self.cores}"

    def full(self) -> "Cell":
        """The full-timing cell this cell's accuracy is judged against."""
        return Cell(self.benchmark, "full", self.size, self.cores)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Cell, ...]
    #: passes over one store; pass 2 onward re-executes with force=True
    passes: int = 1

    def schedule(self, seed: int) -> List[Tuple[int, Cell]]:
        """``(pass, cell)`` in run order: each pass is the cell list
        permuted by ``seed`` (independently per pass)."""
        rng = random.Random(f"{self.name}:{seed}")
        order: List[Tuple[int, Cell]] = []
        for pass_no in range(1, self.passes + 1):
            cells = list(self.cells)
            rng.shuffle(cells)
            order.extend((pass_no, cell) for cell in cells)
        return order


# Every other SPEC analogue keeps a sweep near 20 s on a 2-core host,
# so one run of each workload fits in 40 s.  Integer and
# floating-point analogues alternate in the suite order, so both kinds
# remain.
_TINY_SPEC = SPEC_ORDER[::2]

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "tiny-cold",
            "cold start dominates: imports, translation, sanitizer and "
            "compile() at tiny size, plus vm.smp on the three 2-core "
            "guests",
            tuple(Cell(bench, "CPU-300-1M-inf", "tiny")
                  for bench in _TINY_SPEC)
            + tuple(Cell(bench, "CPU-300-1M-inf", "tiny", cores=2)
                    for bench in PARALLEL)),
        Workload(
            "small-exec",
            "long event-mode runs dominate: fused and megablock tiers, "
            "timing model and functional warming; mcf chases pointers",
            tuple(Cell(bench, policy, "small")
                  for bench in ("swim", "mgrid", "mcf")
                  for policy in ("full", "smarts"))),
        Workload(
            "small-sampler-2pass",
            "sampler logic and the checkpoint store: pass 1 publishes "
            "ladders and profiles, pass 2 re-runs and restores them",
            tuple(Cell(bench, policy, "small")
                  for bench in ("mcf", "art")
                  for policy in ("simpoint-ckpt", "stratified")),
            passes=2),
    )
}


def reference_cells() -> List[Cell]:
    """Every cell the references must cover: each workload cell plus
    the full-timing cell its accuracy metrics compare against."""
    seen: Dict[str, Cell] = {}
    for workload in WORKLOADS.values():
        for cell in workload.cells:
            seen.setdefault(cell.ref_key, cell)
            seen.setdefault(cell.full().ref_key, cell.full())
    return sorted(seen.values(), key=lambda cell: cell.ref_key)
