"""Corpus-wide symbolic codegen verification (``repro verify-codegen``).

Runs the megablock benchmark corpus with the translator's capture seam
open, collects every block, superblock, and megablock source generated
along the way, and symbolically proves each one equivalent to the ISA
semantics of the instructions it claims to implement (see
:mod:`repro.analysis.symexec`).

Coverage strategy per benchmark:

* ``run_fast`` exercises the fast-tier superblocks,
* ``run_warming`` exercises event blocks, fused-warm blocks, and the
  megablock chains the warming sink promotes,
* ``run_timed`` exercises fused-timed blocks and their chains.

The process-wide compiled-code cache is cleared before each benchmark so
every distinct source reaches the capture seam (capture fires only on
cache misses).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import symexec
from repro.analysis.symstate import ExitDiff

__all__ = [
    "CORPUS_WINDOWS",
    "Finding",
    "VerifyReport",
    "run_corpus",
]

#: (warm, measure) instruction windows per corpus size — the same
#: windows the megablock throughput harness uses, scaled so the tiny
#: corpus stays CI-friendly while still promoting chains.
CORPUS_WINDOWS: Dict[str, Tuple[int, int]] = {
    "tiny": (6_000, 14_000),
    "small": (150_000, 350_000),
}

#: Every tier the verifier can prove, in report order.
TIER_ORDER: Tuple[str, ...] = (
    "fast", "event", "fused-timed", "fused-warm", "mega-inline",
)


@dataclass
class Finding:
    """One semantic divergence between generated code and the ISA."""

    bench: str
    tier: str
    label: str
    messages: List[str]
    source: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": self.bench,
            "tier": self.tier,
            "label": self.label,
            "messages": self.messages,
            "source": self.source,
        }


@dataclass
class VerifyReport:
    """Aggregate result of one corpus sweep."""

    corpus: str
    benchmarks: List[str]
    verified: Dict[str, int] = field(
        default_factory=lambda: {tier: 0 for tier in TIER_ORDER})
    findings: List[Finding] = field(default_factory=list)
    duplicates: int = 0

    @property
    def total(self) -> int:
        return sum(self.verified.values())

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "corpus": self.corpus,
            "benchmarks": self.benchmarks,
            "verified": dict(self.verified),
            "total": self.total,
            "duplicates_skipped": self.duplicates,
            "findings": [finding.to_dict() for finding in self.findings],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        lines = [f"symbolic codegen verification — corpus={self.corpus}"]
        lines.append(f"  benchmarks: {', '.join(self.benchmarks)}")
        for tier in TIER_ORDER:
            lines.append(f"  {tier:<14} {self.verified[tier]:>5} verified")
        lines.append(f"  {'total':<14} {self.total:>5} "
                     f"({self.duplicates} duplicate sources skipped)")
        if self.ok:
            lines.append("  result: all generated code proven equivalent "
                         "to the ISA semantics")
        else:
            lines.append(f"  result: {len(self.findings)} semantic "
                         f"divergence(s) found")
            for finding in self.findings:
                lines.append(f"  FAIL {finding.bench} {finding.label}")
                for message in finding.messages:
                    for row in message.splitlines():
                        lines.append("    " + row)
        return "\n".join(lines)


def _capture_benchmark(bench: str, size: str,
                       warm: int, measure: int) -> List[symexec.Captured]:
    """Run one benchmark across all execution modes, capturing every
    source that reaches the translator / chain-linker seam."""
    from repro.sampling.controller import SimulationController
    from repro.timing import TimingConfig
    from repro.vm import translator as translator_module
    from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

    config = dataclasses.replace(TimingConfig.small(), fast_path=True)
    with symexec.capture() as captured:
        # Capture fires only on compiled-code cache misses; start every
        # benchmark from a cold cache so repeat sources still surface.
        translator_module._CODE_CACHE.clear()
        controller = SimulationController(
            load_benchmark(bench, size=size),
            timing_config=config,
            machine_kwargs=SUITE_MACHINE_KWARGS)
        controller.run_fast(warm)
        controller.run_warming(measure // 2)
        controller.run_timed(max(1, measure - measure // 2))
    return captured


def run_corpus(corpus: str = "tiny",
               benchmarks: Optional[List[str]] = None,
               progress: Optional[Callable[[str], None]] = None,
               ) -> VerifyReport:
    """Verify every block/superblock/megablock the corpus generates."""
    from repro.harness.throughput import MEGABLOCK_BENCHES

    if corpus not in CORPUS_WINDOWS:
        raise ValueError(f"unknown corpus {corpus!r}; "
                         f"expected one of {sorted(CORPUS_WINDOWS)}")
    warm, measure = CORPUS_WINDOWS[corpus]
    benches = list(benchmarks or MEGABLOCK_BENCHES)
    report = VerifyReport(corpus=corpus, benchmarks=benches)
    seen: set = set()
    for bench in benches:
        if progress is not None:
            progress(f"verify-codegen: running {bench} ({corpus})")
        for item in _capture_benchmark(bench, corpus, warm, measure):
            key = (item.tier, item.source)
            if key in seen:
                report.duplicates += 1
                continue
            seen.add(key)
            diffs: List[ExitDiff] = item.verify()
            report.verified[item.tier] += 1
            if diffs:
                report.findings.append(Finding(
                    bench=bench, tier=item.tier, label=item.label,
                    messages=[diff.format() for diff in diffs],
                    source=item.source))
        if progress is not None:
            progress(f"verify-codegen: {bench} done — "
                     f"{report.total} verified, "
                     f"{len(report.findings)} diff(s)")
    return report
