"""The bench-suite protocol: one registry, one baseline gate.

Every perf suite behind ``python -m repro bench`` — ``hotpath``,
``megablock``, ``checkpoint`` and ``frontier`` — is one :class:`Suite`
entry in :data:`SUITES`.  An entry names its default size, its
committed baseline and the object that implements it; that object
provides

* ``run(sizes, benchmarks, repeats)`` — measure, returning the payload
  written to ``BENCH_<suite>.json``;
* ``format_table(payload)`` — the human-readable table;
* ``metrics(payload)`` — the payload as flat, named :class:`Metric`
  values, each declaring its direction and its gate rules.

:func:`compare` is the one baseline gate over those declarations; the
perf-trajectory history (:mod:`repro.harness.history`) records the
metrics flagged ``history`` and judges them by their direction.  Suite
implementations are imported on first use, so this module costs
``repro.harness`` nothing to import.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

#: the source checkout this package lives in: default baseline and
#: history paths resolve against it, not the working directory
REPO_ROOT = Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "benchmarks"

DEFAULT_TOLERANCE = 0.25


def geomean(values: Iterable[float]) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def load_baseline(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def write_baseline(payload: Dict, path: str) -> None:
    # repro: store-ok committed CI baseline, single writer, no lock
    with open(path, "w") as handle:
        # repro: store-ok same committed baseline file as above
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclasses.dataclass(frozen=True)
class Metric:
    """One flat, named number of a bench payload and how it is gated.

    ``better`` is the direction ("higher" or "lower").  The gate rules:

    * ``relative`` — may not move the wrong way by more than the run
      tolerance against the baseline's value of the same metric;
    * ``floor`` / ``ceiling`` — absolute limits on this payload alone;
      ``floor_tolerant`` lowers the floor by the run tolerance too;
    * ``drift`` — may not differ from the baseline's value by more
      than this absolute amount, in either direction.

    A baseline metric with ``relative`` or ``drift`` that the current
    payload lacks is reported once per ``group`` as missing.  A metric
    with a ``scope`` (a suite size) is gated only when both payloads
    carry that scope.  ``history`` metrics are recorded in the
    perf-trajectory history.
    """

    value: float
    label: str
    better: str = "higher"
    relative: bool = False
    floor: Optional[float] = None
    floor_tolerant: bool = False
    ceiling: Optional[float] = None
    drift: Optional[float] = None
    group: str = ""
    scope: str = ""
    history: bool = False
    fmt: str = ".2f"
    unit: str = "x"

    def show(self, value: float) -> str:
        return f"{value:{self.fmt}}{self.unit}"


def regressed(value: float, reference: float, tolerance: float,
              better: str) -> bool:
    """``value`` is worse than ``reference`` by more than ``tolerance``."""
    if better == "lower":
        return value > reference * (1.0 + tolerance)
    return value < reference * (1.0 - tolerance)


def _absolute_problems(metric: Metric, tolerance: float) -> List[str]:
    problems: List[str] = []
    value = metric.show(metric.value)
    if metric.floor is not None:
        slack = tolerance if metric.floor_tolerant else 0.0
        if metric.value < metric.floor * (1.0 - slack):
            problems.append(
                f"{metric.label} {value} < required "
                f"{metric.show(metric.floor)}"
                + (f" - {tolerance:.0%}" if metric.floor_tolerant else ""))
    if metric.ceiling is not None and metric.value > metric.ceiling:
        problems.append(f"{metric.label} {value} > allowed "
                        f"{metric.show(metric.ceiling)}")
    return problems


def _baseline_problems(metric: Metric, base: Metric,
                       tolerance: float) -> List[str]:
    problems: List[str] = []
    value, reference = metric.show(metric.value), base.show(base.value)
    if base.relative and regressed(metric.value, base.value, tolerance,
                                   base.better):
        lower = base.better == "lower"
        limit = base.value * (1.0 + tolerance if lower else 1.0 - tolerance)
        problems.append(
            f"{metric.label} {value} {'>' if lower else '<'} "
            f"{metric.show(limit)} (baseline {reference} "
            f"{'+' if lower else '-'} {tolerance:.0%})")
    if base.drift is not None \
            and abs(metric.value - base.value) > base.drift:
        problems.append(
            f"{metric.label} {value} drifted from baseline {reference} "
            f"by more than {base.show(base.drift)}")
    return problems


def compare(suite: str, current: Dict, baseline: Dict,
            tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Gate failures of ``current`` against ``baseline`` (empty = pass).

    Absolute rules judge the current payload's metrics; relative and
    drift rules judge each baseline metric against the current
    metric of the same name.  Returns human-readable problem strings.
    """
    impl = SUITES[suite].impl()
    now = impl.metrics(current)
    base = impl.metrics(baseline)
    shared = ({metric.scope for metric in now.values()}
              & {metric.scope for metric in base.values()})
    problems: List[str] = []
    missing: List[str] = []
    for metric in now.values():
        if metric.scope in shared:
            problems += _absolute_problems(metric, tolerance)
    for name, reference in base.items():
        if reference.scope not in shared or not (
                reference.relative or reference.drift is not None):
            continue
        metric = now.get(name)
        if metric is None:
            if reference.group not in missing:
                missing.append(reference.group)
                problems.append(f"{reference.group}: missing from run")
            continue
        problems += _baseline_problems(metric, reference, tolerance)
    return problems


@dataclasses.dataclass(frozen=True)
class Suite:
    """One registered bench suite."""

    name: str
    #: ``module:attribute`` (or just ``module``) implementing the suite
    target: str
    default_size: str
    #: whether one run may measure several sizes (``--size a,b``)
    multi_size: bool = False

    @property
    def baseline(self) -> str:
        return str(BENCH_DIR / f"BENCH_{self.name}.json")

    def impl(self) -> Any:
        module, _, attr = self.target.partition(":")
        loaded = importlib.import_module(module)
        return getattr(loaded, attr) if attr else loaded


SUITES: Dict[str, Suite] = {suite.name: suite for suite in (
    Suite("hotpath", "repro.harness.throughput:HOTPATH", "tiny",
          multi_size=True),
    Suite("checkpoint", "repro.harness.checkpointbench", "paper"),
    Suite("frontier", "repro.harness.frontier", "tiny"),
    Suite("megablock", "repro.harness.throughput:MEGABLOCK", "small",
          multi_size=True),
)}
