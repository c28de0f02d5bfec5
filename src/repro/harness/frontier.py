"""Accuracy-vs-cost frontier over the whole sampling-policy zoo.

The paper's Figure 5 plots its own named points; this module
generalizes it into a *frontier harness*: every policy family — the
paper's three baselines, its Dynamic Sampling points, and the
statistical successors (two-phase stratified at several budgets,
ranked-set at several cycle counts, MAV-augmented SimPoint) — is swept
over the same suite and placed on one accuracy-error vs speedup plane,
with the Pareto-efficient set marked.

Unlike the wall-clock perf gates, every number here is **modeled**:
accuracy error against the full-timing reference, and cost from the
paper's per-mode MIPS cost model over exact instruction counts.  The
payload is therefore bit-deterministic for a given tree, which is what
lets CI gate it tightly against the committed
``benchmarks/BENCH_frontier.json`` baseline: a policy drifting off its
committed accuracy or cost point is a behaviour change, not noise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.analysis import ascii_scatter, pareto_frontier
from repro.sampling import accuracy_error

from .bench import Metric
from .experiments import fetch_results, modeled_seconds_for

SCHEMA_VERSION = 1

DEFAULT_SIZE = "tiny"
#: the sequential tiny-suite members CI sweeps (fast but diverse:
#: integer compression, pointer chasing, dense FP, neural simulation)
DEFAULT_BENCHMARKS = ("gzip", "mcf", "swim", "art")

#: the frontier sweep: paper baselines + named Dynamic Sampling points
#: + the statistical zoo at several budget settings
FRONTIER_POLICIES = (
    "smarts",
    "simpoint",
    "simpoint+prof",
    "simpoint-mav",
    "CPU-300-1M-inf",
    "EXC-300-1M-10",
    "stratified-6",
    "stratified-12",
    "stratified-24",
    "rankedset-3",
    "rankedset-6",
)

#: absolute gates: the sweep must keep covering the zoo, and accuracy
#: may not silently drift
MIN_POLICIES = 6
#: allowed absolute drift of a policy's mean error vs the committed
#: baseline, in percentage points
MAX_ERROR_DRIFT_PP = 1.0


def sweep_policies(policies: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   size: str = DEFAULT_SIZE) -> Dict[str, Dict]:
    """Per-policy frontier numbers: mean error, suite speedup, cost.

    One grid fetch through the experiment engine (parallel with
    ``REPRO_JOBS``); the full-timing reference is fetched alongside.
    """
    policies = list(policies or FRONTIER_POLICIES)
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    wanted = list(dict.fromkeys(policies + ["full"]))
    grid = fetch_results(wanted, benchmarks, size=size)
    full = {name: grid[(name, "full")] for name in benchmarks}
    full_seconds = sum(result.modeled_seconds for result in full.values())
    numbers: Dict[str, Dict] = {}
    for policy in policies:
        results = {name: grid[(name, policy)] for name in benchmarks}
        errors = {name: accuracy_error(results[name].ipc, full[name].ipc)
                  for name in benchmarks}
        seconds = sum(modeled_seconds_for(policy, results[name])
                      for name in benchmarks)
        entry = {
            "error": sum(errors.values()) / len(errors),
            "speedup": (full_seconds / seconds if seconds > 0
                        else math.inf),
            "seconds": seconds,
            "timed_intervals": sum(result.timed_intervals
                                   for result in results.values()),
            "per_benchmark": {name: {
                "ipc": results[name].ipc,
                "error": errors[name],
                "seconds": modeled_seconds_for(policy, results[name]),
            } for name in benchmarks},
        }
        ci_bounds = [results[name].extra.get("ipc_ci_relative")
                     for name in benchmarks]
        ci_bounds = [bound for bound in ci_bounds
                     if isinstance(bound, (int, float))]
        if ci_bounds:
            # ranked-set policies report a per-benchmark confidence
            # interval; surface the worst relative half-width
            entry["ci_relative_max"] = max(ci_bounds)
        numbers[policy] = entry
    return numbers


def run(sizes: Sequence[str], benchmarks: Optional[List[str]] = None,
        repeats: Optional[int] = None) -> Dict:
    """The full payload written to ``BENCH_frontier.json``.

    Every number is modeled, so ``repeats`` is unused.
    """
    (size,) = sizes
    policies = list(FRONTIER_POLICIES)
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    numbers = sweep_policies(policies, benchmarks, size=size)
    points = [(policy, numbers[policy]["error"] * 100,
               numbers[policy]["speedup"]) for policy in policies]
    frontier = [label for label, _, _ in pareto_frontier(points)]
    finite_errors = [numbers[p]["error"] for p in policies
                     if math.isfinite(numbers[p]["error"])]
    summary = {
        "num_policies": len(policies),
        "num_frontier": len(frontier),
        "best_error": min(finite_errors) if finite_errors else math.inf,
        "best_speedup": max(numbers[p]["speedup"] for p in policies),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "size": size,
        "benchmarks": benchmarks,
        "policies": {policy: numbers[policy] for policy in policies},
        "frontier": frontier,
        "summary": summary,
    }


def metrics(payload: Dict) -> Dict[str, Metric]:
    """The gated and recorded numbers of one payload.

    * **absolute** — the sweep still covers at least ``MIN_POLICIES``
      policies;
    * **relative** — every baseline policy must still be present, its
      suite speedup may not fall more than the tolerance below the
      committed value, and its mean accuracy error may not drift more
      than ``MAX_ERROR_DRIFT_PP`` percentage points in either
      direction.  Both quantities are modeled (deterministic), so
      failures are behaviour changes, never host noise.

    Each policy's speedup is recorded in the perf-trajectory history;
    its error is gated by the drift rule only.
    """
    policies = payload.get("policies", {})
    metrics = {"num_policies": Metric(
        payload.get("summary", {}).get("num_policies", len(policies)),
        "frontier sweep covers", floor=MIN_POLICIES, fmt="d",
        unit=" policies")}
    for policy in sorted(policies):
        cell = policies[policy]
        if "speedup" in cell:
            metrics[f"{policy}.speedup"] = Metric(
                cell["speedup"], f"{policy}: speedup", relative=True,
                group=policy, history=True, fmt=".1f")
        metrics[f"{policy}.error"] = Metric(
            cell.get("error", 0.0) * 100, f"{policy}: mean error",
            better="lower", drift=MAX_ERROR_DRIFT_PP, group=policy,
            unit="%")
    return metrics


def format_table(payload: Dict) -> str:
    """Human-readable Pareto table for one payload."""
    from repro.analysis import format_table as render
    frontier = set(payload.get("frontier", ()))
    rows = []
    for policy, cell in payload["policies"].items():
        ci = cell.get("ci_relative_max")
        rows.append((
            policy,
            f"{cell['error'] * 100:.2f}",
            f"{cell['speedup']:.1f}",
            f"{cell['seconds']:.3f}",
            cell.get("timed_intervals", 0),
            f"+-{ci * 100:.1f}%" if ci is not None else "-",
            "*" if policy in frontier else "",
        ))
    summary = payload["summary"]
    table = render(
        ("policy", "error %", "speedup x", "modeled s",
         "timed ivals", "95% CI", "pareto"),
        rows,
        title=(f"Accuracy-vs-cost frontier "
               f"({len(payload['benchmarks'])} benchmarks, "
               f"size={payload['size']})"))
    return (f"{table}"
            f"\n{summary['num_policies']} policies, "
            f"{summary['num_frontier']} on the Pareto frontier; "
            f"best error {summary['best_error'] * 100:.2f}%, "
            f"best speedup {summary['best_speedup']:.1f}x "
            f"(gate: >= {MIN_POLICIES} policies)")


def build_frontier(size: str = DEFAULT_SIZE,
                   benchmarks: Optional[Sequence[str]] = None
                   ):
    """``python -m repro figure frontier``: table + scatter + data."""
    payload = run([size], list(benchmarks or DEFAULT_BENCHMARKS))
    points = [(policy, cell["error"] * 100, cell["speedup"])
              for policy, cell in payload["policies"].items()]
    text = format_table(payload) + "\n\n" + ascii_scatter(points) + "\n"
    return text, payload
