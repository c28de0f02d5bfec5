"""Tests for the accuracy-vs-cost frontier harness and its CI gate."""

import json
import os

import pytest

from repro.harness import bench, frontier
from repro.harness.frontier import (FRONTIER_POLICIES, MIN_POLICIES,
                                    format_table)

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "BENCH_frontier.json")


def compare_to_baseline(current, baseline, tolerance=0.25):
    return bench.compare("frontier", current, baseline, tolerance)


def payload(policies):
    cells = {name: dict(cell) for name, cell in policies.items()}
    return {
        "schema_version": frontier.SCHEMA_VERSION,
        "size": "tiny",
        "benchmarks": ["gzip"],
        "policies": cells,
        "frontier": [],
        "summary": {"num_policies": len(cells), "num_frontier": 0,
                    "best_error": 0.0, "best_speedup": 1.0},
    }


def zoo(**overrides):
    cells = {f"policy-{i}": {"error": 0.05, "speedup": 4.0,
                             "seconds": 0.25}
             for i in range(MIN_POLICIES)}
    cells.update(overrides)
    return payload(cells)


# ----------------------------------------------------------------------
# gate logic

def test_gate_passes_on_identical_payloads():
    current = zoo()
    assert compare_to_baseline(current, zoo()) == []


def test_gate_fails_below_policy_floor():
    cells = {"only": {"error": 0.1, "speedup": 2.0}}
    problems = compare_to_baseline(payload(cells), payload(cells))
    assert any("policies < required" in problem for problem in problems)


def test_gate_fails_on_missing_policy():
    base = zoo(extra={"error": 0.1, "speedup": 2.0})
    problems = compare_to_baseline(zoo(), base)
    assert any("extra: missing" in problem for problem in problems)


def test_gate_fails_on_speedup_regression():
    base = zoo()
    current = zoo()
    current["policies"]["policy-0"]["speedup"] = 4.0 * 0.5
    problems = compare_to_baseline(current, base, tolerance=0.25)
    assert any("policy-0: speedup" in problem for problem in problems)


def test_gate_tolerates_speedup_within_tolerance():
    current = zoo()
    current["policies"]["policy-0"]["speedup"] = 4.0 * 0.8
    assert compare_to_baseline(current, zoo(), tolerance=0.25) == []


def test_gate_fails_on_error_drift_both_directions():
    for drifted in (0.05 + 0.02, 0.05 - 0.02):
        current = zoo()
        current["policies"]["policy-0"]["error"] = drifted
        problems = compare_to_baseline(current, zoo())
        assert any("policy-0: mean error" in problem
                   for problem in problems), drifted


def test_gate_tolerates_small_error_drift():
    current = zoo()
    current["policies"]["policy-0"]["error"] = 0.05 + 0.005
    assert compare_to_baseline(current, zoo()) == []


# ----------------------------------------------------------------------
# committed baseline

def test_committed_baseline_is_valid_and_self_consistent():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    assert baseline["schema_version"] == frontier.SCHEMA_VERSION
    assert len(baseline["policies"]) >= MIN_POLICIES
    # the committed sweep is exactly the advertised policy zoo
    assert set(baseline["policies"]) == set(FRONTIER_POLICIES)
    # every frontier member is a swept policy
    assert set(baseline["frontier"]) <= set(baseline["policies"])
    for cell in baseline["policies"].values():
        assert cell["speedup"] > 0
        assert 0 <= cell["error"] < 1  # mean IPC error stays sane


def test_committed_baseline_covers_every_policy_family():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    families = {"smarts", "simpoint", "simpoint-mav", "stratified-12",
                "rankedset-3", "CPU-300-1M-inf"}
    assert families <= set(baseline["policies"])


# ----------------------------------------------------------------------
# rendering

def test_format_table_marks_frontier_and_counts():
    data = zoo()
    data["frontier"] = ["policy-0"]
    data["policies"]["policy-1"]["ci_relative_max"] = 0.173
    text = format_table(data)
    assert "policy-0" in text
    assert "*" in text
    assert "+-17.3%" in text
    assert f">= {MIN_POLICIES} policies" in text


def test_min_policies_matches_issue_contract():
    assert MIN_POLICIES == 6
    assert len(FRONTIER_POLICIES) >= MIN_POLICIES


def test_frontier_policies_all_resolve():
    from repro.harness import policy_factory
    for key in FRONTIER_POLICIES:
        policy_factory(key)  # raises KeyError on an unknown key


def test_unknown_parameterized_keys_rejected():
    from repro.harness import policy_factory
    for key in ("stratified-x", "rankedset-", "stratified-3.5"):
        with pytest.raises(KeyError):
            policy_factory(key)
