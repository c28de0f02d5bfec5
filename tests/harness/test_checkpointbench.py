"""Unit tests for the checkpoint benchmark harness and its CI gate."""

import pytest

from repro.harness import bench
from repro.harness import checkpointbench as cb


def compare_to_baseline(current, baseline):
    return bench.compare("checkpoint", current, baseline)


def cell(speedup, delta_ratio=0.02):
    return {
        "cold_seconds": speedup, "warm_seconds": 1.0,
        "speedup": speedup, "ipc": 1.0, "ipc_equal": True,
        "warm_restores": 10, "warm_profile_cache_hits": 1,
        "delta_bytes": int(4096 * delta_ratio * 100),
        "full_bytes": 4096 * 100, "delta_ratio": delta_ratio,
    }


def payload(ckpt_speedup, plain_speedup=2.0, delta_ratio=0.02,
            benchmarks=("mcf", "swim")):
    rows = {bench: {"simpoint": cell(plain_speedup),
                    "simpoint-ckpt": cell(ckpt_speedup, delta_ratio)}
            for bench in benchmarks}
    return {
        "schema_version": cb.SCHEMA_VERSION,
        "size": "paper",
        "policies": ["simpoint", "simpoint-ckpt"],
        "accel_policy": cb.ACCEL_POLICY,
        "benchmarks": rows,
        "summary": {
            "speedup_geomean": ckpt_speedup,
            "simpoint_speedup_geomean": plain_speedup,
            "simpoint-ckpt_speedup_geomean": ckpt_speedup,
            "overall_speedup_geomean": bench.geomean(
                [ckpt_speedup, plain_speedup]),
            "delta_ratio_max": delta_ratio,
            "ipc_equal": True,
        },
    }


def test_geomean():
    assert bench.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert bench.geomean([]) == 0.0
    assert bench.geomean([0.0, 4.0]) == pytest.approx(4.0)


def test_gate_passes_within_tolerance():
    baseline = payload(4.0)
    current = payload(3.3)  # above floor, < 25% below baseline
    assert compare_to_baseline(current, baseline) == []


def test_gate_enforces_absolute_speedup_floor():
    # even a brand-new (identical) baseline cannot excuse a geomean
    # below the acceptance floor
    current = payload(2.5)
    problems = compare_to_baseline(current, payload(2.5))
    assert any("3.0x" in problem for problem in problems)


def test_gate_enforces_delta_ratio_ceiling():
    current = payload(4.0, delta_ratio=0.40)
    problems = compare_to_baseline(current, payload(4.0))
    assert any("delta" in problem for problem in problems)


def test_gate_fails_on_relative_regression():
    baseline = payload(6.0)
    current = payload(4.0)  # 33% down, but above the absolute floor
    problems = compare_to_baseline(current, baseline)
    assert problems
    assert any("mcf" in problem for problem in problems)
    assert any("overall" in problem for problem in problems)


def test_gate_flags_missing_benchmark():
    baseline = payload(4.0)
    current = payload(4.0)
    del current["benchmarks"]["swim"]
    problems = compare_to_baseline(current, baseline)
    assert any("missing" in problem for problem in problems)


def test_gate_fails_on_divergence():
    current = payload(4.0)
    current["summary"]["ipc_equal"] = False
    problems = compare_to_baseline(current, payload(4.0))
    assert any("diverged" in problem for problem in problems)


def test_format_table_mentions_every_cell():
    text = cb.format_table(payload(4.0))
    for name in ("mcf", "swim"):
        assert name in text
    for policy in ("simpoint", "simpoint-ckpt"):
        assert policy in text
    assert "geomean" in text


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    bench.write_baseline(payload(4.0), str(path))
    assert bench.load_baseline(str(path)) == payload(4.0)


def test_measure_pair_end_to_end(tmp_path):
    """One real cold/warm subprocess measurement at the tiny size."""
    result = cb.measure_pair("art", "simpoint-ckpt", "tiny", repeats=1)
    assert result["ipc_equal"]
    assert result["cold_seconds"] > 0
    assert result["warm_seconds"] > 0
    assert result["warm_restores"] > 0
    assert 0 <= result["delta_ratio"] <= 1
