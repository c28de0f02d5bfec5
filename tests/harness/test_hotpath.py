"""Unit tests for the hot-path benchmark harness and its CI gate."""

import pytest

from repro.harness import bench, throughput
from repro.harness.throughput import HOTPATH


def compare_to_baseline(current, baseline):
    return bench.compare("hotpath", current, baseline)


def payload(speedup, overall=None):
    cell = {"fast": {"ips": 1000.0 * speedup, "seconds": 1.0,
                     "instructions": 1000 * speedup},
            "slow": {"ips": 1000.0, "seconds": 1.0,
                     "instructions": 1000},
            "speedup": speedup}
    return {
        "schema_version": throughput.SCHEMA_VERSION,
        "modes": list(throughput.MODES),
        "sizes": {"tiny": {
            "windows": {"warm": 10, "measure": 20},
            "benchmarks": {"gzip": {mode: dict(cell)
                                    for mode in throughput.MODES}},
            "summary": {
                **{mode: {"fast_ips_geomean": 1000.0 * speedup,
                          "slow_ips_geomean": 1000.0,
                          "speedup_geomean": speedup}
                   for mode in throughput.MODES},
                "overall_speedup_geomean": overall or speedup,
            },
        }},
    }


def test_geomean():
    assert bench.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert bench.geomean([]) == 0.0
    assert bench.geomean([0.0, 4.0]) == pytest.approx(4.0)


def test_gate_passes_within_tolerance():
    baseline = payload(4.0)
    current = payload(3.2)  # 20% down, tolerance 25%
    assert compare_to_baseline(current, baseline) == []


def test_gate_fails_on_cell_regression():
    baseline = payload(4.0)
    current = payload(2.5)  # 37.5% down
    problems = compare_to_baseline(current, baseline)
    assert problems
    assert any("tiny/gzip" in problem for problem in problems)
    assert any("overall" in problem for problem in problems)


def test_gate_flags_missing_benchmark():
    baseline = payload(4.0)
    current = payload(4.0)
    del current["sizes"]["tiny"]["benchmarks"]["gzip"]
    problems = compare_to_baseline(current, baseline)
    assert any("missing" in problem for problem in problems)


def test_gate_ignores_extra_sizes_in_current():
    # a tiny-only CI run must gate against the baseline's tiny section
    # even when the committed baseline also carries the small suite
    baseline = payload(4.0)
    baseline["sizes"]["small"] = baseline["sizes"]["tiny"]
    current = payload(4.0)
    assert compare_to_baseline(current, baseline) == []


def test_format_table_mentions_every_cell():
    text = HOTPATH.format_table(payload(4.0))
    assert "gzip" in text
    for mode in throughput.MODES:
        assert mode in text
    assert "overall speedup geomean" in text


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    bench.write_baseline(payload(4.0), str(path))
    assert bench.load_baseline(str(path)) == payload(4.0)
