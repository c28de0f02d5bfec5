"""The bench-suite protocol: every registered suite's gate in one place."""

import pytest

from repro.harness import bench, throughput


@pytest.mark.parametrize("suite", sorted(bench.SUITES))
def test_committed_baseline_passes_its_own_gate(suite):
    """Each checked-in BENCH_<suite>.json satisfies the absolute
    floors and ceilings it gates CI with."""
    baseline = bench.load_baseline(bench.SUITES[suite].baseline)
    assert bench.compare(suite, baseline, baseline) == []


def megablock_payload(size, overall):
    cell = {"mega": {"ips": 1000.0 * overall, "seconds": 1.0,
                     "instructions": 1000},
            "fused": {"ips": 1000.0, "seconds": 1.0,
                      "instructions": 1000},
            "speedup": overall}
    return {
        "schema_version": throughput.SCHEMA_VERSION,
        "modes": list(throughput.MODES),
        "sizes": {size: {
            "windows": {"warm": 10, "measure": 20},
            "benchmarks": {"mcf": {mode: dict(cell)
                                   for mode in throughput.MODES}},
            "summary": {
                **{mode: {"mega_ips_geomean": 1000.0 * overall,
                          "fused_ips_geomean": 1000.0,
                          "speedup_geomean": overall}
                   for mode in throughput.MODES},
                "overall_speedup_geomean": overall,
            },
        }},
    }


@pytest.mark.parametrize("tolerance", [0.25, 0.1])
def test_megablock_floor_fires_on_small_only(tolerance):
    # the current payload is its own baseline, so only the absolute
    # floor (1.3x less the run tolerance) can fire
    below = throughput.MIN_OVERALL_SPEEDUP * (1.0 - tolerance) - 0.01
    above = throughput.MIN_OVERALL_SPEEDUP * (1.0 - tolerance) + 0.01
    small = megablock_payload("small", below)
    (problem,) = bench.compare("megablock", small, small, tolerance)
    assert problem.startswith("small/overall")
    assert "required 1.30x" in problem
    for payload in (megablock_payload("small", above),
                    megablock_payload("tiny", below)):
        assert bench.compare("megablock", payload, payload,
                             tolerance) == []


def test_hotpath_has_no_absolute_floor():
    # the metrics read only speedups, so a megablock-shaped payload
    # stands in for a hotpath one
    small = megablock_payload("small", 0.5)
    assert bench.compare("hotpath", small, small) == []
