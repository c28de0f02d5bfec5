"""Perf-trajectory history: metric extraction, the append-only JSONL
store, and the rolling-window regression detector."""

import json

import pytest

from repro.harness import bench, history

HOTPATH_PAYLOAD = {
    "schema_version": 1,
    "modes": ["warming", "timed"],
    "sizes": {
        "tiny": {
            "summary": {
                "warming": {"fast_ips_geomean": 1.5e6,
                            "slow_ips_geomean": 3.0e5,
                            "speedup_geomean": 5.0},
                "timed": {"fast_ips_geomean": 9.0e5,
                          "slow_ips_geomean": 3.0e5,
                          "speedup_geomean": 3.0},
                "overall_speedup_geomean": 3.873,
            },
        },
    },
}

CHECKPOINT_PAYLOAD = {
    "summary": {
        "speedup_geomean": 2.3,
        "overall_speedup_geomean": 2.1,
        "delta_ratio_max": 0.03,
        "simpoint-ckpt_speedup_geomean": 2.3,
        "benchmarks": ["gzip"],  # non-numeric: ignored
    },
}


def test_extract_metrics_keeps_only_ratios():
    metrics = history.extract_metrics("hotpath", HOTPATH_PAYLOAD)
    assert metrics == {
        "hotpath.tiny.warming.speedup_geomean": 5.0,
        "hotpath.tiny.timed.speedup_geomean": 3.0,
        "hotpath.tiny.overall_speedup_geomean": 3.873,
    }
    # absolute instructions/second never enter the history
    assert not any("ips" in key for key in metrics)

    metrics = history.extract_metrics("checkpoint", CHECKPOINT_PAYLOAD)
    assert metrics == {
        "checkpoint.speedup_geomean": 2.3,
        "checkpoint.overall_speedup_geomean": 2.1,
        "checkpoint.delta_ratio_max": 0.03,
        "checkpoint.simpoint-ckpt_speedup_geomean": 2.3,
    }


def test_extract_metrics_frontier_speedups():
    payload = {
        "policies": {
            "stratified-12": {"error": 0.06, "speedup": 3.2},
            "rankedset-3": {"error": 0.02, "speedup": 1.5},
            "broken": {"error": 0.0},  # no speedup: skipped
        },
    }
    metrics = history.extract_metrics("frontier", payload)
    assert metrics == {
        "frontier.stratified-12.speedup": 3.2,
        "frontier.rankedset-3.speedup": 1.5,
    }
    # accuracy errors are gated by the baseline comparison, not here
    assert not any("error" in key for key in metrics)


def test_make_entry_shape():
    entry = history.make_entry("hotpath", HOTPATH_PAYLOAD,
                               recorded_at="2026-08-07T00:00:00")
    assert entry["schema"] == history.SCHEMA_VERSION
    assert entry["suite"] == "hotpath"
    assert entry["recorded_at"] == "2026-08-07T00:00:00"
    assert entry["metrics"]["hotpath.tiny.overall_speedup_geomean"] \
        == 3.873


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "sub" / "HISTORY.jsonl"
    entry = history.make_entry("hotpath", HOTPATH_PAYLOAD,
                               recorded_at="t0")
    assert history.append_history(path, entry) == 1
    assert history.append_history(
        path, history.make_entry("checkpoint", CHECKPOINT_PAYLOAD,
                                 recorded_at="t1")) == 2
    entries = history.load_history(path)
    assert [e["suite"] for e in entries] == ["hotpath", "checkpoint"]
    assert not list(path.parent.glob("*.tmp"))  # atomic rewrite


def test_load_history_tolerates_torn_and_junk_lines(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    path.write_text(json.dumps({"suite": "hotpath", "metrics": {}})
                    + "\n\n[1, 2]\n{\"suite\": \"chec")
    entries = history.load_history(path)
    assert len(entries) == 1
    assert history.load_history(tmp_path / "missing.jsonl") == []


def _entries(values, suite="hotpath",
             metric="hotpath.tiny.overall_speedup_geomean"):
    return [{"suite": suite, "metrics": {metric: value}}
            for value in values]


def test_detector_flags_speedup_drop_beyond_tolerance():
    healthy = _entries([4.0, 3.9, 4.1, 4.0, 3.95, 3.2])
    assert history.detect_regressions(healthy, "hotpath",
                                      tolerance=0.25) == []
    regressed = _entries([4.0, 3.9, 4.1, 4.0, 3.95, 2.9])
    (problem,) = history.detect_regressions(regressed, "hotpath",
                                            tolerance=0.25)
    assert "overall_speedup_geomean" in problem
    assert "rolling median" in problem


def test_detector_flags_delta_ratio_rise():
    entries = _entries([0.03, 0.031, 0.029, 0.2], suite="checkpoint",
                       metric="checkpoint.delta_ratio_max")
    (problem,) = history.detect_regressions(entries, "checkpoint")
    assert "delta_ratio_max" in problem


def test_detector_uses_rolling_window_not_all_time():
    # ancient fast entries fall outside the window: only the recent
    # plateau is the reference, so the latest entry is healthy
    entries = _entries([8.0, 8.0, 4.0, 4.1, 3.9, 4.0, 4.05, 3.95])
    assert history.detect_regressions(entries, "hotpath",
                                      window=5) == []
    # same curve, window wide enough to reach the ancient entries:
    # the inflated median now flags the latest entry
    assert history.detect_regressions(entries, "hotpath", window=7,
                                      tolerance=0.0)
    entries_bad = _entries([8.0, 8.0, 8.0, 8.0, 4.0])
    assert history.detect_regressions(entries_bad, "hotpath",
                                      window=4)


def test_detector_ignores_other_suites_and_short_history():
    entries = _entries([4.0], suite="hotpath") + _entries(
        [0.03], suite="checkpoint",
        metric="checkpoint.delta_ratio_max")
    assert history.detect_regressions(entries, "hotpath") == []
    assert history.detect_regressions(entries, "checkpoint") == []
    assert history.detect_regressions([], "hotpath") == []


def test_detector_skips_metrics_absent_from_prior_entries():
    entries = _entries([4.0, 4.0])
    entries.append({"suite": "hotpath",
                    "metrics": {"hotpath.small.overall_speedup_geomean":
                                1.0}})
    assert history.detect_regressions(entries, "hotpath") == []


def test_format_history_tail():
    text = history.format_history(_entries([4.0, 3.9]))
    assert "hotpath" in text
    assert "2 entries total" in text
    assert "overall_speedup_geomean=3.90x" in text


def test_committed_history_seed_is_loadable_and_healthy():
    """The repo ships a seeded benchmarks/HISTORY.jsonl so the CI
    trajectory gate has a reference curve from day one."""
    entries = history.load_history(history.DEFAULT_HISTORY)
    suites = {entry["suite"] for entry in entries}
    assert {"hotpath", "checkpoint"} <= suites
    for entry in entries:
        assert entry["metrics"], f"empty metrics in {entry}"
        assert not any("ips" in key for key in entry["metrics"])


#: the history key -> value map each committed BENCH_<suite>.json
#: yields; extraction must keep producing exactly these keys
COMMITTED_METRICS = {
    "hotpath": {
        "hotpath.small.overall_speedup_geomean": 5.549584892011023,
        "hotpath.small.timed.speedup_geomean": 3.8437896069004487,
        "hotpath.small.warming.speedup_geomean": 8.012377269127317,
        "hotpath.tiny.overall_speedup_geomean": 4.210924291542866,
        "hotpath.tiny.timed.speedup_geomean": 3.178896357205067,
        "hotpath.tiny.warming.speedup_geomean": 5.577999845423059,
    },
    "megablock": {
        "megablock.small.overall_speedup_geomean": 1.3329414072586598,
        "megablock.small.timed.speedup_geomean": 1.4229008277237658,
        "megablock.small.warming.speedup_geomean": 1.248669450861843,
    },
    "checkpoint": {
        "checkpoint.delta_ratio_max": 0.032898468519568916,
        "checkpoint.overall_speedup_geomean": 2.736460477374207,
        "checkpoint.simpoint-ckpt_speedup_geomean": 3.7030735555738725,
        "checkpoint.simpoint_speedup_geomean": 2.022162355635577,
        "checkpoint.speedup_geomean": 3.7030735555738725,
    },
    "frontier": {
        "frontier.CPU-300-1M-inf.speedup": 9.757834643704019,
        "frontier.EXC-300-1M-10.speedup": 8.677586904181654,
        "frontier.rankedset-3.speedup": 1.4977318788648901,
        "frontier.rankedset-6.speedup": 0.9980039920159681,
        "frontier.simpoint+prof.speedup": 1.6299661526442408,
        "frontier.simpoint-mav.speedup": 1.8648284791614527,
        "frontier.simpoint.speedup": 1.9473829883724734,
        "frontier.smarts.speedup": 4.387527703573865,
        "frontier.stratified-12.speedup": 3.1501021760639545,
        "frontier.stratified-24.speedup": 1.8293519443445416,
        "frontier.stratified-6.speedup": 5.2765554927562395,
    },
}


@pytest.mark.parametrize("suite", sorted(COMMITTED_METRICS))
def test_extract_metrics_pins_committed_key_set(suite):
    payload = bench.load_baseline(bench.SUITES[suite].baseline)
    assert history.extract_metrics(suite, payload) \
        == COMMITTED_METRICS[suite]
