"""Tests of the benchmark's own logic.

Run from the root of the repository::

    python -m pytest e2ebench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from cells import WORKLOADS, Cell, reference_cells  # noqa: E402
from report import (END_TO_END_UNITS, check_against_reference,  # noqa: E402
                    count_failures, end_to_end, layer_metrics, metric_unit,
                    self_times, tail_percentile)
from runner import (CellRun, Sweep, child_env, guarded_settings,  # noqa: E402
                    run_cell)


def span(name, start, end, parent=-1, count=0):
    return [name, start, end, parent, count]


def make_run(cell=Cell("gzip", "full", "tiny"), record=None, wall=1.0,
             exit_code=0, pass_no=1, scale=1.0):
    record = {"ok": True, "digest": "abc"} if record is None else record
    return CellRun(cell, pass_no, 0.0, wall, exit_code, record, scale=scale)


def traced_metrics(runs, untraced_seconds=None):
    """Layer metrics of one traced sweep of ``runs``, beside an untraced
    sweep of one cell taking ``untraced_seconds``."""
    untraced = [make_run(wall=untraced_seconds or
                         sum(run.ref_wall for run in runs))]
    return layer_metrics([Sweep(False, 0.0, untraced),
                          Sweep(True, 0.0, runs)])


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    spans = [span("engine", 0.0, 10.0),
             span("policy", 1.0, 9.0, parent=0),
             span("fast", 2.0, 4.0, parent=1),
             span("compile", 2.5, 3.0, parent=2),
             span("timed", 5.0, 8.0, parent=1)]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 0.5, 3.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [span("parent", 0.0, 4.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 2.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_unattributed_is_cell_wall_minus_all_self_time():
    spans = [span("import", 0.0, 1.0),
             span("exec.engine", 1.0, 5.0),
             span("exec.fast", 2.0, 4.0, parent=1, count=4000)]
    run = make_run(record={"ok": True, "spans": spans}, wall=6.0, scale=2.0)
    metrics = traced_metrics([run], untraced_seconds=10.0)
    # every host second counts as two reference seconds
    assert metrics["unattributed.s"] == pytest.approx(2.0)
    assert metrics["exec.engine.s"] == pytest.approx(4.0)
    assert metrics["exec.fast.kips"] == pytest.approx(1.0)
    assert metrics["trace_overhead_pct"] == pytest.approx(20.0)


def test_translator_hit_ratio_counts_only_translate_compiles():
    spans = [span("vm.translator.codegen", 0.0, 1.0),
             span("compile", 0.1, 0.2, parent=0),
             span("vm.translator.codegen", 1.0, 2.0),
             span("vm.chain.build", 2.0, 3.0),
             span("compile", 2.1, 2.2, parent=3)]
    metrics = traced_metrics([make_run(record={"ok": True,
                                              "spans": spans})])
    assert metrics["vm.translator.hit_ratio"] == pytest.approx(0.5)
    assert metrics["compile.n"] == 2
    assert metrics["vm.chain.build.s"] == pytest.approx(1.0)


def test_restore_ratio_per_pass():
    def ladder_run(pass_no, hits):
        spans = [span("exec.fast_forward", 0.0, 1.0, count=1),
                 span("ckptstore.load", 0.0, 0.1, parent=0, count=hits)]
        return make_run(record={"ok": True, "spans": spans},
                        pass_no=pass_no)
    metrics = traced_metrics([ladder_run(1, 0), ladder_run(2, 1)])
    assert metrics["ckptstore.pass1.restore_ratio"] == 0.0
    assert metrics["ckptstore.pass2.restore_ratio"] == 1.0
    assert metrics["ckptstore.restore_ratio"] == 0.5


def test_end_to_end_in_reference_seconds_and_against_oracle_full():
    refs = {"gzip|full|tiny|c1": {"ipc": 2.0, "modeled_seconds": 8.0}}
    sampled = make_run(Cell("gzip", "CPU-300-1M-inf", "tiny"), wall=2.0,
                       scale=0.5, record={
                           "ok": True, "ipc": 2.2, "modeled_seconds": 2.0,
                           "instructions": 3000, "ready": 0.4,
                           "maxrss_kb": 2048})
    metrics = end_to_end([Sweep(False, 2.5, [sampled])], refs)
    assert metrics["sweep_s"] == metrics["cell_p50_s"] == 1.0
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["sim_kips"] == pytest.approx(3.0)
    assert metrics["peak_rss_mb"] == 2.0
    assert metrics["ipc_err_pct"] == pytest.approx(10.0)
    assert metrics["modeled_speedup"] == pytest.approx(4.0)


# -- percentile --------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 30)]      # 29 cells
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert (pct, value) == (65, 19.0)


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([float(v) for v in range(11)]) == (9, 0.0)


# -- failures ----------------------------------------------------------

def test_mismatched_digest_counts_as_failed():
    refs = {Cell("gzip", "full", "tiny").ref_key: {"digest": "abc"}}
    good, bad = make_run(), make_run(record={"ok": True, "digest": "xyz"})
    for run in (good, bad):
        check_against_reference(run, refs)
    assert not good.failed and bad.failed
    assert count_failures([good, bad]) == (2, 1)


def test_crashing_and_timed_out_cells_count_as_failed(tmp_path):
    env = child_env(tmp_path / "store")
    crashed = run_cell(Cell("nosuchbench", "full", "tiny"), 1, env,
                       tmp_path / "crash.json", False, 60)
    timed_out = run_cell(Cell("gzip", "full", "tiny"), 1, env,
                         tmp_path / "slow.json", False, 0.01)
    assert crashed.failed and "nosuchbench" in crashed.record["error"]
    assert timed_out.failed and timed_out.exit_code is None
    assert count_failures([crashed, timed_out]) == (2, 2)


# -- environment guard -------------------------------------------------

def test_guard_names_each_set_variable():
    assert guarded_settings({"REPRO_SANITIZE": "0", "HOME": "/"}) == \
        ["REPRO_SANITIZE"]
    assert guarded_settings({"REPRO_CACHE_DIR": "x"}) == []


@pytest.mark.parametrize("name", ["REPRO_SLOW_PATH", "REPRO_JOBS"])
def test_run_refuses_guarded_environment(name):
    env = dict(os.environ, **{name: "1"})
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny-cold"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert name in proc.stderr and proc.stdout == ""


# -- workloads ---------------------------------------------------------

def test_seed_permutes_order_within_each_pass_only():
    workload = WORKLOADS["small-sampler-2pass"]
    first, second = workload.schedule(1), workload.schedule(2)
    assert first == workload.schedule(1)
    assert first != second
    for order in (first, second):
        passes = [pass_no for pass_no, _ in order]
        assert passes == sorted(passes)
        assert sorted(c.ref_key for p, c in order if p == 2) == \
            sorted(c.ref_key for c in workload.cells)


def test_references_cover_every_cell_and_its_full_baseline():
    keys = {cell.ref_key for cell in reference_cells()}
    for workload in WORKLOADS.values():
        for cell in workload.cells:
            assert cell.ref_key in keys and cell.full().ref_key in keys


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spans = [span("exec.engine", 0.0, 1.0)]
    layers = traced_metrics([make_run(record={"ok": True, "spans": spans})])
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END_UNITS)
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert metric["unit"] == metric_unit(metric["name"])
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
