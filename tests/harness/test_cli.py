"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # the default store resolves REPRO_CACHE_DIR lazily per lookup,
    # so pointing the env at a temp dir is all the isolation we need
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out
    assert "apsi" in out
    assert "CPU-300-1M-inf" in out


def test_run_command(capsys):
    code = main(["run", "gzip", "--policy", "EXC-300-1M-10",
                 "--size", "tiny"])
    assert code == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "vs full" in out


def test_run_full_policy(capsys):
    assert main(["run", "mcf", "--policy", "full", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "vs full" not in out  # no self-comparison


def test_suite_command(capsys):
    code = main(["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
                 "--benchmarks", "gzip,mcf"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean error" in out
    assert "speedup" in out


def test_figure_command(capsys):
    assert main(["figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_figure_unknown(capsys):
    assert main(["figure", "fig99"]) == 2


def test_exec_command(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
_start:
    la t1, msg
    li t2, 3
    li t0, 1
    li t7, 1
    ecall
    li t0, 5
    li t7, 0
    ecall
msg:
    .ascii "ok\\n"
""")
    assert main(["exec", str(source)]) == 5
    out = capsys.readouterr().out
    assert "ok" in out
    assert "exit code 5" in out


def test_run_json_output(capsys):
    import json
    code = main(["run", "gzip", "--policy", "EXC-300-1M-10",
                 "--size", "tiny", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["benchmark"] == "gzip"
    assert payload["policy"].startswith("dynamic:")
    modes = payload["mode_breakdown"]["instructions"]
    assert modes["total"] == sum(
        modes[mode] for mode in ("fast", "profile", "warming", "timed"))
    assert set(payload["vs_full"]) == {"error", "speedup"}
    assert "exceptions" in payload["vm_stats"]


def test_suite_json_output(capsys):
    import json
    code = main(["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
                 "--benchmarks", "gzip,mcf", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["benchmark"] for row in payload["benchmarks"]] == \
        ["gzip", "mcf"]
    assert "mean_error" in payload and "speedup" in payload


def test_suite_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    assert main(["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
                 "--benchmarks", "gzip,mcf"]) == 0
    serial_out = capsys.readouterr().out
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    assert main(["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
                 "--benchmarks", "gzip,mcf", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    # stdout (ipc / error / speedup report) is identical: the grid is
    # deterministic regardless of backend
    assert parallel_out == serial_out


def test_suite_progress_goes_to_stderr(capsys):
    assert main(["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
                 "--benchmarks", "gzip"]) == 0
    captured = capsys.readouterr()
    assert "gzip:EXC-300-1M-10:tiny" in captured.err
    assert "[2/2]" in captured.err
    assert "gzip:EXC-300-1M-10:tiny" not in captured.out


def test_suite_resume_serves_from_store(capsys):
    args = ["suite", "--policy", "EXC-300-1M-10", "--size", "tiny",
            "--benchmarks", "gzip,mcf"]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "cached" not in first.err
    assert "served-from-store: 0/4" in first.out
    assert main(args) == 0
    second = capsys.readouterr()
    assert second.err.count("cached") == 4  # 2 benchmarks x 2 policies
    assert "served-from-store: 4/4" in second.out
    # apart from the store-hit line, the report is identical: the grid
    # is deterministic regardless of where results come from
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith("served-from-store")]
    assert strip(second.out) == strip(first.out)


def test_run_verbose_prints_decision_log(capsys):
    code = main(["run", "gzip", "--policy", "EXC-300-1M-10",
                 "--size", "tiny", "--verbose"])
    assert code == 0
    out = capsys.readouterr().out
    decision_lines = [line for line in out.splitlines()
                      if line.startswith("i=")]
    assert decision_lines, "expected one decision line per interval"
    first = decision_lines[0]
    assert "EXC d=" in first and "rel=" in first and "S=3.00" in first
    assert "-> functional" in first or "-> TIMED" in first
    # the normal summary still follows the log
    assert "IPC" in out


def test_run_summary_surfaces_vm_stats(capsys):
    code = main(["run", "gzip", "--policy", "EXC-300-1M-10",
                 "--size", "tiny", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "modes     :" in out
    assert "vm stats  :" in out
    assert "exceptions:" in out  # per-kind breakdown


def test_trace_command(tmp_path, capsys):
    import json
    out_path = tmp_path / "trace.json"
    events_path = tmp_path / "events.jsonl"
    code = main(["trace", "gzip", "--policy", "EXC-300-1M-10",
                 "--size", "tiny", "--out", str(out_path),
                 "--events", str(events_path)])
    assert code == 0
    trace = json.loads(out_path.read_text())
    phases = {record["ph"] for record in trace["traceEvents"]}
    assert {"X", "i", "C", "M"} <= phases
    decision = [record for record in trace["traceEvents"]
                if record.get("cat") == "decision"]
    assert decision and "variables" in decision[0]["args"]
    from repro.obs import decision_timeline, read_jsonl
    assert decision_timeline(read_jsonl(events_path))
    assert "mode spans" in capsys.readouterr().out


def test_trace_accepts_fractional_sensitivity(tmp_path):
    out_path = tmp_path / "trace.json"
    code = main(["trace", "gzip", "--policy", "CPU-0.3-1M-1000",
                 "--size", "tiny", "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()


def test_suite_reports_checkpoint_restores(capsys):
    # cold sweep: populates the ladder; forced warm sweep: the
    # re-executed SimPoint jobs fast-forward by restoring rungs
    argv = ["suite", "--policy", "simpoint-ckpt", "--size", "tiny",
            "--benchmarks", "gzip"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "restored-from-checkpoint:" in first
    assert main(argv + ["--force"]) == 0
    second = capsys.readouterr().out
    restored = int(second.split("restored-from-checkpoint:")[1]
                   .split()[0])
    assert restored > 0


def test_bench_checkpoint_suite_unknown_baseline(tmp_path, capsys):
    # --check against a missing baseline reports cleanly (exit 2);
    # the measurement itself runs one real cold/warm pair
    code = main(["bench", "--suite", "checkpoint", "--size", "tiny",
                 "--benchmarks", "art", "--repeats", "1",
                 "--check", "--baseline", str(tmp_path / "none.json")])
    assert code == 2
    out = capsys.readouterr().out
    assert "simpoint-ckpt" in out


def test_bench_reads_committed_baseline_and_history_from_any_cwd(
        tmp_path, monkeypatch, capsys):
    # a tiny run whose overall geomean halved: the committed baseline
    # and the committed trajectory must both flag it, even with the
    # working directory outside the checkout
    from repro.harness import bench, throughput
    payload = bench.load_baseline(bench.SUITES["hotpath"].baseline)
    payload["sizes"] = {"tiny": payload["sizes"]["tiny"]}
    payload["sizes"]["tiny"]["summary"]["overall_speedup_geomean"] /= 2
    monkeypatch.setattr(throughput.ThroughputSuite, "run",
                        lambda self, sizes, **kwargs: payload)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--size", "tiny", "--check"]) == 1
    err = capsys.readouterr().err
    assert "  tiny/overall: geomean speedup" in err
    assert "trajectory hotpath.tiny.overall_speedup_geomean" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite", ["checkpoint", "frontier"])
def test_bench_single_size_suite_rejects_size_list(suite, capsys):
    assert main(["bench", "--suite", suite, "--size", "tiny,small"]) == 2
    assert "measures one size" in capsys.readouterr().err


def test_bench_repeats_reaches_hotpath(monkeypatch, capsys):
    from repro.harness import throughput
    seen = []

    def fake_measure(bench, size, engine, mode, warm, measure, repeats):
        seen.append(repeats)
        return {"instructions": 1, "seconds": 1.0, "ips": 1.0}

    monkeypatch.setattr(throughput, "measure_throughput", fake_measure)
    assert main(["bench", "--size", "tiny", "--benchmarks", "gzip",
                 "--repeats", "1"]) == 0
    assert seen and set(seen) == {1}
