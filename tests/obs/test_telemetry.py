"""Run-telemetry plumbing: heartbeats, lifecycle events, readers, and
the staleness detector that separates slow jobs from dead workers."""

import json

import pytest

from repro.obs import telemetry


def _mk_clock(start=1000.0):
    """Deterministic fake wall clock (advances 1 s per call)."""
    state = {"now": start}

    def clock():
        state["now"] += 1.0
        return state["now"]

    return clock


# ----------------------------------------------------------------------
# heartbeats


def test_heartbeat_writes_atomic_snapshots(tmp_path):
    writer = telemetry.HeartbeatWriter(tmp_path, "gzip:full:tiny",
                                       clock=_mk_clock())
    writer.beat()
    writer.beat()
    payload = json.loads(writer.path.read_text())
    assert payload["job_id"] == "gzip:full:tiny"
    assert payload["seq"] == 2
    assert payload["status"] == "running"
    assert payload["ts"] > payload["started_at"]
    assert "metrics" in payload
    assert not list(writer.path.parent.glob("*.tmp"))  # renamed away


def test_failed_heartbeat_write_leaves_no_temp_file(tmp_path):
    writer = telemetry.HeartbeatWriter(tmp_path, "gzip:full:tiny",
                                       clock=_mk_clock())
    writer.path.mkdir(parents=True)  # os.replace onto a directory fails
    (writer.path / "occupied").write_text("x")
    with pytest.raises(OSError):
        writer.beat()
    assert not list(writer.path.parent.glob("*.tmp"))


def test_heartbeat_filename_is_sanitized(tmp_path):
    writer = telemetry.HeartbeatWriter(tmp_path, "a/b:c d")
    assert writer.path.name == "a_b_c_d.json"


def test_heartbeat_context_manager_reports_terminal_status(tmp_path):
    with telemetry.HeartbeatWriter(tmp_path, "ok-job",
                                   interval=60.0) as writer:
        pass
    assert json.loads(writer.path.read_text())["status"] == "done"

    try:
        with telemetry.HeartbeatWriter(tmp_path, "bad-job",
                                       interval=60.0) as writer:
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert json.loads(writer.path.read_text())["status"] == "failed"


def test_heartbeat_thread_beats_periodically(tmp_path):
    import time
    writer = telemetry.HeartbeatWriter(tmp_path, "ticking",
                                       interval=0.02).start()
    deadline = time.time() + 5.0
    try:
        while time.time() < deadline:
            beat = telemetry.read_heartbeats(tmp_path).get("ticking")
            if beat and beat["seq"] >= 3:
                break
            time.sleep(0.01)
    finally:
        writer.stop()
    assert telemetry.read_heartbeats(tmp_path)["ticking"]["seq"] >= 3


# ----------------------------------------------------------------------
# run directory, events, report


def test_run_telemetry_round_trip(tmp_path):
    run = telemetry.RunTelemetry(root=tmp_path, run_id="run-test")
    run.write_manifest(["b", "a"], backend="serial", parallel_jobs=1)
    run.emit("queued", "a")
    run.emit("started", "a", attempt=1)
    run.emit("done", "a", attempt=1, wall_seconds=1.5)
    run.write_report({"schema": 1, "jobs_total": 1})

    assert run.run_dir == tmp_path / "run-test"
    manifest = telemetry.read_manifest(run.run_dir)
    assert manifest["jobs"] == ["a", "b"]  # sorted
    events = telemetry.read_events(run.run_dir)
    assert [event["kind"] for event in events] == ["queued", "started",
                                                   "done"]
    assert [event["seq"] for event in events] == [1, 2, 3]
    assert telemetry.read_report(run.run_dir)["jobs_total"] == 1


def test_read_events_tolerates_torn_tail(tmp_path):
    run = telemetry.RunTelemetry(root=tmp_path, run_id="torn")
    run.emit("queued", "a")
    with open(run.run_dir / telemetry.EVENTS_NAME, "a") as fh:
        fh.write('{"kind": "started", "job": "a", "ts"')  # torn write
    events = telemetry.read_events(run.run_dir)
    assert [event["kind"] for event in events] == ["queued"]


def test_find_latest_run_picks_newest_manifest(tmp_path):
    old = telemetry.RunTelemetry(root=tmp_path, run_id="run-old")
    old.write_manifest([], backend="serial", parallel_jobs=1)
    new = telemetry.RunTelemetry(root=tmp_path, run_id="run-new")
    new.write_manifest([], backend="serial", parallel_jobs=1)
    # make the ordering explicit rather than racing the clock
    manifest = telemetry.read_manifest(old.run_dir)
    manifest["created_at"] -= 100.0
    (old.run_dir / telemetry.MANIFEST_NAME).write_text(
        json.dumps(manifest))
    (tmp_path / "not-a-run").mkdir()
    assert telemetry.find_latest_run(tmp_path) == new.run_dir
    assert telemetry.find_latest_run(tmp_path / "missing") is None


# ----------------------------------------------------------------------
# status rows


def _seed_run(tmp_path, run_id="run-status"):
    run = telemetry.RunTelemetry(root=tmp_path, run_id=run_id)
    run.write_manifest(["a", "b", "c"], backend="process",
                       parallel_jobs=2)
    return run


def test_job_status_rows_merge_lifecycle_and_heartbeats(tmp_path):
    run = _seed_run(tmp_path)
    now = telemetry.wall_now()
    run.emit("queued", "a")
    run.emit("started", "a", attempt=1)
    run.emit("done", "a", attempt=1, wall_seconds=2.5)
    run.emit("queued", "b")
    run.emit("started", "b", attempt=1)
    telemetry.HeartbeatWriter(run.run_dir, "b").beat()
    run.emit("queued", "c")

    rows = {row["job"]: row for row in
            telemetry.job_status_rows(run.run_dir, now=now + 1.0)}
    assert rows["a"]["state"] == "done"
    assert rows["a"]["wall_seconds"] == 2.5
    assert rows["a"]["queue_wait"] >= 0.0
    assert rows["b"]["state"] == "running"
    assert rows["b"]["beats"] == 1
    assert rows["c"]["state"] == "queued"


def test_killed_worker_flagged_stalled(tmp_path):
    """A job whose lifecycle says running but whose heartbeat went
    quiet (worker killed mid-run) is flagged stalled."""
    run = _seed_run(tmp_path, "run-stall")
    run.emit("queued", "a")
    run.emit("started", "a", attempt=1)
    writer = telemetry.HeartbeatWriter(run.run_dir, "a",
                                       clock=_mk_clock(1000.0))
    writer.beat()  # heartbeat stamped ~t=1001, then silence

    (row,) = telemetry.job_status_rows(run.run_dir, now=1031.0,
                                       stale_after=10.0)
    assert row["state"] == "stalled"
    # a fresher view of the same beat is just "running"
    (row,) = telemetry.job_status_rows(run.run_dir, now=1002.0,
                                       stale_after=10.0)
    assert row["state"] == "running"


def test_started_job_without_any_heartbeat_goes_stalled(tmp_path):
    run = _seed_run(tmp_path, "run-nobeat")
    run.emit("started", "a", attempt=1)
    started_ts = telemetry.read_events(run.run_dir)[0]["ts"]
    (row,) = telemetry.job_status_rows(run.run_dir,
                                       now=started_ts + 60.0,
                                       stale_after=10.0)
    assert row["state"] == "stalled"


def test_retrying_state_and_attempt_from_events(tmp_path):
    run = _seed_run(tmp_path, "run-retry")
    run.emit("queued", "a")
    run.emit("started", "a", attempt=1)
    run.emit("retrying", "a", attempt=2)
    ts = telemetry.read_events(run.run_dir)[-1]["ts"]
    (row,) = telemetry.job_status_rows(run.run_dir, now=ts + 1.0)
    assert row["state"] == "retrying"
    assert row["attempt"] == 2


def test_format_status_table_counts_in_flight_and_stalled(tmp_path):
    run = _seed_run(tmp_path, "run-table")
    run.emit("queued", "a")
    run.emit("started", "a", attempt=1)
    run.emit("queued", "b")
    ts = telemetry.read_events(run.run_dir)[-1]["ts"]
    rows = telemetry.job_status_rows(run.run_dir, now=ts + 60.0,
                                     stale_after=10.0)
    table = telemetry.format_status_table(rows)
    assert "2 job(s), 2 in flight, 1 stalled" in table
    assert "stalled" in table.splitlines()[1]  # job a's row
