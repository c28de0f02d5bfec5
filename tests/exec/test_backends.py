"""Backend tests: serial/parallel parity, crash retry, timeouts."""

import os
import time
from pathlib import Path

import pytest

from repro.exec import (JobSpec, ProcessPoolBackend, SerialBackend,
                        execute_spec)
from repro.harness import make_spec
from repro.sampling import PolicyResult

PARITY_GRID = [("gzip", "full"), ("gzip", "EXC-300-1M-10"),
               ("mcf", "full"), ("mcf", "EXC-300-1M-10")]


def _fake_result(spec):
    return PolicyResult(
        policy=spec.policy, benchmark=spec.benchmark, ipc=1.0,
        total_instructions=10, fast_instructions=0,
        profile_instructions=0, warming_instructions=0,
        timed_instructions=10, timed_intervals=1,
        wall_seconds=0.0, modeled_seconds=1.0,
        fingerprint=spec.fingerprint)


def fake_worker(spec, tracer=None):
    return _fake_result(spec)


def crashy_worker(spec):
    """Dies hard (no exception, no result) on the first attempt."""
    marker = Path(os.environ["REPRO_TEST_CRASH_DIR"]) / \
        spec.job_id.replace(":", "_")
    if not marker.exists():
        marker.touch()
        os._exit(3)
    return _fake_result(spec)


def always_crashing_worker(spec):
    os._exit(3)


def raising_worker(spec):
    raise ValueError("deterministic failure")


def sleepy_worker(spec):
    time.sleep(30)
    return _fake_result(spec)


# ----------------------------------------------------------------------
# parity: the acceptance-criterion core

def test_backend_parity_two_policies_two_benchmarks():
    """Serial and process-pool backends must produce identical
    PolicyResults (up to host wall-clock) for the same jobs."""
    specs = [make_spec(bench, policy, "tiny")
             for bench, policy in PARITY_GRID]
    serial = {jr.spec.key: jr
              for jr in SerialBackend().run(specs)}
    parallel = {jr.spec.key: jr
                for jr in ProcessPoolBackend(jobs=2).run(specs)}
    assert set(serial) == set(parallel) == {s.key for s in specs}
    for spec in specs:
        assert serial[spec.key].ok and parallel[spec.key].ok
        assert (serial[spec.key].result.canonical_dict()
                == parallel[spec.key].result.canonical_dict()), spec.key


def test_execute_spec_stamps_fingerprint_and_job():
    spec = make_spec("gzip", "full", "tiny")
    result = execute_spec(spec)
    assert result.fingerprint == spec.fingerprint
    assert result.job == {"id": "gzip:full:tiny"}


# ----------------------------------------------------------------------
# failure handling

def _specs(n=1):
    return [JobSpec(benchmark=f"b{i}", policy="full", size="tiny",
                    fingerprint="f") for i in range(n)]


def test_worker_crash_is_retried(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
    backend = ProcessPoolBackend(jobs=2, crash_retries=1,
                                 worker=crashy_worker)
    results = backend.run(_specs(3))
    assert len(results) == 3
    for job_result in results:
        assert job_result.ok
        assert job_result.attempts == 2  # crashed once, then succeeded


class RacingWorker:
    """Fake worker process and pipe end in one: it sends its result and
    exits right after the parent's first poll found the pipe empty."""

    def __init__(self, message):
        self.message = message
        self.sent = None
        self.exitcode = None

    def is_alive(self):
        return self.exitcode is None

    def poll(self):
        ready = self.sent is not None
        if self.is_alive():
            self.sent, self.exitcode = self.message, 0
        return ready

    def recv(self):
        return self.sent

    def join(self, timeout=None):
        pass

    def close(self):
        pass


def test_result_sent_just_before_exit_is_not_a_crash():
    from collections import deque

    from repro.exec.backends import _Running

    spec = _specs(1)[0]
    worker = RacingWorker(("ok", _fake_result(spec).to_dict()))
    running = {spec.key: _Running(spec=spec, proc=worker, conn=worker,
                                  attempt=1, started=time.perf_counter(),
                                  deadline=None)}
    pending = deque()
    backend = ProcessPoolBackend(jobs=1, crash_retries=1)
    assert backend._reap(running, pending) == []
    assert not pending            # not re-queued as a crash
    (job_result,) = backend._reap(running, pending)
    assert job_result.ok
    assert job_result.attempts == 1
    assert not running and not pending


def test_worker_crash_retry_is_bounded():
    backend = ProcessPoolBackend(jobs=2, crash_retries=1,
                                 worker=always_crashing_worker)
    (job_result,) = backend.run(_specs(1))
    assert not job_result.ok
    assert "crashed" in job_result.error
    assert job_result.attempts == 2  # initial + one retry, then gave up


def test_worker_exception_fails_without_retry():
    backend = ProcessPoolBackend(jobs=2, worker=raising_worker)
    (job_result,) = backend.run(_specs(1))
    assert not job_result.ok
    assert job_result.attempts == 1  # deterministic: retrying is waste
    assert "ValueError: deterministic failure" in job_result.error


def test_per_job_timeout_kills_the_worker():
    backend = ProcessPoolBackend(jobs=2, timeout=0.5,
                                 worker=sleepy_worker)
    started = time.perf_counter()
    (job_result,) = backend.run(_specs(1))
    elapsed = time.perf_counter() - started
    assert not job_result.ok
    assert "timeout" in job_result.error
    assert elapsed < 10  # nowhere near the worker's 30 s sleep


def test_serial_backend_catches_exceptions():
    (job_result,) = SerialBackend(worker=raising_worker).run(_specs(1))
    assert not job_result.ok
    assert "ValueError" in job_result.error


def test_process_pool_falls_back_to_serial(monkeypatch):
    from repro.exec import backends
    monkeypatch.setattr(backends, "_mp", None)
    backend = ProcessPoolBackend(jobs=4, worker=fake_worker)
    results = backend.run(_specs(2))
    assert all(jr.ok for jr in results)
    assert all(jr.backend == "serial" for jr in results)
