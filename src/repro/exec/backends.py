"""Pluggable job-execution backends.

Two implementations of one interface:

* :class:`SerialBackend` — runs jobs in-process, one at a time.  The
  default; also the fallback whenever :mod:`multiprocessing` is
  unavailable or a per-job tracer is attached (tracers hold open
  streams and cannot cross a process boundary).
* :class:`ProcessPoolBackend` — one worker *process per job*, at most
  ``jobs`` alive at a time.  Process-per-job (rather than a long-lived
  pool) is what makes per-job timeouts and crash isolation clean: a
  hung job is terminated without poisoning other workers, and a
  crashed worker (non-zero exit without a result) is retried a bounded
  number of times.

Both backends call ``on_result`` as each job finishes, so the engine
can persist results incrementally — that is what makes an interrupted
sweep resumable.  They also call ``on_start`` as each job (or crash
retry) is dispatched, which is what feeds the engine's lifecycle
telemetry: progress is visible while jobs are in flight, not only when
they complete.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sampling import PolicyResult

from .spec import JobResult, JobSpec
from .worker import execute_spec

try:
    import multiprocessing as _mp
    from multiprocessing import connection as _mp_connection
except ImportError:  # pragma: no cover - multiprocessing-less builds
    _mp = None
    _mp_connection = None

__all__ = ["ExecutionBackend", "SerialBackend", "ProcessPoolBackend",
           "multiprocessing_available"]


def multiprocessing_available() -> bool:
    """Can we actually start worker processes on this host?"""
    if _mp is None:
        return False
    try:
        _pool_context()
        return True
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        return False


def _pool_context() -> "_mp.context.BaseContext":
    """Prefer fork (cheap, inherits warm module state); fall back to
    the platform default."""
    try:
        return _mp.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return _mp.get_context()


class ExecutionBackend:
    """Runs a batch of job specs, reporting each result as it lands.

    ``on_start(spec, attempt)`` fires when a job is dispatched
    (``attempt > 1`` means a crash retry); ``on_result(job_result)``
    fires as each job finishes.
    """

    name = "backend"

    def run(self, specs: List[JobSpec],
            on_result: Optional[Callable[[JobResult], None]] = None,
            tracers: Optional[Dict[str, object]] = None,
            on_start: Optional[Callable[[JobSpec, int], None]] = None
            ) -> List[JobResult]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Current behaviour: one job after another, in this process."""

    name = "serial"

    def __init__(self, worker: Optional[Callable] = None) -> None:
        self._worker = worker or execute_spec

    def run(self, specs: List[JobSpec],
            on_result: Optional[Callable[[JobResult], None]] = None,
            tracers: Optional[Dict[str, object]] = None,
            on_start: Optional[Callable[[JobSpec, int], None]] = None
            ) -> List[JobResult]:
        results: List[JobResult] = []
        for spec in specs:
            if on_start is not None:
                on_start(spec, 1)
            started = time.perf_counter()
            tracer = (tracers or {}).get(spec.key)
            try:
                if tracer is not None:
                    result = self._worker(spec, tracer=tracer)
                else:
                    result = self._worker(spec)
                job_result = JobResult(
                    spec=spec, status="ok", result=result,
                    wall_seconds=time.perf_counter() - started,
                    backend=self.name)
            except Exception as exc:
                job_result = JobResult(
                    spec=spec, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    wall_seconds=time.perf_counter() - started,
                    backend=self.name)
            results.append(job_result)
            if on_result is not None:
                on_result(job_result)
        return results


# ----------------------------------------------------------------------
# process pool

def _child_main(conn: "_mp_connection.Connection", spec: JobSpec,
                worker: Callable) -> None:
    """Worker-process entry: run the job, ship the outcome back."""
    status, payload = "ok", None
    try:
        result = worker(spec)
        payload = result.to_dict()
    except Exception as exc:
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    try:
        conn.send((status, payload))
        conn.close()
    except Exception:  # parent is gone; nothing sane left to do
        os._exit(70)


@dataclass
class _Running:
    spec: JobSpec
    proc: object
    conn: object
    attempt: int
    started: float
    deadline: Optional[float]


class ProcessPoolBackend(ExecutionBackend):
    """Bounded process-per-job execution with timeout and crash retry.

    ``timeout`` is per job, in wall seconds (``None`` = unlimited);
    ``crash_retries`` bounds re-runs of jobs whose worker died without
    reporting (a clean Python exception in the job is *not* retried —
    it is deterministic and would fail again).
    """

    name = "process"

    def __init__(self, jobs: int = 2, timeout: Optional[float] = None,
                 crash_retries: int = 1,
                 worker: Optional[Callable] = None,
                 poll_interval: float = 0.05) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.crash_retries = max(0, int(crash_retries))
        self.poll_interval = poll_interval
        self._worker = worker or execute_spec

    def run(self, specs: List[JobSpec],
            on_result: Optional[Callable[[JobResult], None]] = None,
            tracers: Optional[Dict[str, object]] = None,
            on_start: Optional[Callable[[JobSpec, int], None]] = None
            ) -> List[JobResult]:
        if tracers:
            raise ValueError("per-job tracers require the serial "
                             "backend (they cannot cross processes)")
        if not multiprocessing_available():
            return SerialBackend(self._worker).run(specs, on_result,
                                                   on_start=on_start)
        ctx = _pool_context()
        pending = deque((spec, 1) for spec in specs)
        running: Dict[str, _Running] = {}
        outcomes: Dict[str, JobResult] = {}
        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    self._start(ctx, pending.popleft(), running,
                                on_start)
                self._wait(running)
                for job_result in self._reap(running, pending):
                    outcomes[job_result.spec.key] = job_result
                    if on_result is not None:
                        on_result(job_result)
        finally:
            for entry in running.values():  # interrupted: reap workers
                self._kill(entry)
        return [outcomes[spec.key] for spec in specs
                if spec.key in outcomes]

    # -- scheduler internals --------------------------------------------

    def _start(self, ctx: "_mp.context.BaseContext",
               item: "tuple[JobSpec, int]",
               running: Dict[str, "_Running"],
               on_start: Optional[Callable[[JobSpec, int], None]] = None
               ) -> None:
        spec, attempt = item
        if on_start is not None:
            on_start(spec, attempt)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_main,
                           args=(child_conn, spec, self._worker),
                           daemon=True)
        proc.start()
        child_conn.close()
        now = time.perf_counter()
        deadline = now + self.timeout if self.timeout else None
        running[spec.key] = _Running(spec=spec, proc=proc,
                                     conn=parent_conn, attempt=attempt,
                                     started=now, deadline=deadline)

    def _wait(self, running: Dict[str, "_Running"]) -> None:
        handles = [entry.proc.sentinel for entry in running.values()]
        handles += [entry.conn for entry in running.values()]
        if handles:
            _mp_connection.wait(handles, timeout=self.poll_interval)

    def _reap(self, running: Dict[str, "_Running"],
              pending: "deque[tuple[JobSpec, int]]"
              ) -> List[JobResult]:
        finished: List[JobResult] = []
        now = time.perf_counter()
        for key, entry in list(running.items()):
            outcome = None
            crashed = False
            # liveness first: a worker that sends its result and exits
            # between the two checks must not read as a crash, so a
            # crash is a pipe still empty after the process died
            alive = entry.proc.is_alive()
            if entry.conn.poll():
                try:
                    status, payload = entry.conn.recv()
                except (EOFError, OSError):
                    crashed = True  # died mid-send
                else:
                    if status == "ok":
                        outcome = self._ok(entry, payload, now)
                    else:
                        outcome = self._failed(entry, payload, now)
            elif not alive:
                crashed = True
            elif entry.deadline is not None and now >= entry.deadline:
                self._kill(entry)
                outcome = self._failed(
                    entry, f"timeout after {self.timeout}s", now)
            else:
                continue
            if crashed:
                entry.proc.join(0.1)
                if entry.attempt <= self.crash_retries:
                    entry.conn.close()
                    del running[key]
                    pending.append((entry.spec, entry.attempt + 1))
                    continue
                outcome = self._failed(
                    entry,
                    f"worker crashed (exit code {entry.proc.exitcode}) "
                    f"after {entry.attempt} attempt(s)", now)
            entry.proc.join(1.0)
            entry.conn.close()
            del running[key]
            finished.append(outcome)
        return finished

    def _ok(self, entry: "_Running", payload: dict,
            now: float) -> JobResult:
        return JobResult(
            spec=entry.spec, status="ok",
            result=PolicyResult.from_dict(payload),
            attempts=entry.attempt,
            wall_seconds=now - entry.started, backend=self.name)

    def _failed(self, entry: "_Running", error: object,
                now: float) -> JobResult:
        return JobResult(
            spec=entry.spec, status="failed", error=str(error),
            attempts=entry.attempt,
            wall_seconds=now - entry.started, backend=self.name)

    def _kill(self, entry: "_Running") -> None:
        if entry.proc.is_alive():
            entry.proc.terminate()
            entry.proc.join(1.0)
            if entry.proc.is_alive():  # pragma: no cover - stuck in D
                entry.proc.kill()
                entry.proc.join(1.0)
