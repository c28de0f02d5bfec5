"""Cross-process run telemetry: heartbeats, lifecycle events, reports.

A sweep under :class:`~repro.exec.backends.ProcessPoolBackend` is
normally a black box until the last job lands.  This module gives every
run an on-disk telemetry directory that can be read *while the run is
in flight* by another process (``python -m repro status``):

``<cache>/telemetry-v1/<run-id>/``
    ``run.json``          — run manifest (job list, backend, jobs knob)
    ``events.jsonl``      — engine-side job lifecycle events
                            (queued / started / retrying / done /
                            failed / cached), one JSON object per line
    ``workers/<job>.json`` — worker-side heartbeat: liveness, beat
                            sequence number, and a metrics-registry
                            snapshot, rewritten atomically every beat
    ``run-report.json``   — machine-readable end-of-run report written
                            by the engine (queue waits, per-mode wall
                            seconds, straggler flags)

Write discipline (REPRO002): every single-file artefact lands via a
uniquely named temp file + ``os.replace`` — a reader never sees a torn
JSON document.  ``events.jsonl`` is append-only with a single writer
(the engine); readers tolerate a torn final line.  Everything in this
directory is *telemetry*: wall-clock timestamps (``time.time`` so they
compare across processes) are inherently volatile and never feed
canonical results.

The schema is deliberately the shape a distributed experiment service
needs (ROADMAP open item 1): heartbeat staleness is how a remote
monitor distinguishes a slow job from a dead worker.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro._atomic import atomic_write_bytes

__all__ = [
    "TELEMETRY_DIR_NAME", "HEARTBEAT_INTERVAL", "STALE_AFTER",
    "HeartbeatWriter", "RunTelemetry",
    "default_telemetry_root", "find_latest_run", "wall_now",
    "read_events", "read_heartbeats", "read_manifest", "read_report",
    "job_status_rows", "format_status_table",
]

TELEMETRY_DIR_NAME = "telemetry-v1"

#: seconds between worker heartbeats
HEARTBEAT_INTERVAL = 1.0

#: a running job whose latest heartbeat is older than this is stalled
STALE_AFTER = 10.0

REPORT_NAME = "run-report.json"
MANIFEST_NAME = "run.json"
EVENTS_NAME = "events.jsonl"
WORKERS_DIR = "workers"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def default_telemetry_root() -> Path:
    """``<cache>/telemetry-v1``, honouring ``REPRO_CACHE_DIR``.

    Mirrors :func:`repro.exec.store.default_cache_root` (duplicated so
    ``repro.obs`` never imports the exec layer above it), resolved per
    call so tests can repoint the cache after import time.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / TELEMETRY_DIR_NAME
    return (Path(__file__).resolve().parents[3] / "benchmarks"
            / ".cache" / TELEMETRY_DIR_NAME)


def wall_now() -> float:
    """Cross-process wall clock for heartbeat/event timestamps."""
    return time.time()  # repro: volatile telemetry timestamps


def _atomic_write_json(path: Path, payload: Dict) -> None:
    """Land ``payload`` as JSON at ``path`` (never a torn read)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, json.dumps(payload, sort_keys=True).encode())


def _read_json(path: Path) -> Optional[Dict]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def _safe_name(job_id: str) -> str:
    return _SAFE_NAME.sub("_", job_id)


# ----------------------------------------------------------------------
# worker side


class HeartbeatWriter:
    """Periodic atomic liveness + metrics snapshots for one job.

    Runs a daemon thread that rewrites ``workers/<job>.json`` every
    ``interval`` seconds; :meth:`stop` writes one final beat carrying
    the terminal status.  The payload embeds a
    :func:`repro.obs.get_registry` snapshot, so whatever instruments
    the simulation updates become visible mid-run.
    """

    def __init__(self, run_dir: Union[str, Path], job_id: str,
                 interval: float = HEARTBEAT_INTERVAL,
                 clock=wall_now):
        self.job_id = job_id
        self.path = (Path(run_dir) / WORKERS_DIR
                     / f"{_safe_name(job_id)}.json")
        self.interval = interval
        self._clock = clock
        self._seq = 0
        self._started_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self, status: str = "running") -> None:
        from .registry import get_registry
        now = self._clock()
        if self._started_at is None:
            self._started_at = now
        self._seq += 1
        _atomic_write_json(self.path, {
            "schema": 1,
            "job_id": self.job_id,
            "pid": os.getpid(),
            "status": status,
            "seq": self._seq,
            "ts": now,
            "started_at": self._started_at,
            "metrics": get_registry().collect(),
        })

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat("running")

    def start(self) -> "HeartbeatWriter":
        self.beat("running")
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat:{self.job_id}",
            daemon=True)
        self._thread.start()
        return self

    def stop(self, status: str = "done") -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.beat(status)

    def __enter__(self) -> "HeartbeatWriter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop("failed" if exc_type is not None else "done")


# ----------------------------------------------------------------------
# engine side


class RunTelemetry:
    """One run's telemetry directory; single writer (the engine)."""

    def __init__(self, root: Union[str, Path, None] = None,
                 run_id: Optional[str] = None):
        base = Path(root) if root is not None else default_telemetry_root()
        if run_id is None:
            # repro: volatile run ids are wall-clock + pid tagged
            stamp = time.strftime("%Y%m%dT%H%M%S")
            run_id = f"run-{stamp}-{os.getpid()}"
        self.run_id = run_id
        self.run_dir = base / run_id
        self._seq = 0
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def write_manifest(self, jobs: List[str], backend: str,
                       parallel_jobs: int) -> None:
        _atomic_write_json(self.run_dir / MANIFEST_NAME, {
            "schema": 1,
            "run_id": self.run_id,
            "created_at": wall_now(),
            "pid": os.getpid(),
            "backend": backend,
            "parallel_jobs": parallel_jobs,
            "jobs": sorted(jobs),
        })

    def emit(self, kind: str, job_id: str, **fields) -> None:
        """Append one lifecycle event to ``events.jsonl``."""
        self._seq += 1
        record = {"seq": self._seq, "ts": wall_now(), "kind": kind,
                  "job": job_id}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        # readers tolerate a torn final line; full files land atomically
        # repro: store-ok append-only single-writer log
        with open(self.run_dir / EVENTS_NAME, "a") as fh:
            fh.write(line + "\n")

    def write_report(self, report: Dict) -> Path:
        path = self.run_dir / REPORT_NAME
        _atomic_write_json(path, report)
        return path


# ----------------------------------------------------------------------
# readers (safe against live writers)


def find_latest_run(root: Union[str, Path, None] = None
                    ) -> Optional[Path]:
    """The most recently created run directory under ``root``, if any."""
    base = Path(root) if root is not None else default_telemetry_root()
    if not base.is_dir():
        return None
    best: Optional[Path] = None
    best_stamp = -1.0
    for candidate in sorted(base.iterdir()):
        manifest = _read_json(candidate / MANIFEST_NAME)
        if manifest is None:
            continue
        stamp = float(manifest.get("created_at", 0.0))
        if stamp >= best_stamp:
            best, best_stamp = candidate, stamp
    return best


def read_manifest(run_dir: Union[str, Path]) -> Optional[Dict]:
    return _read_json(Path(run_dir) / MANIFEST_NAME)


def read_report(run_dir: Union[str, Path]) -> Optional[Dict]:
    return _read_json(Path(run_dir) / REPORT_NAME)


def read_events(run_dir: Union[str, Path]) -> List[Dict]:
    """All parseable lifecycle events; a torn final line is skipped."""
    path = Path(run_dir) / EVENTS_NAME
    try:
        text = path.read_text()
    except OSError:
        return []
    events: List[Dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a concurrent append
        if isinstance(record, dict):
            events.append(record)
    return events


def read_heartbeats(run_dir: Union[str, Path]) -> Dict[str, Dict]:
    """Latest heartbeat per job id (atomic files, so never torn)."""
    workers = Path(run_dir) / WORKERS_DIR
    if not workers.is_dir():
        return {}
    beats: Dict[str, Dict] = {}
    for path in sorted(workers.glob("*.json")):
        beat = _read_json(path)
        if beat and beat.get("job_id"):
            beats[str(beat["job_id"])] = beat
    return beats


_TERMINAL = {"done": "done", "failed": "failed", "cached": "cached"}


def job_status_rows(run_dir: Union[str, Path],
                    now: Optional[float] = None,
                    stale_after: float = STALE_AFTER) -> List[Dict]:
    """Merge lifecycle events + heartbeats into one row per job.

    ``state`` is one of ``queued`` / ``running`` / ``retrying`` /
    ``stalled`` / ``done`` / ``failed`` / ``cached``.  A job whose last
    lifecycle event says it is running but whose newest heartbeat is
    older than ``stale_after`` seconds (or that never wrote one) is
    flagged ``stalled`` — the signature of a killed worker.
    """
    if now is None:
        now = wall_now()
    rows: Dict[str, Dict] = {}

    def row(job_id: str) -> Dict:
        entry = rows.get(job_id)
        if entry is None:
            entry = rows[job_id] = {
                "job": job_id, "state": "queued", "attempt": 0,
                "queue_wait": None, "wall_seconds": None,
                "beats": 0, "beat_age": None,
            }
        return entry

    for event in read_events(run_dir):
        job_id = str(event.get("job", ""))
        if not job_id:
            continue
        entry = row(job_id)
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))
        if kind == "queued":
            entry["state"] = "queued"
            entry["queued_ts"] = ts
        elif kind in ("started", "retrying"):
            entry["state"] = "running" if kind == "started" else "retrying"
            entry["attempt"] = int(event.get("attempt", 1))
            entry["started_ts"] = ts
            queued_ts = entry.get("queued_ts")
            if queued_ts is not None:
                entry["queue_wait"] = max(ts - queued_ts, 0.0)
        elif kind in _TERMINAL:
            entry["state"] = _TERMINAL[kind]
            if "wall_seconds" in event:
                # repro: volatile status rows are telemetry, not results
                entry["wall_seconds"] = event["wall_seconds"]

    for job_id, beat in read_heartbeats(run_dir).items():
        entry = row(job_id)
        entry["beats"] = int(beat.get("seq", 0))
        entry["beat_age"] = max(now - float(beat.get("ts", 0.0)), 0.0)
        entry["metrics"] = beat.get("metrics", {})

    for entry in rows.values():
        if entry["state"] not in ("running", "retrying"):
            continue
        age = entry["beat_age"]
        if age is None:
            started = entry.get("started_ts")
            age = None if started is None else max(now - started, 0.0)
        if age is not None and age > stale_after:
            entry["state"] = "stalled"

    return [rows[job_id] for job_id in sorted(rows)]


def format_status_table(rows: List[Dict]) -> str:
    """Human-readable job table for ``python -m repro status``."""
    lines = [f"{'job':<34} {'state':<9} {'att':>3} {'beats':>5} "
             f"{'beat age':>9} {'q-wait':>7} {'wall':>8}"]

    def fmt(value, suffix="s"):
        return "-" if value is None else f"{value:.1f}{suffix}"

    for entry in rows:
        lines.append(
            f"{entry['job']:<34} {entry['state']:<9} "
            f"{entry['attempt']:>3} {entry['beats']:>5} "
            f"{fmt(entry['beat_age']):>9} {fmt(entry['queue_wait']):>7} "
            f"{fmt(entry['wall_seconds']):>8}")
    states = [entry["state"] for entry in rows]
    active = sum(state in ("queued", "running", "retrying", "stalled")
                 for state in states)
    stalled = states.count("stalled")
    lines.append(f"-- {len(rows)} job(s), {active} in flight, "
                 f"{stalled} stalled")
    return "\n".join(lines)
