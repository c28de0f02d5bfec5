"""Sharded, crash-safe result store.

Replaces the single ``results-v1.json`` file (which was rewritten in
full on every insert, with a fixed ``.tmp`` name that two writers could
clobber).  The v2 layout is one JSON file per *benchmark* under
``<cache>/results-v2/``:

* writes are atomic: a uniquely named temp file in the same directory,
  then ``os.replace``;
* each shard write is a read-modify-write under an inter-process file
  lock, so concurrent workers (or two whole sweeps) merge instead of
  clobbering;
* a one-shot migration imports an existing ``results-v1.json`` sitting
  next to the store the first time the store is opened.

Records are ``{"result": PolicyResult.to_dict(), "meta": {...}}``
keyed by ``benchmark|policy|size|fingerprint``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro._atomic import atomic_write_bytes
from repro.sampling import PolicyResult

from .spec import default_fingerprint

try:  # POSIX advisory locks; fall back to O_EXCL spinning elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["FileLock", "ResultStore", "default_cache_root",
           "default_store"]

STORE_DIR_NAME = "results-v2"
V1_FILE_NAME = "results-v1.json"
MIGRATION_MARKER = ".migrated-from-v1"


#: the cache directory when ``REPRO_CACHE_DIR`` is unset
_REPO_CACHE_ROOT = Path(__file__).resolve().parents[3] / "benchmarks" \
    / ".cache"


def default_cache_root() -> Path:
    """The cache directory, resolved *per call* so tests and callers
    can set ``REPRO_CACHE_DIR`` after import time."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return _REPO_CACHE_ROOT


def default_store() -> "ResultStore":
    """A store rooted at the current default cache directory."""
    return ResultStore(default_cache_root() / STORE_DIR_NAME)


class FileLock:
    """Inter-process lock on a path (``flock`` or O_EXCL fallback)."""

    #: a fallback lock file older than this is considered abandoned
    STALE_SECONDS = 60.0

    def __init__(self, path: Path, timeout: float = 30.0,
                 poll: float = 0.01) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self._fd: Optional[int] = None
        self._exclusive = False

    def __enter__(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            while True:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return self
                except OSError:
                    if time.monotonic() >= deadline:
                        os.close(self._fd)
                        self._fd = None
                        raise TimeoutError(
                            f"could not lock {self.path} within "
                            f"{self.timeout}s") from None
                    time.sleep(self.poll)
        while True:  # pragma: no cover - exercised only without fcntl
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_RDWR)
                self._exclusive = True
                return self
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                    if age > self.STALE_SECONDS:
                        self.path.unlink()
                        continue
                except OSError:
                    pass
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not lock {self.path} within "
                        f"{self.timeout}s") from None
                time.sleep(self.poll)

    def __exit__(self, *exc_info: object) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        if self._exclusive:
            try:
                self.path.unlink()
            except OSError:
                pass
            self._exclusive = False


class ResultStore:
    """Sharded per-benchmark JSON store of PolicyResult records."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = (Path(root) if root is not None
                     else default_cache_root() / STORE_DIR_NAME)
        self._shards: Dict[str, Dict[str, dict]] = {}
        self._migration_checked = False

    # -- paths ----------------------------------------------------------

    @staticmethod
    def shard_name(key: str) -> str:
        return key.split("|", 1)[0]

    def _shard_path(self, benchmark: str) -> Path:
        return self.root / f"{benchmark}.json"

    def _lock_path(self, benchmark: str) -> Path:
        return self.root / f"{benchmark}.json.lock"

    # -- disk I/O -------------------------------------------------------

    @staticmethod
    def _read_disk(path: Path) -> Dict[str, dict]:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    # -- API ------------------------------------------------------------

    def get(self, key: str) -> Optional[PolicyResult]:
        self._maybe_migrate_v1()
        benchmark = self.shard_name(key)
        shard = self._shards.get(benchmark)
        if shard is None:
            shard = self._read_disk(self._shard_path(benchmark))
            self._shards[benchmark] = shard
        record = shard.get(key)
        if not record:
            return None
        try:
            return PolicyResult.from_dict(record["result"])
        except (KeyError, TypeError):
            return None

    def put(self, key: str, result: PolicyResult,
            meta: Optional[dict] = None) -> None:
        self._maybe_migrate_v1()
        benchmark = self.shard_name(key)
        path = self._shard_path(benchmark)
        record = {"result": result.to_dict(), "meta": meta or {}}
        self.root.mkdir(parents=True, exist_ok=True)
        with FileLock(self._lock_path(benchmark)):
            data = self._read_disk(path)  # merge with concurrent writers
            data[key] = record
            atomic_write_bytes(path, json.dumps(data).encode())
        self._shards[benchmark] = data

    def keys(self) -> Iterator[str]:
        self._maybe_migrate_v1()
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            yield from sorted(self._read_disk(path))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def refresh(self) -> None:
        """Drop the in-memory shard cache (re-read on next access)."""
        self._shards.clear()

    # -- v1 migration ---------------------------------------------------

    def _maybe_migrate_v1(self) -> None:
        if self._migration_checked:
            return
        self._migration_checked = True
        v1_path = self.root.parent / V1_FILE_NAME
        if not v1_path.exists() or (self.root / MIGRATION_MARKER).exists():
            return
        if any(self.root.glob("*.json")):
            return  # a v2 store already exists; don't mix generations
        self.migrate_from_v1(v1_path)

    def migrate_from_v1(self, v1_path: Path) -> int:
        """One-shot import of a legacy ``results-v1.json`` file.

        v1 keys were ``benchmark|policy|size`` with no fingerprint;
        they are imported under the *current default* fingerprint (the
        configuration they were produced with, for any cache written by
        this codebase).  Returns the number of records imported.
        """
        old = self._read_disk(Path(v1_path))
        fingerprint = default_fingerprint()
        shards: Dict[str, Dict[str, dict]] = {}
        for old_key, record in old.items():
            parts = old_key.split("|")
            if len(parts) != 3 or not isinstance(record, dict):
                continue
            benchmark, policy, size = parts
            record = dict(record)
            record.setdefault("fingerprint", fingerprint)
            new_key = f"{benchmark}|{policy}|{size}|{fingerprint}"
            shards.setdefault(benchmark, {})[new_key] = {
                "result": record,
                "meta": {"migrated_from": V1_FILE_NAME},
            }
        self.root.mkdir(parents=True, exist_ok=True)
        imported = 0
        for benchmark, records in shards.items():
            path = self._shard_path(benchmark)
            with FileLock(self._lock_path(benchmark)):
                data = self._read_disk(path)
                data.update(records)
                atomic_write_bytes(path, json.dumps(data).encode())
            self._shards[benchmark] = data
            imported += len(records)
        # repro: store-ok idempotent marker, not a record shard
        (self.root / MIGRATION_MARKER).write_text(
            f"imported {imported} records from {v1_path.name}\n")
        return imported
