"""Persistent, verified code cache: vetted block code across processes.

The translator's in-process cache (``repro.vm.translator._CODE_CACHE``)
dies with the process, so every CLI invocation and pool worker used to
pay the sanitizer and ``compile()`` again for blocks an earlier process
had already vetted.  This store keeps the compiled code of every block
that passed the sanitizer under ``<cache>/codecache-v1/``, beside
``results-v2/`` and ``checkpoints-v1/``::

    codecache-v1/<kk>/<key>.bin     one entry per vetted block

* **key** — sha256 over ``importlib.util.MAGIC_NUMBER`` (the bytecode
  format), the sanitizer module's own bytes (a tightened whitelist
  invalidates every old verdict), the code's filename, the sorted
  environment names the code runs against, and the source.  Vetting
  and ``compile()`` are pure functions of exactly these inputs.
* **entry** — ``key ‖ sha256(payload) ‖ payload`` with
  ``payload = marshal.dumps(code)``.
* **trust** — only a process that ran the sanitizer on the source
  writes its entry (the translator calls :func:`store` only after a
  vetted compile), so with ``REPRO_SANITIZE=0`` entries are read but
  never written.
* **corruption is a miss** — a load checks the stored key and the
  payload digest before unmarshalling, and any ``OSError``,
  ``ValueError``, ``EOFError`` or ``TypeError`` reads as a miss, so a
  torn or bit-flipped entry is vetted and compiled afresh, never run.

Entries are content-addressed and never change once written, so writes
need no lock: each lands whole via
:func:`~repro._atomic.atomic_write_bytes`, and two writers of one key
write the same code.  Lookups are counted module-locally
(:func:`stats`) and in the :mod:`repro.obs` registry as
``codecache.hit`` / ``codecache.miss`` / ``codecache.corrupt`` (a
corrupt entry also counts as a miss).  Delete the directory to clear
the cache.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
from pathlib import Path
from types import CodeType
from typing import Iterable, Optional

from repro._atomic import atomic_write_bytes

from .store import default_cache_root

__all__ = ["CODECACHE_DIR_NAME", "entry_key", "entry_path", "load",
           "store", "stats", "reset_stats"]

CODECACHE_DIR_NAME = "codecache-v1"

_DIGEST = 32  # sha256 bytes: the key, then the payload digest

_STATS = {"hit": 0, "miss": 0, "corrupt": 0}

#: sha256 of the sanitizer module's bytes, read once per process
_SANITIZER_DIGEST: Optional[bytes] = None


def stats() -> dict:
    """Process-local lookup counters (tests, CI evidence)."""
    return dict(_STATS)


def reset_stats() -> None:
    for name in _STATS:
        _STATS[name] = 0


def _count(name: str) -> None:
    _STATS[name] += 1
    from repro.obs import get_registry  # no-op unless metrics are on
    get_registry().counter(f"codecache.{name}").inc()


def _sanitizer_digest() -> bytes:
    global _SANITIZER_DIGEST
    if _SANITIZER_DIGEST is None:
        from repro.analysis import sanitizer
        _SANITIZER_DIGEST = hashlib.sha256(
            Path(sanitizer.__file__).read_bytes()).digest()
    return _SANITIZER_DIGEST


def entry_key(filename: str, env_names: Iterable[str],
              source: str) -> bytes:
    """The content key of one compiled block (see the module doc)."""
    digest = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    digest.update(_sanitizer_digest())
    digest.update(filename.encode("utf-8") + b"\0")
    digest.update("\0".join(sorted(env_names)).encode("utf-8") + b"\0")
    digest.update(source.encode("utf-8"))
    return digest.digest()


def entry_path(key: bytes) -> str:
    """Where the entry for ``key`` lives under the current cache root
    (plain strings: this runs once per translated block)."""
    name = key.hex()
    return os.path.join(default_cache_root(), CODECACHE_DIR_NAME,
                        name[:2], name + ".bin")


def load(key: bytes) -> Optional[CodeType]:
    """The vetted code stored under ``key``, or None (a miss)."""
    try:
        with open(entry_path(key), "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        _count("miss")
        return None
    except OSError:
        data = b""
    payload = data[2 * _DIGEST:]
    code = None
    if (data[:_DIGEST] == key
            and data[_DIGEST:2 * _DIGEST]
            == hashlib.sha256(payload).digest()):
        try:
            code = marshal.loads(payload)
        except (ValueError, EOFError, TypeError):
            code = None
    if not isinstance(code, CodeType):
        _count("corrupt")
        _count("miss")
        return None
    _count("hit")
    return code


def store(key: bytes, code: CodeType) -> None:
    """Persist ``code`` under ``key``.  Callers must have vetted the
    source the code was compiled from.  Best effort: a cache that
    cannot be written only costs a later process a recompile."""
    payload = marshal.dumps(code)
    entry = key + hashlib.sha256(payload).digest() + payload
    path = entry_path(key)
    try:
        try:
            atomic_write_bytes(path, entry)
        except FileNotFoundError:  # first entry of its shard
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_bytes(path, entry)
    except OSError:
        pass
