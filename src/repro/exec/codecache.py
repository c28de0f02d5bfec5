"""Persistent, verified code cache: vetted block code across processes.

The translator's in-process cache (``repro.vm.translator._CODE_CACHE``)
dies with the process, so every CLI invocation and pool worker used to
pay the sanitizer and ``compile()`` again for blocks an earlier process
had already vetted.  This store keeps the compiled code of every block
that passed the sanitizer under ``<cache>/codecache-v2/``, beside
``results-v2/`` and ``checkpoints-v1/``, one pack file per job::

    codecache-v2/<pid>-<random>.pack

* **key** — sha256 over ``importlib.util.MAGIC_NUMBER`` (the bytecode
  format), the sanitizer module's own bytes (a tightened whitelist
  invalidates every old verdict), the code's filename, the sorted
  environment names the code runs against, and the source.  Vetting
  and ``compile()`` are pure functions of exactly these inputs.
* **record** — ``key ‖ sha256(payload) ‖ payload`` with
  ``payload = marshal.dumps(code)``.
* **pack** — a header (:data:`PACK_MAGIC`, record count), an index of
  ``(key, offset, length)`` slots, then the records.  Packs never
  change once written.
* **writes** — :func:`store` queues a record in memory and
  :func:`flush` writes the queue as one pack through
  :func:`~repro._atomic.atomic_writer`.  ``execute_spec`` flushes when
  its job ends (pool workers leave through ``os._exit``, so ``atexit``
  never runs there), and :func:`flush` is registered with ``atexit``
  for direct users of ``Machine``.  A forked child drops the queue and
  index it inherited, so it never writes its parent's records.
* **merge** — before it writes, a flush absorbs every indexed pack no
  larger than the pack it holds so far, smallest first.  It copies the
  records that verify one at a time, then unlinks the absorbed packs.
  Jobs of equal size therefore leave at most ⌊log2 N⌋+1 packs after N
  jobs (a binary counter), and damaged records are dropped, which is
  how the cache heals.
* **reads** — :func:`load` checks this process's queue, then an index
  of every pack, built on the first lookup from the pack headers
  alone.  A hit reads its record with ``os.pread`` through the handle
  the index keeps open, so a pack that a concurrent merge unlinks
  stays readable.  When a key sits in several packs, the first copy
  that verifies serves it.
* **trust** — only a process that ran the sanitizer on the source
  queues its record (the translator calls :func:`store` only after a
  vetted compile), so with ``REPRO_SANITIZE=0`` packs are read but
  never written.
* **corruption is a miss** — a load checks the stored key and the
  payload digest before unmarshalling, and any ``OSError``,
  ``ValueError``, ``EOFError`` or ``TypeError`` reads as a miss, so a
  torn or bit-flipped record is vetted and compiled afresh, never run.
  A pack whose header or index cannot be read serves nothing and
  counts as corrupt once, when the index is built; the next merge
  removes it.  A listed pack that is gone before it is opened (a
  concurrent merge absorbed it) is simply absent.

Lookups are counted module-locally (:func:`stats`) and in the
:mod:`repro.obs` registry as ``codecache.hit`` / ``codecache.miss`` /
``codecache.corrupt`` (a lookup that finds only damaged copies also
counts as a miss).  Delete the directory to clear the cache.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import importlib.util
import marshal
import os
import struct
import uuid
from pathlib import Path
from types import CodeType
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro._atomic import atomic_writer

from .store import default_cache_root

__all__ = ["CODECACHE_DIR_NAME", "PACK_MAGIC", "entry_key", "load",
           "store", "flush", "stats", "reset_stats"]

CODECACHE_DIR_NAME = "codecache-v2"

PACK_MAGIC = b"reprocc2"
_HEADER = struct.Struct("<8sI")   # magic, record count
_SLOT = struct.Struct("<32sQI")   # key, record offset, record length

_DIGEST = 32  # sha256 bytes: the key, then the payload digest

_STATS = {"hit": 0, "miss": 0, "corrupt": 0}

#: sha256 of the sanitizer module's bytes, read once per process
_SANITIZER_DIGEST: Optional[bytes] = None


class _Pack(NamedTuple):
    """One pack opened for reading; a damaged one has no handle
    (``fd == -1``), no slots and weighs nothing in a merge."""

    path: str
    fd: int = -1
    size: int = 0
    slots: Tuple[Tuple[bytes, int, int], ...] = ()


#: the pack directory the queue and index below belong to
_DIRECTORY: Optional[str] = None
#: key -> record: code vetted in this process, not yet flushed
_QUEUE: Dict[bytes, bytes] = {}
#: the packs of _DIRECTORY, opened on the first lookup (None: not yet)
_PACKS: Optional[List[_Pack]] = None
#: key -> its copies ``(pack, offset, length)``, in pack order
_INDEX: Dict[bytes, List[Tuple[_Pack, int, int]]] = {}


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


def _bind() -> str:
    """The pack directory under the current cache root.  A queue that
    belongs to an earlier root is flushed there first."""
    global _DIRECTORY
    directory = os.path.join(default_cache_root(), CODECACHE_DIR_NAME)
    if directory != _DIRECTORY:
        flush()
        _DIRECTORY = directory
    return directory


def _open_pack(path: str) -> Optional[_Pack]:
    """The pack at ``path`` with its index slots, or None when it is
    gone.  A pack that cannot be read counts as corrupt and comes back
    empty, so the next merge removes it."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    except OSError:
        _count("corrupt")
        return _Pack(path)
    try:
        size = os.fstat(fd).st_size
        magic, count = _HEADER.unpack(os.pread(fd, _HEADER.size, 0))
        end = _HEADER.size + count * _SLOT.size
        if magic != PACK_MAGIC or end > size:
            raise ValueError(f"damaged pack header: {path}")
        slots = tuple(_SLOT.iter_unpack(
            os.pread(fd, end - _HEADER.size, _HEADER.size)))
    except (OSError, ValueError, struct.error):
        os.close(fd)
        _count("corrupt")
        return _Pack(path)
    return _Pack(path, fd, size, slots)


def _packs(directory: str) -> List[_Pack]:
    """Every pack in ``directory``, opened and indexed once."""
    global _PACKS
    if _PACKS is None:
        _PACKS = []
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".pack"):
                continue
            pack = _open_pack(os.path.join(directory, name))
            if pack is None:
                continue
            _PACKS.append(pack)
            for key, offset, length in pack.slots:
                _INDEX.setdefault(key, []).append((pack, offset, length))
    return _PACKS


def _decode(key: bytes, record: bytes) -> Optional[CodeType]:
    """The code in ``record`` if it is ``key``'s and its digest holds."""
    payload = record[2 * _DIGEST:]
    if (record[:_DIGEST] != key
            or record[_DIGEST:2 * _DIGEST]
            != hashlib.sha256(payload).digest()):
        return None
    try:
        code = marshal.loads(payload)
    except (ValueError, EOFError, TypeError):
        return None
    return code if isinstance(code, CodeType) else None


def _read(pack: _Pack, key: bytes, offset: int,
          length: int) -> Optional[CodeType]:
    if offset + length > pack.size:
        return None
    try:
        return _decode(key, os.pread(pack.fd, length, offset))
    except OSError:
        return None


def load(key: bytes) -> Optional[CodeType]:
    """The vetted code stored under ``key``, or None (a miss)."""
    directory = _bind()
    record = _QUEUE.get(key)
    if record is not None:  # vetted by this very process
        _count("hit")
        return _decode(key, record)
    _packs(directory)
    copies = _INDEX.get(key, ())
    for pack, offset, length in copies:
        code = _read(pack, key, offset, length)
        if code is not None:
            _count("hit")
            return code
    if copies:
        _count("corrupt")
    _count("miss")
    return None


def store(key: bytes, code: CodeType) -> None:
    """Queue ``code`` under ``key`` for the next :func:`flush`.
    Callers must have vetted the source the code was compiled from."""
    _bind()
    payload = marshal.dumps(code)
    _QUEUE[key] = key + hashlib.sha256(payload).digest() + payload


def _remove(path: str) -> None:
    with contextlib.suppress(OSError):
        try:
            os.unlink(path)
        except IsADirectoryError:  # damage under a pack's name
            os.rmdir(path)


def _write_pack(directory: str) -> None:
    """One pack of the queue plus the small packs it absorbs."""
    layout = [(key, len(record)) for key, record in _QUEUE.items()]
    held = _HEADER.size + sum(_SLOT.size + length
                              for _, length in layout)
    seen = set(_QUEUE)
    copies: List[Tuple[_Pack, int, int]] = []
    absorbed: List[_Pack] = []
    for pack in sorted(_packs(directory), key=lambda pack: pack.size):
        if pack.size > held:
            break
        absorbed.append(pack)
        for key, offset, length in pack.slots:
            if (key not in seen
                    and _read(pack, key, offset, length) is not None):
                seen.add(key)
                layout.append((key, length))
                copies.append((pack, offset, length))
                held += _SLOT.size + length
    os.makedirs(directory, exist_ok=True)
    name = f"{os.getpid()}-{uuid.uuid4().hex[:8]}.pack"
    with atomic_writer(os.path.join(directory, name)) as handle:
        handle.write(_HEADER.pack(PACK_MAGIC, len(layout)))
        offset = _HEADER.size + len(layout) * _SLOT.size
        for key, length in layout:
            handle.write(_SLOT.pack(key, offset, length))
            offset += length
        for record in _QUEUE.values():
            handle.write(record)
        for pack, start, length in copies:
            handle.write(os.pread(pack.fd, length, start))
    for pack in absorbed:
        _remove(pack.path)


def flush() -> None:
    """Write this process's queued records as one pack (absorbing the
    small packs first, see the module doc), then forget the queue and
    the index, as a new process would.  Best effort: a pack that cannot
    be written only costs a later process a recompile."""
    try:
        if _QUEUE and _DIRECTORY is not None:
            _write_pack(_DIRECTORY)
    except OSError:
        pass
    finally:
        _forget()


def _forget() -> None:
    """Drop the queue and close the index."""
    global _PACKS
    _QUEUE.clear()
    _INDEX.clear()
    for pack in _PACKS or ():
        if pack.fd >= 0:
            with contextlib.suppress(OSError):
                os.close(pack.fd)
    _PACKS = None


atexit.register(flush)
os.register_at_fork(after_in_child=_forget)
