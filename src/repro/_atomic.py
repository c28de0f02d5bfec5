"""Whole-file writes that a concurrent reader never sees torn.

The one writer behind every file under the cache root (result store,
checkpoint store, code cache, telemetry) and the bench history.  It
lives in a stdlib-only leaf module so the observability and harness
layers can use it without importing the execution engine.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path
from typing import BinaryIO, Iterator, Union


@contextlib.contextmanager
def atomic_writer(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """Stream a file into place: the body writes to a uniquely named
    temp file in the same directory, which is then ``os.replace``-d
    over ``path``, so a reader sees the old file or the new one, never
    a torn mix.  If the body or the rename fails, the temp file is
    removed and the error propagates."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Land ``payload`` at ``path`` all at once (:func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(payload)
