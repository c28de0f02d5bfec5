"""On-disk checkpoint store: content-addressed frame blobs + manifests.

Lives beside ``results-v2/`` in the cache directory, with the same
crash-safety discipline as :mod:`repro.exec.store`: every file lands via
a uniquely named temp file then ``os.replace``, and manifest publication
holds the same :class:`~repro.exec.store.FileLock`, so pool workers can
publish and consume checkpoints concurrently and a crashed run resumes
from whatever ladder survived.

Layout (``<cache>/checkpoints-v1/``)::

    blobs/<dd>/<digest>.z            zlib frame blobs, content-addressed
    <program_fp>/<config_fp>/
        ckpt-<key>.json              one manifest per ladder rung
        profile-<interval>.json      memoized BBV profile artifacts
        .lock                        publish lock for this ladder

A manifest records the full guest state of one
:class:`repro.kernel.checkpoint.Checkpoint` except frame *contents*,
which it references by hash — so a ladder of N rungs stores each
distinct page image exactly once, and delta rungs cost only their dirty
pages.  Ladders are keyed by (program fingerprint, machine-config
fingerprint): the guest prefix is pure functional execution, so any job
of the same benchmark and machine shape can share rungs regardless of
timing configuration.

Within a ladder, rungs are keyed by the run's *fast-forward target
history* — the sequence of pristine ``fast_forward`` targets that led
to the stop — not by a fixed icount spacing.  Translated superblock
loops iterate internally while the instruction budget allows, so
*where* a run stops affects ``block_dispatches``: a checkpoint is only
bit-identical (vmstats included) to an uncheckpointed run that would
have made exactly the same stops.  Keying rungs by the stop history
makes that guarantee structural: a consumer can only load a rung whose
producing run stopped precisely where the consumer was about to stop.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro._atomic import atomic_write_bytes
from repro.kernel.checkpoint import Checkpoint, take as take_checkpoint

from .store import FileLock, default_cache_root

__all__ = [
    "CKPT_DIR_NAME", "CheckpointStore", "CheckpointLadder",
    "program_fingerprint", "rung_key",
]

CKPT_DIR_NAME = "checkpoints-v1"

_RUNG_RE = re.compile(r"^ckpt-([0-9a-f]+)\.json$")

#: artifact names must be filesystem-safe and must not collide with the
#: ``ckpt-<key>`` rung namespace
_ARTIFACT_RE = re.compile(r"^(?!ckpt-)[A-Za-z0-9._-]+$")


def rung_key(targets: Iterable[int]) -> str:
    """The rung key for a pristine fast-forward target history."""
    text = ",".join(str(target) for target in targets)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def program_fingerprint(workload: object) -> str:
    """A short stable hash of the guest program image.

    Hashes the workload name, entry point and every segment's bytes —
    two workloads share a ladder only if their boots are bit-identical.
    """
    program = workload.program
    digest = hashlib.sha256()
    digest.update(workload.name.encode("utf-8"))
    digest.update(str(program.entry).encode("ascii"))
    for base, data in sorted(program.flatten().items()):
        digest.update(str(base).encode("ascii"))
        digest.update(data)
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# manifest codec (JSON-safe: ints as string keys, bytes as base64)

def _b64(data: bytes) -> str:
    return base64.b64encode(bytes(data)).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text)


def _int_keys(mapping: Dict) -> Dict:
    return {int(key): value for key, value in mapping.items()}


def _str_keys(mapping: Dict) -> Dict:
    return {str(key): value for key, value in mapping.items()}


def encode_manifest(checkpoint: Checkpoint) -> Dict:
    """Flatten a checkpoint to a JSON-safe manifest (no frame bytes)."""
    disk = dict(checkpoint.disk)
    disk["sectors"] = {str(lba): _b64(data)
                       for lba, data in disk["sectors"].items()}
    disk["staging"] = _b64(disk["staging"])
    console = dict(checkpoint.console)
    console["output"] = _b64(console["output"])
    console["input"] = _b64(console["input"])
    nic = dict(checkpoint.nic)
    nic["rx_queue"] = [_b64(packet) for packet in nic["rx_queue"]]
    kernel = dict(checkpoint.kernel)
    kernel["regions"] = [list(region) for region in kernel["regions"]]
    kernel["syscall_counts"] = _str_keys(kernel["syscall_counts"])
    manifest = {
        "cpu": checkpoint.cpu,
        "frame_hashes": _str_keys(checkpoint.frame_hashes),
        "next_free_frame": checkpoint.next_free_frame,
        "page_table": {str(vpn): list(entry)
                       for vpn, entry in checkpoint.page_table.items()},
        "stats": checkpoint.stats,
        "profile_counts": _str_keys(checkpoint.profile_counts),
        "pending_irqs": list(checkpoint.pending_irqs),
        "fast_cache": list(checkpoint.fast_cache),
        "kernel": kernel,
        "console": console,
        "disk": disk,
        "timer": checkpoint.timer,
        "nic": nic,
    }
    if checkpoint.cores is not None:
        # SMP only: single-core manifests stay byte-identical to the
        # pre-SMP format, so committed ladders remain loadable (and
        # shareable) across versions.
        manifest["cores"] = [{
            "cpu": snap["cpu"],
            "stats": snap["stats"],
            "profile_counts": _str_keys(snap["profile_counts"]),
            "pending_irqs": list(snap["pending_irqs"]),
            "fast_cache": list(snap["fast_cache"]),
        } for snap in checkpoint.cores]
    return manifest


def decode_manifest(data: Dict, blobs: Dict[str, bytes]) -> Checkpoint:
    """Rebuild a self-contained checkpoint from a manifest + its blobs."""
    disk = dict(data["disk"])
    disk["sectors"] = {int(lba): _unb64(text)
                       for lba, text in disk["sectors"].items()}
    disk["staging"] = _unb64(disk["staging"])
    console = dict(data["console"])
    console["output"] = _unb64(console["output"])
    console["input"] = _unb64(console["input"])
    nic = dict(data["nic"])
    nic["rx_queue"] = [_unb64(text) for text in nic["rx_queue"]]
    kernel = dict(data["kernel"])
    kernel["regions"] = [tuple(region) for region in kernel["regions"]]
    kernel["syscall_counts"] = _int_keys(kernel["syscall_counts"])
    cores = None
    if data.get("cores") is not None:
        cores = [{
            "cpu": snap["cpu"],
            "stats": snap["stats"],
            "profile_counts": _int_keys(snap["profile_counts"]),
            "pending_irqs": list(snap["pending_irqs"]),
            "fast_cache": list(snap["fast_cache"]),
        } for snap in data["cores"]]
    return Checkpoint(
        cpu=data["cpu"],
        frame_hashes=_int_keys(data["frame_hashes"]),
        blobs=blobs,
        next_free_frame=data["next_free_frame"],
        page_table={int(vpn): tuple(entry)
                    for vpn, entry in data["page_table"].items()},
        stats=data["stats"],
        profile_counts=_int_keys(data["profile_counts"]),
        pending_irqs=list(data["pending_irqs"]),
        fast_cache=list(data["fast_cache"]),
        kernel=kernel,
        console=console,
        disk=disk,
        timer=data["timer"],
        nic=nic,
        cores=cores,
    )


# ----------------------------------------------------------------------
# the store

class CheckpointStore:
    """Content-addressed checkpoint storage under one root directory."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = (Path(root) if root is not None
                     else default_cache_root() / CKPT_DIR_NAME)
        #: in-process blob cache, shared across every ladder rung so a
        #: page image materializes at most once per worker
        self._blob_cache: Dict[str, bytes] = {}

    # -- paths ----------------------------------------------------------

    def blob_path(self, digest: str) -> Path:
        return self.root / "blobs" / digest[:2] / f"{digest}.z"

    def ladder_dir(self, program_fp: str, config_fp: str) -> Path:
        return self.root / program_fp / config_fp

    def _lock_path(self, program_fp: str, config_fp: str) -> Path:
        return self.ladder_dir(program_fp, config_fp) / ".lock"

    # -- blobs ----------------------------------------------------------

    def put_blob(self, digest: str, data: bytes) -> bool:
        """Store one frame blob; returns False if it already existed."""
        self._blob_cache.setdefault(digest, bytes(data))
        path = self.blob_path(digest)
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, zlib.compress(bytes(data), 6))
        return True

    def get_blob(self, digest: str) -> Optional[bytes]:
        blob = self._blob_cache.get(digest)
        if blob is not None:
            return blob
        try:
            blob = zlib.decompress(self.blob_path(digest).read_bytes())
        except (OSError, zlib.error):
            return None  # absent or torn: a miss, never a raise
        if hashlib.sha256(blob).hexdigest() != digest:
            return None  # decompresses, but not to the frame it names
        self._blob_cache[digest] = blob
        return blob

    # -- checkpoints -----------------------------------------------------

    def publish_checkpoint(self, program_fp: str, config_fp: str,
                           key: str, checkpoint: Checkpoint) -> Path:
        """Write ``checkpoint``'s blobs + manifest (idempotent, atomic).

        Every referenced blob is ensured on disk — not only this rung's
        deltas — so a manifest is always self-contained even if earlier
        rungs of the ladder were pruned or never published.
        """
        ladder = self.ladder_dir(program_fp, config_fp)
        ladder.mkdir(parents=True, exist_ok=True)
        for digest in set(checkpoint.frame_hashes.values()):
            if not self.blob_path(digest).exists():
                self.put_blob(digest, checkpoint.resolve_blob(digest))
        manifest = json.dumps(encode_manifest(checkpoint),
                              sort_keys=True).encode("utf-8")
        path = ladder / f"ckpt-{key}.json"
        with FileLock(self._lock_path(program_fp, config_fp)):
            if not path.exists():
                atomic_write_bytes(path, manifest)
        return path

    def load_checkpoint(self, program_fp: str, config_fp: str,
                        key: str) -> Optional[Checkpoint]:
        """Load one rung; None if absent or any blob is unresolvable."""
        path = self.ladder_dir(program_fp, config_fp) \
            / f"ckpt-{key}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        blobs: Dict[str, bytes] = {}
        for digest in set(data["frame_hashes"].values()):
            blob = self.get_blob(digest)
            if blob is None:
                return None  # torn ladder (crash mid-publish): skip rung
            blobs[digest] = blob
        return decode_manifest(data, blobs)

    def list_rungs(self, program_fp: str, config_fp: str) -> List[str]:
        ladder = self.ladder_dir(program_fp, config_fp)
        if not ladder.is_dir():
            return []
        rungs = []
        for path in ladder.iterdir():
            match = _RUNG_RE.match(path.name)
            if match:
                rungs.append(match.group(1))
        return sorted(rungs)

    # -- memoized derived artifacts (BBV profiles, SimPoint selections:
    # anything that is a pure deterministic function of the guest
    # program + machine config, so a cache hit changes no result) ------

    def publish_artifact(self, program_fp: str, config_fp: str,
                         name: str, payload: Dict) -> Path:
        if not _ARTIFACT_RE.match(name):
            raise ValueError(f"bad artifact name {name!r}")
        ladder = self.ladder_dir(program_fp, config_fp)
        ladder.mkdir(parents=True, exist_ok=True)
        path = ladder / f"{name}.json"
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        with FileLock(self._lock_path(program_fp, config_fp)):
            if not path.exists():
                atomic_write_bytes(path, blob)
        return path

    def load_artifact(self, program_fp: str, config_fp: str,
                      name: str) -> Optional[Dict]:
        if not _ARTIFACT_RE.match(name):
            raise ValueError(f"bad artifact name {name!r}")
        path = self.ladder_dir(program_fp, config_fp) / f"{name}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def publish_profile(self, program_fp: str, config_fp: str,
                        interval: int, payload: Dict) -> Path:
        return self.publish_artifact(program_fp, config_fp,
                                     f"profile-{interval}", payload)

    def load_profile(self, program_fp: str, config_fp: str,
                     interval: int) -> Optional[Dict]:
        return self.load_artifact(program_fp, config_fp,
                                  f"profile-{interval}")


# ----------------------------------------------------------------------
# the ladder

class CheckpointLadder:
    """One benchmark's rungs in a store, keyed by stop history.

    ``key`` arguments come from :func:`rung_key` over the run's
    pristine fast-forward target sequence (see the module docstring for
    why rungs cannot be shared across different stop histories).
    """

    def __init__(self, store: CheckpointStore, program_fp: str,
                 config_fp: str) -> None:
        self.store = store
        self.program_fp = program_fp
        self.config_fp = config_fp

    def publish(self, key: str, system: object,
                parent: Optional[Checkpoint] = None) -> Checkpoint:
        """Take a delta snapshot of ``system`` and publish it."""
        checkpoint = take_checkpoint(system, parent=parent)
        self.store.publish_checkpoint(self.program_fp, self.config_fp,
                                      key, checkpoint)
        return checkpoint

    def load(self, key: str) -> Optional[Checkpoint]:
        return self.store.load_checkpoint(self.program_fp,
                                          self.config_fp, key)

    def rungs(self) -> List[str]:
        return self.store.list_rungs(self.program_fp, self.config_fp)

    # -- derived artifacts ----------------------------------------------

    def publish_artifact(self, name: str, payload: Dict) -> None:
        self.store.publish_artifact(self.program_fp, self.config_fp,
                                    name, payload)

    def load_artifact(self, name: str) -> Optional[Dict]:
        return self.store.load_artifact(self.program_fp, self.config_fp,
                                        name)

    def publish_profile(self, interval: int, payload: Dict) -> None:
        self.store.publish_profile(self.program_fp, self.config_fp,
                                   interval, payload)

    def load_profile(self, interval: int) -> Optional[Dict]:
        return self.store.load_profile(self.program_fp, self.config_fp,
                                       interval)
