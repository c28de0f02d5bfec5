"""Tests for the on-disk checkpoint store: round trips, dedup,
torn-ladder recovery, artifacts, and concurrent-writer integrity."""

import hashlib
import json
import multiprocessing
import zlib

import pytest

from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                 program_fingerprint, rung_key)
from repro.kernel.checkpoint import restore, take
from repro.workloads import WorkloadBuilder


def build_workload(seed=9):
    builder = WorkloadBuilder("ckpt-store", seed=seed)
    builder.phase("crc", iters=4000)
    builder.phase("stream", n=512, iters=4)
    builder.phase("console_io", nbytes=16)
    return builder.build()


def booted(icount=20_000):
    system = build_workload().boot()
    system.run(icount)
    return system


# ----------------------------------------------------------------------
# keys


def test_rung_key_depends_on_full_history():
    assert rung_key([1000]) == rung_key([1000])
    assert rung_key([1000]) != rung_key([2000])
    # same final target, different path -> different rung
    assert rung_key([1000, 5000]) != rung_key([5000])
    assert len(rung_key([7])) == 16


def test_program_fingerprint_distinguishes_programs():
    builder = WorkloadBuilder("ckpt-store", seed=9)
    builder.phase("crc", iters=5000)  # different program image
    other = builder.build()
    a = program_fingerprint(build_workload())
    assert a == program_fingerprint(build_workload())
    assert a != program_fingerprint(other)


# ----------------------------------------------------------------------
# checkpoint round trips


def test_publish_load_round_trip_is_bit_identical(tmp_path):
    system = booted()
    checkpoint = take(system)
    store = CheckpointStore(tmp_path / "ckpt")
    store.publish_checkpoint("prog", "cfg", "aa", checkpoint)

    # a *fresh* store instance (empty blob cache) must reconstruct the
    # identical checkpoint from disk alone
    fresh = CheckpointStore(tmp_path / "ckpt")
    loaded = fresh.load_checkpoint("prog", "cfg", "aa")
    assert loaded is not None
    assert loaded.cpu == checkpoint.cpu
    assert loaded.frames == checkpoint.frames
    assert loaded.page_table == checkpoint.page_table
    assert loaded.stats == checkpoint.stats
    assert loaded.fast_cache == checkpoint.fast_cache
    assert loaded.kernel == checkpoint.kernel
    assert loaded.console == checkpoint.console
    assert loaded.disk == checkpoint.disk

    # and restoring it must resume to the same end state as the source
    system.run_to_completion()
    end = system.machine.state.snapshot()
    other = build_workload().boot()
    restore(other, loaded)
    other.run_to_completion()
    assert other.machine.state.snapshot() == end
    assert other.output == system.output


def test_delta_rungs_share_blobs(tmp_path):
    system = booted()
    parent = take(system)
    system.run(5_000)
    child = take(system, parent=parent)
    assert child.delta_bytes < child.memory_bytes

    store = CheckpointStore(tmp_path / "ckpt")
    store.publish_checkpoint("prog", "cfg", "aa", parent)
    blobs_after_parent = len(list(
        (tmp_path / "ckpt" / "blobs").rglob("*.z")))
    store.publish_checkpoint("prog", "cfg", "bb", child)
    blobs_after_child = len(list(
        (tmp_path / "ckpt" / "blobs").rglob("*.z")))
    # the child reuses the parent's unchanged page images: far fewer
    # new blobs than total frames
    assert blobs_after_child - blobs_after_parent < len(child.frames)
    assert sorted(store.list_rungs("prog", "cfg")) == ["aa", "bb"]


def test_publish_is_idempotent_and_leaves_no_tmp(tmp_path):
    system = booted()
    checkpoint = take(system)
    store = CheckpointStore(tmp_path / "ckpt")
    store.publish_checkpoint("prog", "cfg", "aa", checkpoint)
    store.publish_checkpoint("prog", "cfg", "aa", checkpoint)
    assert store.list_rungs("prog", "cfg") == ["aa"]
    assert not list((tmp_path / "ckpt").rglob("*.tmp"))


def test_torn_ladder_loads_as_missing(tmp_path):
    system = booted()
    checkpoint = take(system)
    store = CheckpointStore(tmp_path / "ckpt")
    store.publish_checkpoint("prog", "cfg", "aa", checkpoint)
    # simulate a crash that lost one blob (manifest survived)
    victim = next((tmp_path / "ckpt" / "blobs").rglob("*.z"))
    victim.unlink()
    fresh = CheckpointStore(tmp_path / "ckpt")
    assert fresh.load_checkpoint("prog", "cfg", "aa") is None
    # unknown rungs are also just missing, never an error
    assert fresh.load_checkpoint("prog", "cfg", "ff") is None


def _simpoint_ckpt_digest(root):
    """Canonical-result digest of a checkpoint-accelerated SimPoint run
    against the store at ``root``, plus the controller's store stats."""
    from repro.sampling import (CheckpointedSimPointSampler,
                                SimPointConfig, SimulationController)
    from repro.workloads import SUITE_MACHINE_KWARGS

    workload = build_workload()
    controller = SimulationController(
        workload, machine_kwargs=SUITE_MACHINE_KWARGS)
    controller.attach_checkpoints(CheckpointLadder(
        CheckpointStore(root), program_fingerprint(workload), "cfg"))
    result = CheckpointedSimPointSampler(SimPointConfig(
        interval_length=1000, max_clusters=10,
        warmup_length=2000)).run(controller)
    text = json.dumps(result.canonical_dict(), sort_keys=True,
                      default=repr)
    return (hashlib.sha256(text.encode()).hexdigest(),
            dict(controller.checkpoint_stats))


@pytest.mark.parametrize("damage", ["torn", "wrong-frame"])
def test_corrupt_blob_is_a_miss_and_changes_no_result(tmp_path, damage):
    root = tmp_path / "ckpt"
    cold, cold_stats = _simpoint_ckpt_digest(root)
    assert cold_stats["published"] > 0
    store = CheckpointStore(root)
    program_fp = program_fingerprint(build_workload())
    rung = store.list_rungs(program_fp, "cfg")[0]
    manifest = json.loads((store.ladder_dir(program_fp, "cfg")
                           / f"ckpt-{rung}.json").read_text())
    victim = sorted(set(manifest["frame_hashes"].values()))[0]
    path = store.blob_path(victim)
    compressed = path.read_bytes()
    if damage == "torn":  # a crash mid-write: zlib cannot finish
        path.write_bytes(compressed[:len(compressed) // 2])
    else:  # a well-formed stream that is not the frame it names
        frame = bytearray(zlib.decompress(compressed))
        frame[0] ^= 0xFF
        path.write_bytes(zlib.compress(bytes(frame)))

    fresh = CheckpointStore(root)
    assert fresh.get_blob(victim) is None
    assert fresh.load_checkpoint(program_fp, "cfg", rung) is None
    warm, _ = _simpoint_ckpt_digest(root)
    assert warm == cold


def test_corrupt_manifest_loads_as_missing(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    ladder = store.ladder_dir("prog", "cfg")
    ladder.mkdir(parents=True)
    (ladder / "ckpt-aa.json").write_text("{not json")
    assert store.load_checkpoint("prog", "cfg", "aa") is None


# ----------------------------------------------------------------------
# derived artifacts


def test_artifact_round_trip_and_first_writer_wins(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    payload = {"points": [[0, 0.5], [3, 0.5]], "num_clusters": 2}
    store.publish_artifact("prog", "cfg", "selection-1000", payload)
    assert store.load_artifact("prog", "cfg", "selection-1000") \
        == payload
    # artifacts are write-once: a second publish never clobbers
    store.publish_artifact("prog", "cfg", "selection-1000",
                           {"points": []})
    assert store.load_artifact("prog", "cfg", "selection-1000") \
        == payload
    assert store.load_artifact("prog", "cfg", "selection-9") is None


def test_artifact_names_are_validated(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    for bad in ("ckpt-aa", "../escape", "a/b", ""):
        with pytest.raises(ValueError):
            store.publish_artifact("prog", "cfg", bad, {})
        with pytest.raises(ValueError):
            store.load_artifact("prog", "cfg", bad)


def test_profiles_do_not_collide_with_rungs(tmp_path):
    system = booted()
    store = CheckpointStore(tmp_path / "ckpt")
    store.publish_checkpoint("prog", "cfg", "aa", take(system))
    store.publish_profile("prog", "cfg", 1000, {"starts": [0]})
    assert store.list_rungs("prog", "cfg") == ["aa"]
    assert store.load_profile("prog", "cfg", 1000) == {"starts": [0]}


# ----------------------------------------------------------------------
# the ladder facade


def test_ladder_publish_and_load(tmp_path):
    system = booted()
    store = CheckpointStore(tmp_path / "ckpt")
    ladder = CheckpointLadder(store, "prog", "cfg")
    key = rung_key([20_000])
    published = ladder.publish(key, system)
    assert published.memory_bytes > 0
    loaded = CheckpointLadder(CheckpointStore(tmp_path / "ckpt"),
                              "prog", "cfg").load(key)
    assert loaded is not None
    assert loaded.cpu == published.cpu
    assert ladder.rungs() == [key]


# ----------------------------------------------------------------------
# concurrency (mirrors the result-store concurrent-writer test)


def _publisher(root, worker_id, manifest, blobs):
    from repro.exec.ckptstore import decode_manifest
    checkpoint = decode_manifest(manifest, blobs)
    store = CheckpointStore(root)
    # everyone hammers the same rung (same blobs, same manifest) plus
    # one rung of their own
    store.publish_checkpoint("prog", "cfg", "dd", checkpoint)
    store.publish_checkpoint("prog", "cfg", f"aa{worker_id}", checkpoint)
    store.publish_artifact("prog", "cfg", "profile-1000",
                           {"from": worker_id})


def test_concurrent_publishers_do_not_clobber(tmp_path):
    from repro.exec.ckptstore import encode_manifest
    system = booted()
    checkpoint = take(system)
    manifest = encode_manifest(checkpoint)
    blobs = {digest: checkpoint.resolve_blob(digest)
             for digest in set(checkpoint.frame_hashes.values())}
    root = tmp_path / "ckpt"
    workers = 4
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_publisher,
                         args=(root, w, manifest, blobs))
             for w in range(workers)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    store = CheckpointStore(root)
    rungs = store.list_rungs("prog", "cfg")
    assert set(rungs) == {"dd"} | {f"aa{w}" for w in range(workers)}
    for key in rungs:
        loaded = store.load_checkpoint("prog", "cfg", key)
        assert loaded is not None
        assert loaded.frames == checkpoint.frames
    # exactly one artifact writer won, and the payload is valid JSON
    artifact = store.load_artifact("prog", "cfg", "profile-1000")
    assert artifact["from"] in range(workers)
    assert not list(root.rglob("*.tmp"))


# ----------------------------------------------------------------------
# the REPRO_CHECKPOINTS knob


def test_execute_spec_with_checkpoints_off_attaches_no_ladder(
        tmp_path, monkeypatch):
    """The worker is the one reader of ``REPRO_CHECKPOINTS``: with it
    off the job runs without a ladder, so the result is unchanged and
    nothing is written under ``checkpoints-v1/``."""
    from dataclasses import replace

    from repro.exec import execute_spec
    from repro.exec.ckptstore import CKPT_DIR_NAME
    from repro.harness import make_spec

    spec = make_spec("swim", "simpoint-ckpt", "tiny")
    on_root = tmp_path / "on" / CKPT_DIR_NAME
    off_root = tmp_path / "off" / CKPT_DIR_NAME

    monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
    on = execute_spec(replace(spec, checkpoint_root=str(on_root)))
    assert any(path.is_file() for path in on_root.rglob("*"))

    monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
    off = execute_spec(replace(spec, checkpoint_root=str(off_root)))
    assert off.canonical_dict() == on.canonical_dict()
    assert not off_root.exists()
