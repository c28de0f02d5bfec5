"""The persistent code cache (``codecache-v2/``): keys, the pack and
record format, corruption as a miss, healing merges, the trust rule,
fork and concurrency safety, and cross-process reuse."""

import hashlib
import importlib.util
import json
import marshal
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import sanitizer
from repro.exec import codecache
from repro.isa import assemble
from repro.kernel import boot
from repro.obs import disable_metrics, enable_metrics
from repro.vm import translator as translator_module

SRC = Path(__file__).resolve().parents[2] / "src"

LOOP = """
_start:
    li s0, 0
    li s1, 50
loop:
    addi s0, s0, 1
    blt s0, s1, loop
    halt
"""

SOURCE = "def _block(state, budget):\n    return 1\n"
ENV = ("GuestFault", "M", "SINK")

#: the pack layout, spelled out independently of the module
HEADER = struct.Struct("<8sI")   # magic, record count
SLOT = struct.Struct("<32sQI")   # key, record offset, record length


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    codecache.flush()
    codecache.reset_stats()
    sanitizer.reset_stats()
    yield tmp_path / codecache.CODECACHE_DIR_NAME
    codecache.flush()
    codecache.reset_stats()
    sanitizer.reset_stats()


def packs(root):
    return sorted(root.glob("*.pack")) if root.is_dir() else []


def read_pack(path):
    """``{key: record}`` of one pack, parsed from its index."""
    data = path.read_bytes()
    magic, count = HEADER.unpack_from(data)
    assert magic == codecache.PACK_MAGIC
    slots = [SLOT.unpack_from(data, HEADER.size + index * SLOT.size)
             for index in range(count)]
    return {key: data[offset:offset + length]
            for key, offset, length in slots}


def entries(root):
    """``{key: record}`` over every pack under ``root``."""
    found = {}
    for path in packs(root):
        found.update(read_pack(path))
    return found


def pack_bytes(records):
    """A pack holding ``[(key, record), ...]`` in that order."""
    offset = HEADER.size + len(records) * SLOT.size
    head = HEADER.pack(codecache.PACK_MAGIC, len(records))
    for key, record in records:
        head += SLOT.pack(key, offset, len(record))
        offset += len(record)
    return head + b"".join(record for _, record in records)


def record_of(key, payload):
    return key + hashlib.sha256(payload).digest() + payload


def block(index):
    """``(key, code)`` of a distinct block; every index gives a record
    of the same size."""
    source = f"def _block(state, budget):\n    return {index + 100000}\n"
    return (codecache.entry_key("<f>", ENV, source),
            compile(source, "<f>", "exec"))


def job(indices):
    """One job: vet (store) the given blocks, then flush."""
    for index in indices:
        codecache.store(*block(index))
    codecache.flush()


def run_loop():
    system = boot(assemble(LOOP))
    system.run_to_completion()
    return system.machine.state.regs[9]  # s0, the loop counter


# ----------------------------------------------------------------------
# keys, records and packs


def test_key_covers_every_input():
    key = codecache.entry_key("<f>", ENV, SOURCE)
    assert len(key) == 32
    assert key == codecache.entry_key("<f>", reversed(ENV), SOURCE)
    assert key != codecache.entry_key("<g>", ENV, SOURCE)
    assert key != codecache.entry_key("<f>", ENV[:2], SOURCE)
    assert key != codecache.entry_key("<f>", ENV, SOURCE + "\n")
    # the bytecode format and the sanitizer's own text are in the key,
    # so a new interpreter or a tightened whitelist invalidates entries
    expected = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    expected.update(hashlib.sha256(
        Path(sanitizer.__file__).read_bytes()).digest())
    expected.update(b"<f>\0" + "\0".join(sorted(ENV)).encode() + b"\0")
    expected.update(SOURCE.encode())
    assert key == expected.digest()


def test_round_trip_and_entry_format(cache_dir):
    key = codecache.entry_key("<f>", ENV, SOURCE)
    assert codecache.load(key) is None
    code = compile(SOURCE, "<f>", "exec")
    codecache.store(key, code)
    assert codecache.load(key) == code  # served from this job's queue
    assert packs(cache_dir) == []       # nothing written before a flush
    codecache.flush()
    (path,) = packs(cache_dir)
    assert path.name.startswith(f"{os.getpid()}-")
    payload = marshal.dumps(code)
    record = key + hashlib.sha256(payload).digest() + payload
    assert path.read_bytes() == pack_bytes([(key, record)])
    assert codecache.load(key) == code  # served from the pack
    assert codecache.stats() == {"hit": 2, "miss": 1, "corrupt": 0}
    assert not list(cache_dir.rglob("*.tmp"))


# one damage per case; every case but a vanished pack counts corrupt
DAMAGE = {"empty": 1, "truncated": 1, "payload-bit": 1, "digest-bit": 1,
          "wrong-key": 1, "valid-digest-garbage": 1, "not-code": 1,
          "directory": 1, "bad-magic": 1, "truncated-index": 1,
          "offset-past-eof": 1, "unlinked-before-open": 0}


def damage_pack(path, key, damage, monkeypatch):
    """Damage the one-record pack at ``path`` as ``damage`` says."""
    data = bytearray(path.read_bytes())
    start = HEADER.size + SLOT.size  # the record's offset
    if damage == "empty":
        data = bytearray()
    elif damage == "truncated":
        data = data[:len(data) - 7]
    elif damage == "payload-bit":
        data[-3] ^= 0x10
    elif damage == "digest-bit":
        data[start + 40] ^= 0x01
    elif damage == "wrong-key":
        data[start] ^= 0x01
    elif damage in ("valid-digest-garbage", "not-code"):
        # digest checks pass, so unmarshalling itself must refuse
        payload = (b"\xff\x00garbage" if damage == "valid-digest-garbage"
                   else marshal.dumps(("not", "code")))
        data = bytearray(pack_bytes([(key, record_of(key, payload))]))
    elif damage == "bad-magic":
        data[0] ^= 0x20
    elif damage == "truncated-index":
        data = data[:HEADER.size + SLOT.size // 2]
    elif damage == "offset-past-eof":
        data[HEADER.size:HEADER.size + SLOT.size] = SLOT.pack(
            key, len(data) + 100, len(data) - start)
    if damage == "directory":
        path.unlink()
        path.mkdir()
    elif damage == "unlinked-before-open":
        # a concurrent merge absorbs the pack between listing and open
        listdir = os.listdir

        def racing_listdir(directory):
            names = listdir(directory)
            monkeypatch.setattr(os, "listdir", listdir)
            path.unlink()
            return names

        monkeypatch.setattr(os, "listdir", racing_listdir)
    else:
        path.write_bytes(bytes(data))


def one_damaged_pack(cache_dir, damage, monkeypatch):
    key = codecache.entry_key("<f>", ENV, SOURCE)
    code = compile(SOURCE, "<f>", "exec")
    codecache.store(key, code)
    codecache.flush()
    (path,) = packs(cache_dir)
    damage_pack(path, key, damage, monkeypatch)
    codecache.reset_stats()
    return key, code


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_entry_is_a_miss(cache_dir, damage, monkeypatch):
    key, _ = one_damaged_pack(cache_dir, damage, monkeypatch)
    assert codecache.load(key) is None
    assert codecache.stats() == {"hit": 0, "miss": 1,
                                 "corrupt": DAMAGE[damage]}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_next_merge_heals_damage(cache_dir, damage, monkeypatch):
    key, code = one_damaged_pack(cache_dir, damage, monkeypatch)
    assert codecache.load(key) is None
    # the next job re-vets the block; its flush absorbs the damaged
    # pack, keeps only records that verify and removes the pack
    codecache.store(key, code)
    codecache.flush()
    assert [path.name for path in cache_dir.iterdir()] \
        == [path.name for path in packs(cache_dir)]
    assert len(packs(cache_dir)) == 1
    codecache.reset_stats()
    assert codecache.load(key) == code
    assert codecache.stats() == {"hit": 1, "miss": 0, "corrupt": 0}


def test_merge_copies_only_records_that_verify(cache_dir):
    job([1, 2])
    (path,) = packs(cache_dir)
    data = bytearray(path.read_bytes())
    _, offset, length = SLOT.unpack_from(data, HEADER.size + SLOT.size)
    data[offset + length - 1] ^= 0x01       # block 2's payload
    path.write_bytes(bytes(data))
    job([3, 4])                             # absorbs the damaged pack
    (merged,) = packs(cache_dir)
    assert list(read_pack(merged)) == [block(index)[0]
                                       for index in (3, 4, 1)]
    assert codecache.load(block(2)[0]) is None
    assert codecache.stats() == {"hit": 0, "miss": 1, "corrupt": 0}


def test_first_copy_that_verifies_serves(cache_dir):
    key = codecache.entry_key("<f>", ENV, SOURCE)
    code = compile(SOURCE, "<f>", "exec")
    record = record_of(key, marshal.dumps(code))
    cache_dir.mkdir()
    damaged = record[:-1] + bytes([record[-1] ^ 0x01])
    (cache_dir / "a.pack").write_bytes(pack_bytes([(key, damaged)]))
    (cache_dir / "b.pack").write_bytes(pack_bytes([(key, record)]))
    assert codecache.load(key) == code
    assert codecache.stats() == {"hit": 1, "miss": 0, "corrupt": 0}


def test_counters_mirror_into_obs_registry(cache_dir):
    registry = enable_metrics()
    try:
        run_loop()
        codecache.flush()
        translator_module._CODE_CACHE.clear()
        run_loop()
        collected = registry.collect()
    finally:
        disable_metrics()
    assert collected["codecache.miss"] >= 2
    assert collected["codecache.hit"] == collected["codecache.miss"]
    assert "codecache.corrupt" not in collected


# ----------------------------------------------------------------------
# flushes: fork safety, concurrency, pack count, failed writes


def test_forked_child_never_writes_parent_queue(cache_dir):
    key, code = block(1)
    codecache.store(key, code)
    pid = os.fork()
    if pid == 0:  # the child flushes what it inherited: nothing
        status = 1
        try:
            codecache.flush()
            status = 0
        finally:
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    assert packs(cache_dir) == []
    codecache.flush()
    assert list(entries(cache_dir)) == [key]


def test_concurrent_flushes_leave_every_key_valid(cache_dir):
    job([0, 1])
    job([2])                      # two packs, of one and two records
    assert len(packs(cache_dir)) == 2
    children = []
    for child in range(2):
        ready_r, ready_w = os.pipe()
        go_r, go_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                codecache.load(b"\0" * 32)    # index the same packs
                for index in range(10 + 10 * child, 14 + 10 * child):
                    codecache.store(*block(index))
                os.write(ready_w, b"r")
                os.read(go_r, 1)
                codecache.flush()             # both absorb both packs
                status = 0
            finally:
                os._exit(status)
        children.append((pid, ready_r, go_w))
    for _, ready_r, _ in children:
        assert os.read(ready_r, 1) == b"r"
    for _, _, go_w in children:
        os.write(go_w, b"g")
    for pid, ready_r, go_w in children:
        assert os.waitpid(pid, 0)[1] == 0
        os.close(ready_r)
        os.close(go_w)
    keys = [block(index)[0]
            for index in (0, 1, 2, 10, 11, 12, 13, 20, 21, 22, 23)]
    found = entries(cache_dir)
    assert set(found) == set(keys)
    for path in packs(cache_dir):
        for key, record in read_pack(path).items():
            payload = record[64:]
            assert record[:32] == key
            assert record[32:64] == hashlib.sha256(payload).digest()
    codecache.reset_stats()
    for key in keys:
        assert codecache.load(key) is not None
    assert codecache.stats() == {"hit": len(keys), "miss": 0,
                                 "corrupt": 0}


def test_pack_count_is_logarithmic_in_jobs(cache_dir):
    for jobs in range(1, 21):
        job([jobs])
        # a binary counter: jobs of one size leave popcount(N) packs
        assert len(packs(cache_dir)) <= (jobs.bit_length() - 1) + 1
        assert len(packs(cache_dir)) == bin(jobs).count("1")
    codecache.reset_stats()
    for index in range(1, 21):
        assert codecache.load(block(index)[0]) is not None
    assert codecache.stats()["hit"] == 20


def test_failed_flush_leaves_no_temp_file(cache_dir, monkeypatch):
    job([1])
    (kept,) = packs(cache_dir)
    codecache.store(*block(2))    # would absorb the first pack

    def no_rename(source, target):
        raise OSError("disk full")

    rename = os.replace
    monkeypatch.setattr(os, "replace", no_rename)
    codecache.flush()             # best effort: never raises
    monkeypatch.setattr(os, "replace", rename)
    assert list(cache_dir.iterdir()) == [kept]
    assert list(entries(cache_dir)) == [block(1)[0]]


# ----------------------------------------------------------------------
# the translator's one compile path


def test_warm_cache_skips_sanitizer_and_compile(cache_dir, monkeypatch):
    assert run_loop() == 50
    vetted = sanitizer.stats()["checked"]
    assert vetted >= 2
    codecache.flush()
    assert len(entries(cache_dir)) == vetted

    translator_module._CODE_CACHE.clear()
    sanitizer.reset_stats()
    codecache.reset_stats()
    compiled = []
    monkeypatch.setattr(translator_module, "compile",
                        lambda *args: compiled.append(args) or None,
                        raising=False)
    assert run_loop() == 50
    assert sanitizer.stats()["checked"] == 0
    assert not compiled
    assert codecache.stats() == {"hit": vetted, "miss": 0, "corrupt": 0}


def test_verify_hook_sees_every_persistent_hit(cache_dir):
    from repro.analysis import symexec

    run_loop()
    codecache.flush()
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    with symexec.capture() as captured:
        run_loop()
    hits = codecache.stats()["hit"]
    assert hits >= 2
    assert len(captured) == hits


def damage_every_record(root):
    """Flip a payload bit in every other record and zero the second
    half of the rest (a torn write); returns the records damaged."""
    damaged = 0
    for path in packs(root):
        data = bytearray(path.read_bytes())
        count = HEADER.unpack_from(data)[1]
        for index in range(count):
            _, offset, length = SLOT.unpack_from(
                data, HEADER.size + index * SLOT.size)
            if index % 2:
                half = length // 2
                data[offset + half:offset + length] = bytes(length - half)
            else:
                data[offset + 64 + index % (length - 64)] ^= 0x04
            damaged += 1
        path.write_bytes(bytes(data))
    return damaged


def test_corrupt_entries_are_revetted_and_healed(cache_dir):
    run_loop()
    codecache.flush()
    damaged = damage_every_record(cache_dir)
    assert damaged >= 2
    translator_module._CODE_CACHE.clear()
    sanitizer.reset_stats()
    codecache.reset_stats()
    assert run_loop() == 50
    assert codecache.stats()["corrupt"] == damaged
    assert sanitizer.stats()["checked"] == damaged
    # the re-vetting job's merge replaced the damaged pack
    codecache.flush()
    assert len(packs(cache_dir)) == 1
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    run_loop()
    assert codecache.stats() == {"hit": damaged, "miss": 0,
                                 "corrupt": 0}


def test_unvetted_process_reads_but_never_writes(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    run_loop()
    codecache.flush()
    assert packs(cache_dir) == []
    assert sanitizer.stats()["checked"] == 0

    # entries a vetting process wrote are still served
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    translator_module._CODE_CACHE.clear()
    run_loop()
    codecache.flush()
    written = entries(cache_dir)
    assert written
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    run_loop()
    assert codecache.stats()["hit"] == len(written)
    codecache.flush()
    assert entries(cache_dir) == written


def test_rejected_source_is_never_persisted(cache_dir):
    key = codecache.entry_key("<f>", ENV, "import os\n")

    def bad_source():
        return "import os\n"

    with pytest.raises(sanitizer.SanitizerError):
        translator_module.compile_block(
            ("test-key",), bad_source, dict.fromkeys(ENV), "<f>", "fast",
            lambda source: None, 0, "fast")
    codecache.flush()
    assert key not in entries(cache_dir)
    assert ("test-key",) not in translator_module._CODE_CACHE


# ----------------------------------------------------------------------
# across processes

CELL = """
import json
from repro.analysis import sanitizer
from repro.exec import codecache
from repro.exec.worker import execute_spec
from repro.harness.experiments import make_spec
result = execute_spec(make_spec("gzip", "CPU-300-1M-inf", "tiny"))
print(json.dumps({"canonical": result.canonical_dict(),
                  "sanitizer": sanitizer.stats(),
                  "codecache": codecache.stats()},
                 sort_keys=True, default=repr))
"""


def run_cell(cache_root, sanitize="1"):
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_root),
               REPRO_SANITIZE=sanitize, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CELL], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_execute_spec_flushes_when_its_job_ends(cache_dir):
    """Pool workers leave through ``os._exit``, so the job itself must
    write its pack."""
    from repro.exec import execute_spec
    from repro.harness import make_spec

    execute_spec(make_spec("mcf", "CPU-300-1M-inf", "tiny"))
    assert len(packs(cache_dir)) == 1
    assert len(entries(cache_dir)) == sanitizer.stats()["checked"] > 0


def test_fully_warm_second_process_vets_nothing(tmp_path):
    cold = run_cell(tmp_path)
    assert cold["sanitizer"]["checked"] > 10
    assert cold["codecache"]["hit"] == 0
    # the job's flush wrote one pack holding every vetted block
    root = tmp_path / codecache.CODECACHE_DIR_NAME
    assert len(packs(root)) == 1
    assert len(entries(root)) == cold["sanitizer"]["checked"]
    warm = run_cell(tmp_path)
    assert warm["sanitizer"] == {"checked": 0, "rejected": 0}
    assert warm["codecache"]["corrupt"] == 0
    assert warm["codecache"]["miss"] == 0
    assert warm["codecache"]["hit"] == cold["codecache"]["miss"]
    assert warm["canonical"] == cold["canonical"]


def test_unsanitized_process_leaves_the_cache_empty(tmp_path):
    run_cell(tmp_path, sanitize="0")
    root = tmp_path / codecache.CODECACHE_DIR_NAME
    assert packs(root) == []
    assert entries(root) == {}
