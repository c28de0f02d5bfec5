"""The persistent code cache (``codecache-v1/``): keys, the entry
format, corruption as a miss, the trust rule, and cross-process reuse."""

import hashlib
import importlib.util
import json
import marshal
import os
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


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    codecache.reset_stats()
    sanitizer.reset_stats()
    yield tmp_path / codecache.CODECACHE_DIR_NAME
    codecache.reset_stats()
    sanitizer.reset_stats()


def entries(root):
    return sorted(root.rglob("*.bin")) if root.is_dir() else []


def run_loop():
    system = boot(assemble(LOOP))
    system.run_to_completion()
    return system.machine.state.regs[9]  # s0, the loop counter


# ----------------------------------------------------------------------
# keys and entries


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
    data = Path(codecache.entry_path(key)).read_bytes()
    payload = marshal.dumps(code)
    assert data == key + hashlib.sha256(payload).digest() + payload
    assert codecache.load(key) == code
    assert codecache.stats() == {"hit": 1, "miss": 1, "corrupt": 0}
    assert not list(cache_dir.rglob("*.tmp"))


@pytest.mark.parametrize("damage", [
    "empty", "truncated", "payload-bit", "digest-bit", "wrong-key",
    "valid-digest-garbage", "not-code", "directory"])
def test_damaged_entry_is_a_miss(cache_dir, damage):
    key = codecache.entry_key("<f>", ENV, SOURCE)
    codecache.store(key, compile(SOURCE, "<f>", "exec"))
    path = Path(codecache.entry_path(key))
    data = bytearray(path.read_bytes())
    if damage == "empty":
        data = bytearray()
    elif damage == "truncated":
        data = data[:len(data) - 7]
    elif damage == "payload-bit":
        data[-3] ^= 0x10
    elif damage == "digest-bit":
        data[40] ^= 0x01
    elif damage == "wrong-key":
        data[0] ^= 0x01
    elif damage in ("valid-digest-garbage", "not-code"):
        # digest checks pass, so unmarshalling itself must refuse
        payload = (b"\xff\x00garbage" if damage == "valid-digest-garbage"
                   else marshal.dumps(("not", "code")))
        data = bytearray(key + hashlib.sha256(payload).digest() + payload)
    if damage == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(bytes(data))
    codecache.reset_stats()
    assert codecache.load(key) is None
    assert codecache.stats() == {"hit": 0, "miss": 1, "corrupt": 1}


def test_counters_mirror_into_obs_registry(cache_dir):
    registry = enable_metrics()
    try:
        run_loop()
        translator_module._CODE_CACHE.clear()
        run_loop()
        collected = registry.collect()
    finally:
        disable_metrics()
    assert collected["codecache.miss"] >= 2
    assert collected["codecache.hit"] == collected["codecache.miss"]
    assert "codecache.corrupt" not in collected


# ----------------------------------------------------------------------
# the translator's one compile path


def test_warm_cache_skips_sanitizer_and_compile(cache_dir, monkeypatch):
    assert run_loop() == 50
    vetted = sanitizer.stats()["checked"]
    assert vetted >= 2
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
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    with symexec.capture() as captured:
        run_loop()
    hits = codecache.stats()["hit"]
    assert hits >= 2
    assert len(captured) == hits


def test_corrupt_entries_are_revetted_and_healed(cache_dir):
    run_loop()
    paths = entries(cache_dir)
    for index, path in enumerate(paths):
        data = path.read_bytes()
        path.write_bytes(data[:-1] if index % 2 else
                         data[:-1] + bytes([data[-1] ^ 0x01]))
    translator_module._CODE_CACHE.clear()
    sanitizer.reset_stats()
    codecache.reset_stats()
    assert run_loop() == 50
    assert codecache.stats()["corrupt"] == len(paths)
    assert sanitizer.stats()["checked"] == len(paths)
    # the re-vetted code replaced every damaged entry
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    run_loop()
    assert codecache.stats() == {"hit": len(paths), "miss": 0,
                                 "corrupt": 0}


def test_unvetted_process_reads_but_never_writes(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    run_loop()
    assert entries(cache_dir) == []
    assert sanitizer.stats()["checked"] == 0

    # entries a vetting process wrote are still served
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    translator_module._CODE_CACHE.clear()
    run_loop()
    written = entries(cache_dir)
    assert written
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    translator_module._CODE_CACHE.clear()
    codecache.reset_stats()
    run_loop()
    assert codecache.stats()["hit"] == len(written)


def test_rejected_source_is_never_persisted(cache_dir):
    key = codecache.entry_key("<f>", ENV, "import os\n")

    def bad_source():
        return "import os\n"

    with pytest.raises(sanitizer.SanitizerError):
        translator_module.compile_block(
            ("test-key",), bad_source, dict.fromkeys(ENV), "<f>", "fast",
            lambda source: None, 0, "fast")
    assert not Path(codecache.entry_path(key)).exists()
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


def test_fully_warm_second_process_vets_nothing(tmp_path):
    cold = run_cell(tmp_path)
    assert cold["sanitizer"]["checked"] > 10
    assert cold["codecache"]["hit"] == 0
    warm = run_cell(tmp_path)
    assert warm["sanitizer"] == {"checked": 0, "rejected": 0}
    assert warm["codecache"]["corrupt"] == 0
    assert warm["codecache"]["miss"] == 0
    assert warm["codecache"]["hit"] == cold["codecache"]["miss"]
    assert warm["canonical"] == cold["canonical"]


def test_unsanitized_process_leaves_the_cache_empty(tmp_path):
    run_cell(tmp_path, sanitize="0")
    assert entries(tmp_path / codecache.CODECACHE_DIR_NAME) == []
