"""The end-to-end benchmark's view of both guest kinds.

``e2ebench/cell.py run`` is what the benchmark times: a fresh
interpreter entering through the CLI's calls, wrapping the controller
entry points it profiles (``repro.sampling.make_controller``, the
``run_*`` primitives of ``SimulationController`` and
``repro.sampling.smp.SmpSimulationController``).  These tests run one
2-core and one single-core cell that way, plus two two-pass (profile,
then measure) cells, untraced and traced, and pin each result digest to
``e2ebench/references.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
REFERENCES = json.loads(
    (ROOT / "e2ebench" / "references.json").read_text())["cells"]

CELLS = ("lockcnt|full|tiny|c2", "art|CPU-300-1M-inf|tiny|c1",
         # two-pass policies: pass 1 profiles and publishes artifacts
         "art|stratified|small|c1", "mcf|simpoint-ckpt|small|c1")


def run_cell(cell, trace, tmp_path):
    benchmark, policy, size, cores = cell.split("|")
    out = tmp_path / "record.json"
    job = {"benchmark": benchmark, "policy": policy, "size": size,
           "cores": int(cores[1:]), "force": 0, "trace": trace,
           "out": str(out)}
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "cell.py"), "run",
         json.dumps(job)],
        cwd=ROOT, env=env, check=False, timeout=300,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert out.exists(), proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("cell", CELLS)
def test_cell_digest_matches_reference(cell, trace, tmp_path):
    record = run_cell(cell, trace, tmp_path)
    assert record["ok"], record["error"]
    assert record["digest"] == REFERENCES[cell]["digest"]
    assert record["ready"] is not None
    if trace:
        names = {span[0] for span in record["spans"]}
        assert {"kernel.boot", "exec.timed"} <= names
        if "|full|" not in cell:
            # the full-timing policy never runs in fast mode
            assert "exec.fast" in names
        # one span per primitive call: a probe wrapped twice would
        # nest an exec.* span directly inside one of the same name
        spans = record["spans"]
        assert not any(
            parent >= 0 and spans[parent][0] == name
            and name.startswith("exec.")
            for name, _start, _end, parent, _count in spans)
    else:
        assert record["spans"] == []
