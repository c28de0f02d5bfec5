"""Only SimPoint needs numpy: a cell of any other policy never imports it.

numpy is most of a cold cell's import time, so the SimPoint policies,
the figure builders and the phase traces load on first use.  This test
runs one Dynamic Sampling cell in a fresh interpreter, entering the
way the CLI does, and checks that numpy stayed out of ``sys.modules``
— and that the SimPoint names still import from where they always did.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, sys
import repro.cli
import repro.sampling
from repro.exec import ExperimentEngine
from repro.harness.experiments import make_spec

spec = make_spec("art", "CPU-300-1M-inf", "tiny")
outcome = ExperimentEngine(jobs=1).run([spec])[spec.key]
numpy_loaded = "numpy" in sys.modules
from repro.sampling import SimPointSampler, select_simpoints
print(json.dumps({"status": outcome.status, "numpy": numpy_loaded,
                  "simpoint": [SimPointSampler.__name__,
                               select_simpoints.__name__]}))
"""


def test_non_simpoint_cell_never_imports_numpy(tmp_path):
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          env=env, check=False, timeout=300,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["status"] == "ok"
    assert record["numpy"] is False
    assert record["simpoint"] == ["SimPointSampler", "select_simpoints"]
