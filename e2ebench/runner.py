"""Spawning cells: the environment guard, the child environment and
one cell process from spawn to exit."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from cells import Cell

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CELL_PY = HERE / "cell.py"

#: settings that change what a run measures; the benchmark measures
#: the defaults as shipped, so it refuses to run under any of them
GUARDED_ENV = ("REPRO_SANITIZE", "REPRO_VERIFY", "REPRO_SLOW_PATH",
               "REPRO_MEGABLOCKS", "REPRO_CHECKPOINTS", "REPRO_JOBS",
               "REPRO_FULL_SUITE")

#: the independent slow-path engine the references come from
ORACLE_ENV = {"REPRO_SLOW_PATH": "1", "REPRO_MEGABLOCKS": "0"}


#: the host-speed calibration: a fixed pure-Python loop and the time it
#: takes on the reference host.  Host-time metrics are reported in
#: reference seconds: a sweep's wall times are scaled by the nominal
#: loop time over the mean loop time measured between its cells.  A
#: shared host's speed changes from minute to minute; averaging over
#: the sweep (rather than scaling each cell by its neighbouring
#: measurements) keeps the calibration's own noise out of the medians.
CALIBRATION_LOOPS = 300_000
CALIBRATION_NOMINAL_S = 0.1


def calibrate() -> float:
    """Seconds this host takes for the calibration loop right now."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    value = 0
    for index in range(CALIBRATION_LOOPS):
        value = (value * 1103515245 + index) & 0xFFFFFFFF
        table[value & 1023] = table.get(index & 1023, 0) + 1
    return time.perf_counter() - started


def guarded_settings(environ: Dict[str, str]) -> List[str]:
    """The guarded variables that are set in ``environ``."""
    return [name for name in GUARDED_ENV if name in environ]


def child_env(store_root: Path, extra: Optional[Dict[str, str]] = None
              ) -> Dict[str, str]:
    """The parent's environment with this checkout's ``src`` as the only
    ``PYTHONPATH`` entry and ``REPRO_CACHE_DIR`` at the run's own store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(store_root)
    env.update(extra or {})
    return env


def source_digest() -> str:
    """sha256 over the simulator's source files (a checkout
    need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit,
            "source_sha256": source_digest(),
            "loadavg": [round(load, 2) for load in os.getloadavg()]}


@dataclass
class CellRun:
    """One cell process as ``run.py`` saw it."""

    cell: Cell
    pass_no: int
    spawned: float
    wall: float
    exit_code: Optional[int]
    record: Dict = field(default_factory=dict)
    #: set by the reference check
    mismatch: str = ""
    #: reference seconds per host second, set per sweep (``calibrate``)
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return (self.exit_code != 0 or not self.record.get("ok")
                or bool(self.mismatch))

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def setup(self) -> Optional[float]:
        """Reference seconds from spawn until the controller was ready."""
        ready = self.record.get("ready")
        return None if ready is None else (ready - self.spawned) * self.scale


@dataclass
class Sweep:
    """One pass-ordered run of every cell of a workload over one store."""

    traced: bool
    #: host seconds from the first spawn to the last exit
    wall: float
    runs: List[CellRun]

    @property
    def ref_seconds(self) -> float:
        """The sweep's cell wall times in reference seconds."""
        return sum(run.ref_wall for run in self.runs)


def run_cell(cell: Cell, pass_no: int, env: Dict[str, str], out: Path,
             trace: bool, timeout: float) -> CellRun:
    """Run one cell in a fresh interpreter and wait for it to exit."""
    job = {"benchmark": cell.benchmark, "policy": cell.policy,
           "size": cell.size, "cores": cell.cores,
           "force": int(pass_no > 1), "trace": int(trace),
           "out": str(out)}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CELL_PY), "run", json.dumps(job)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 0.1))
        exit_code: Optional[int] = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        exit_code = None
    except BaseException:  # interrupted or terminated: leave no child
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - spawned
    try:
        record = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        record = {"ok": False,
                  "error": "timed out" if exit_code is None
                  else f"exit {exit_code}: {' '.join(tail)}"}
    return CellRun(cell, pass_no, spawned, wall, exit_code, record)


def cell_keys(cells: List[Cell], env: Dict[str, str]) -> List[str]:
    """Result-store keys (with config fingerprints) of ``cells``."""
    payload = [[c.benchmark, c.policy, c.size, c.cores] for c in cells]
    proc = subprocess.run(
        [sys.executable, str(CELL_PY), "keys", json.dumps(payload)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(proc.stdout)
