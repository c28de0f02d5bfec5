"""Cold-process end-to-end benchmark of the simulator.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload tiny-cold [--seed N]
        [--seconds S] [--trace 0|1]

Every cell of the workload runs in a fresh interpreter against an
empty per-run store, one at a time, entering through the calls
``python -m repro run`` makes.  It repeats whole sweeps of the
workload while another fits in ``--seconds`` (at least one), checks
every cell's result digest against the oracle references in
``references.json`` and prints a human-readable report, then one JSON
line: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
each iteration runs an untraced and a traced sweep and the line holds
the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from cells import WORKLOADS, Workload
from report import (check_against_reference, count_failures, end_to_end,
                    layer_metrics, metric_unit, per_cell_means,
                    tail_percentile)
from runner import (CALIBRATION_NOMINAL_S, HERE, ROOT, Sweep, calibrate,
                    cell_keys, child_env, guarded_settings, host_record,
                    run_cell)

REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
#: no single cell takes more than a few seconds; a run must exit
#: within three minutes whatever happens
CELL_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The run cannot measure anything meaningful; exit non-zero."""


def load_references(workload: Workload, env: Dict[str, str]
                    ) -> Dict[str, Dict]:
    """The oracle references, after checking that every cell of the
    workload has one recorded under the current config fingerprint."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["cells"]
    needed = [*workload.cells, *(cell.full() for cell in workload.cells)]
    for cell, key in zip(needed, cell_keys(needed, env)):
        ref = refs.get(cell.ref_key)
        if ref is None:
            raise BenchmarkError(f"no reference for {cell.ref_key}; "
                                 "regenerate with e2ebench/make_refs.py")
        fingerprint = key.rsplit("|", 1)[1]
        if ref["fingerprint"] != fingerprint:
            raise BenchmarkError(
                f"config fingerprint {fingerprint} of {cell.ref_key} "
                f"differs from the reference's {ref['fingerprint']}; the "
                "simulated configuration changed, so regenerate the "
                "references with e2ebench/make_refs.py")
    return refs


def run_sweep(workload: Workload, seed: int, workdir: Path, trace: bool,
              deadline: float, refs: Dict[str, Dict]) -> Sweep:
    """One sweep over a fresh store, calibrating between cells."""
    sweep_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="sweep-"))
    env = child_env(sweep_dir / "store")
    runs = []
    started = time.monotonic()
    calibrations = [calibrate()]
    for index, (pass_no, cell) in enumerate(workload.schedule(seed)):
        run = run_cell(cell, pass_no, env, sweep_dir / f"cell-{index}.json",
                       trace, min(CELL_TIMEOUT_S, deadline - time.monotonic()))
        calibrations.append(calibrate())
        check_against_reference(run, refs)
        runs.append(run)
    wall = time.monotonic() - started
    scale = CALIBRATION_NOMINAL_S / statistics.fmean(calibrations)
    for run in runs:
        run.scale = scale
    shutil.rmtree(sweep_dir, ignore_errors=True)
    return Sweep(trace, wall, runs)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, refs: Dict[str, Dict], deadline: float
            ) -> List[Sweep]:
    """Sweep while another iteration fits in ``seconds``; with tracing
    each iteration is an untraced sweep followed by a traced one."""
    sweeps: List[Sweep] = []
    window_end = time.monotonic() + seconds
    iteration = 0
    while True:
        began = time.monotonic()
        for traced in (False, True) if trace else (False,):
            sweeps.append(run_sweep(workload, seed + iteration, workdir,
                                    traced, deadline, refs))
        iteration += 1
        now = time.monotonic()
        if now + (now - began) > min(window_end, deadline):
            return sweeps


def print_report(workload: Workload, seed: int, host: Dict,
                 sweeps: List[Sweep], e2e: Dict[str, float],
                 layers: Dict[str, float]) -> None:
    runs = [run for sweep in sweeps for run in sweep.runs]
    attempted, failed = count_failures(runs)
    untraced = [sweep for sweep in sweeps if not sweep.traced]
    walls = [wall for wall, _ in per_cell_means(
        [run for sweep in untraced for run in sweep.runs])]
    tail = tail_percentile(walls)
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print("host " + json.dumps(host, sort_keys=True))
    for run in runs:
        if run.failed:
            print(f"FAILED {run.cell.ref_key} pass {run.pass_no}: "
                  f"{run.mismatch or run.record.get('error', '')}")
    print(f"{len(untraced)} untraced sweep(s) of {len(untraced[0].runs)} "
          "cells; host seconds per sweep "
          + ", ".join(f"{sweep.wall:.2f}" for sweep in untraced)
          + "; times below are in reference seconds")
    print(f"{'metric':<34}{'value':>14}  unit")
    for name, value in {**e2e, **layers}.items():
        print(f"{name:<34}{value:>14.4f}  {metric_unit(name)}")
    print(f"{'failed_frac':<34}{failed / attempted:>14.4f}  "
          f"({failed} of {attempted} cells)")
    print(f"cell wall time (mean over sweeps) of {len(walls)} cells: p50 "
          f"{e2e['cell_p50_s']:.4f} s, "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail
             else "no percentile has 10 cells beyond it"))


def finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds like an interrupted one: the running
    # cell is killed and the run's directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    guarded = guarded_settings(dict(os.environ))
    if guarded:
        print("error: refusing to measure with " + ", ".join(guarded)
              + " set; the benchmark measures the shipped defaults",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_record()
    scratch_root = ROOT / ".e2ebench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_root, prefix="run-"))
    try:
        # set-up: byte-compile the sources once, so no cell pays it
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        refs = load_references(workload, child_env(workdir / "keys"))
        sweeps = measure(workload, args.seed, args.seconds,
                         bool(args.trace), workdir, refs, deadline)
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    e2e = end_to_end(sweeps, refs)
    layers = layer_metrics(sweeps) if args.trace else {}
    print_report(workload, args.seed, host, sweeps, e2e, layers)
    attempted, failed = count_failures(
        run for sweep in sweeps for run in sweep.runs)
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": finite(value),
                           "unit": metric_unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
