"""Regenerate ``references.json`` from the slow-path oracle.

Usage (from the root of a checkout)::

    python3 e2ebench/make_refs.py

Runs every workload cell, and the full-timing cell each sampled cell is
judged against, under ``REPRO_SLOW_PATH=1 REPRO_MEGABLOCKS=0``: the
independent superblock-interpreter engine, not the fast path the
benchmark measures.  Multi-pass workloads run all their passes over one
store, and every pass must produce the same digest.  Each entry keeps
the config fingerprint it was produced under, so the benchmark fails
loudly when the simulated configuration changes instead of comparing
against stale digests.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict

from cells import WORKLOADS, reference_cells
from runner import (HERE, ORACLE_ENV, CellRun, child_env,
                    guarded_settings, run_cell)

REFERENCES = HERE / "references.json"


def record_entry(refs: Dict[str, Dict], run: CellRun) -> None:
    if run.failed:
        raise SystemExit(f"{run.cell.ref_key}: "
                         f"{run.record.get('error', 'failed')}")
    record = run.record
    entry = {"fingerprint": record["key"].rsplit("|", 1)[1],
             "digest": record["digest"], "ipc": record["ipc"],
             "modeled_seconds": record["modeled_seconds"]}
    previous = refs.setdefault(run.cell.ref_key, entry)
    if previous != entry:
        raise SystemExit(f"{run.cell.ref_key}: pass {run.pass_no} "
                         "disagrees with an earlier pass")
    print(f"{run.cell.ref_key:<40} pass {run.pass_no} "
          f"{run.wall:7.2f} s  {entry['digest'][:12]}", flush=True)


def main() -> int:
    guarded = guarded_settings(dict(os.environ))
    if guarded:
        print("error: unset " + ", ".join(guarded), file=sys.stderr)
        return 2
    refs: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for workload in WORKLOADS.values():
            env = child_env(work / workload.name, ORACLE_ENV)
            for index, (pass_no, cell) in enumerate(workload.schedule(0)):
                record_entry(refs, run_cell(
                    cell, pass_no, env,
                    work / f"{workload.name}-{index}.json", False, 600))
        for index, cell in enumerate(reference_cells()):
            if cell.ref_key not in refs:
                env = child_env(work / f"full-{index}", ORACLE_ENV)
                record_entry(refs, run_cell(
                    cell, 1, env, work / f"full-{index}.json", False, 600))
    payload = {"generated_under": ORACLE_ENV,
               "cells": dict(sorted(refs.items()))}
    REFERENCES.write_text(json.dumps(payload, indent=1) + "\n",
                          encoding="utf-8")
    print(f"wrote {len(refs)} references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
