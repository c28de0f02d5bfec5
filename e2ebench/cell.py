"""Run one benchmark cell in this fresh interpreter.

Usage::

    python e2ebench/cell.py run '{"benchmark": ..., "policy": ...,
        "size": ..., "cores": ..., "force": 0|1, "trace": 0|1,
        "out": PATH}'
    python e2ebench/cell.py keys '[[benchmark, policy, size, cores], ...]'

``run`` enters through the calls ``python -m repro run`` makes
(``make_spec`` -> ``ExperimentEngine.run`` -> ``execute_spec``) against
the store named by ``REPRO_CACHE_DIR`` and writes one JSON record to
``out``: the canonical result digest, IPC, modeled seconds, guest
instructions, peak RSS, the moment the controller was ready and the
recorded spans.  Untraced runs wrap only the controller constructor
(one timestamp per cell, for ``setup_s``); traced runs wrap the public
entry point of every layer, keep the spans in memory and write them
with the record when the cell exits.

``keys`` prints the result-store key of each cell, so ``run.py`` can
check the reference fingerprints before it measures anything.
"""

import time

_STARTED = time.monotonic()

import builtins  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class SpanRecorder:
    """One span per wrapped call: ``[name, start, end, parent, count]``.

    ``parent`` is the index of the enclosing span (-1 at top level),
    ``count`` an optional per-call tally taken from the return value
    (instructions executed, a cache hit).  Spans stay in memory until
    the cell exits.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end,
                           self._stack[-1] if self._stack else -1, 0])

    def wrap(self, owner: object, attr: str, name: str,
             count=None, original=None) -> None:
        original = original or getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                span[4] = count(result)
            return result

        setattr(owner, attr, traced)


def _hit(result) -> int:
    return int(result is not None)


def install_layer_probes(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer (see README.md)."""
    import repro.analysis.sanitizer as sanitizer
    import repro.sampling
    import repro.sampling.simpoint.simpoint as simpoint
    import repro.vm.chain as chain
    import repro.vm.translator as translator
    import repro.workloads
    from repro.exec import ExperimentEngine, ResultStore
    from repro.exec.ckptstore import CheckpointLadder
    from repro.sampling.base import Sampler
    from repro.sampling.controller import SimulationController
    from repro.sampling.smp import SmpSimulationController

    wrap = recorder.wrap
    wrap(repro.workloads, "load_benchmark", "workloads.build")
    wrap(repro.sampling, "make_controller", "kernel.boot")
    wrap(sanitizer, "sanitize_block_source", "analysis.sanitizer")
    # shadow the builtin in the two modules that compile generated code
    wrap(translator, "compile", "compile", original=builtins.compile)
    wrap(chain, "compile", "compile", original=builtins.compile)
    wrap(translator.Translator, "translate", "vm.translator.codegen")
    wrap(chain.ChainLinker, "_compile", "vm.chain.build")
    for cls in (SimulationController, SmpSimulationController):
        for mode in ("fast", "profile", "warming", "timed"):
            if f"run_{mode}" in vars(cls):
                wrap(cls, f"run_{mode}", f"exec.{mode}",
                     count=(lambda r: r[0]) if mode == "timed" else int)
    wrap(SimulationController, "fast_forward", "exec.fast_forward",
         count=lambda advanced: int(advanced > 0))
    wrap(Sampler, "run", "sampling.policy")
    wrap(simpoint, "choose_clustering", "sampling.simpoint.cluster")
    wrap(CheckpointLadder, "load", "ckptstore.load", count=_hit)
    wrap(CheckpointLadder, "publish", "ckptstore.publish", count=_hit)
    for attr in ("load_artifact", "load_profile"):
        wrap(CheckpointLadder, attr, "ckptstore.artifact.load", count=_hit)
    for attr in ("publish_artifact", "publish_profile"):
        wrap(CheckpointLadder, attr, "ckptstore.artifact.publish")
    wrap(ResultStore, "get", "store.get")
    wrap(ResultStore, "put", "store.put")
    wrap(ExperimentEngine, "run", "exec.engine")


def result_digest(result) -> str:
    """sha256 of the canonical (host-independent) result."""
    text = json.dumps(result.canonical_dict(), sort_keys=True,
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cell(job: dict) -> dict:
    recorder = SpanRecorder()
    import repro.cli  # noqa: F401  - what ``python -m repro`` imports
    import repro.sampling
    from repro.exec import ExperimentEngine
    from repro.harness.experiments import make_spec
    if job["trace"]:
        install_layer_probes(recorder)
        recorder.add("import", _STARTED, time.monotonic())
    else:
        recorder.wrap(repro.sampling, "make_controller", "kernel.boot")

    spec = make_spec(job["benchmark"], job["policy"], job["size"],
                     cores=job["cores"])
    record = {"key": spec.key, "fingerprint": spec.fingerprint,
              "ok": False, "error": ""}
    outcome = ExperimentEngine(jobs=1).run(
        [spec], force=bool(job["force"]))[spec.key]
    if outcome.ok:
        result = outcome.result
        record.update(ok=True, digest=result_digest(result),
                      ipc=result.ipc,
                      modeled_seconds=result.modeled_seconds,
                      instructions=result.total_instructions)
    else:
        record["error"] = outcome.error
    boots = [span for span in recorder.spans if span[0] == "kernel.boot"]
    record["ready"] = boots[0][2] if boots else None
    record["maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    record["spans"] = recorder.spans if job["trace"] else []
    return record


def main(argv: list) -> int:
    mode, payload = argv[1], json.loads(argv[2])
    if mode == "keys":
        from repro.harness.experiments import make_spec
        print(json.dumps([make_spec(bench, policy, size, cores=cores).key
                          for bench, policy, size, cores in payload]))
        return 0
    try:
        record = run_cell(payload)
    except Exception:  # reported as a failed cell by run.py
        record = {"ok": False, "error": traceback.format_exc()}
    tmp = payload["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp, payload["out"])
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
