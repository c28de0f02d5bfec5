"""Policy registry plus thin wrappers over the experiment engine.

The sampling-policy registry (:func:`policy_factory`) lives here; the
execution machinery — job specs, result store, serial/parallel
backends, resume — lives in :mod:`repro.exec`.  :func:`run_policy` and
:func:`fetch_results` are the convenience entry points every caller
(CLI, figure builders, benchmark targets, examples) goes through.

Results are memoised on disk in a sharded store under
``benchmarks/.cache`` (overridable via ``REPRO_CACHE_DIR``, resolved
lazily at every lookup), keyed by benchmark, policy, size *and a
fingerprint of the simulator configuration* — changing
:class:`~repro.timing.TimingConfig` or the suite machine knobs can
never silently return stale results.  Delete the cache directory to
force re-simulation.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.exec import (CACHE_VERSION, ExperimentEngine, ExperimentError,
                        JobSpec, ResultStore, config_fingerprint,
                        default_fingerprint, default_store, execute_spec,
                        failed_jobs, format_failure_summary)
from repro.sampling import (DynamicSampler, FullTiming, PolicyResult,
                            RANKEDSET_PRESET, SIMPOINT_MAV_PRESET,
                            SIMPOINT_PRESET, SMARTS_PRESET,
                            STRATIFIED_PRESET, RankedSetSampler,
                            SmartsSampler, StratifiedSampler,
                            dynamic_config, rankedset_config,
                            stratified_config)
from repro.workloads import SUITE_ORDER

__all__ = [
    "CACHE_VERSION", "QUICK_SUITE", "ResultStore", "default_benchmarks",
    "default_store", "fetch_results", "make_spec", "modeled_seconds_for",
    "normalize_policy", "policy_factory", "run_policy", "run_suite",
    "smp_fingerprint",
]


# ----------------------------------------------------------------------
# policy registry

def _dynamic_factory(variable: str, sensitivity, label: str,
                     max_func) -> Callable:
    return lambda: DynamicSampler(
        dynamic_config(variable, sensitivity, label, max_func))


def policy_factory(key: str) -> Callable:
    """Resolve a policy key to a sampler factory.

    Keys: ``full``, ``smarts``, ``simpoint``, ``simpoint-ckpt``,
    ``simpoint-mav`` (MAV-augmented BBV features), ``stratified`` /
    ``stratified-N`` (two-phase stratified sampling with a phase-2
    budget of N timed intervals), ``rankedset`` / ``rankedset-N``
    (ranked-set sampling with N subsampling cycles), or
    Dynamic-Sampling strings like ``CPU-300-1M-inf`` / ``IO-100-10M-10``
    (paper
    notation; the sensitivity-percent field may be fractional, e.g.
    ``CPU-0.3-1M-1000``).  ``simpoint+prof`` shares the ``simpoint``
    run; use :func:`modeled_seconds_for` to get its cost.
    """
    if key == "full":
        return FullTiming
    if key == "smarts":
        return lambda: SmartsSampler(SMARTS_PRESET)
    if key in ("simpoint", "simpoint+prof", "simpoint-ckpt",
               "simpoint-mav"):
        # imported here: SimPoint is the one policy that needs numpy
        from repro.sampling.simpoint import (CheckpointedSimPointSampler,
                                             SimPointSampler)
        if key == "simpoint-ckpt":
            return lambda: CheckpointedSimPointSampler(SIMPOINT_PRESET)
        if key == "simpoint-mav":
            return lambda: SimPointSampler(SIMPOINT_MAV_PRESET)
        return lambda: SimPointSampler(SIMPOINT_PRESET)
    if key == "stratified":
        return lambda: StratifiedSampler(STRATIFIED_PRESET)
    if key.startswith("stratified-"):
        try:
            config = stratified_config(int(key.split("-", 1)[1]))
        except ValueError as exc:
            raise KeyError(f"unknown policy key {key!r}") from exc
        return lambda: StratifiedSampler(config)
    if key == "rankedset":
        return lambda: RankedSetSampler(RANKEDSET_PRESET)
    if key.startswith("rankedset-"):
        try:
            config = rankedset_config(int(key.split("-", 1)[1]))
        except ValueError as exc:
            raise KeyError(f"unknown policy key {key!r}") from exc
        return lambda: RankedSetSampler(config)
    parts = key.split("-")
    if len(parts) == 4 and parts[0] in ("CPU", "EXC", "IO"):
        variable, sensitivity_text, label, maxf = parts
        max_func = None if maxf == "inf" else int(maxf)
        sensitivity = float(sensitivity_text)
        if sensitivity.is_integer():
            sensitivity = int(sensitivity)
        return _dynamic_factory(variable, sensitivity, label, max_func)
    raise KeyError(f"unknown policy key {key!r}")


def normalize_policy(key: str) -> str:
    """Map alias policies onto the job that actually runs
    (``simpoint+prof`` reuses the ``simpoint`` simulation)."""
    return "simpoint" if key == "simpoint+prof" else key


def modeled_seconds_for(key: str, result: PolicyResult) -> float:
    """The modeled host time for ``key`` given its (cached) result.

    ``simpoint+prof`` adds the BBV-profiling pass to the SimPoint time
    (the paper's Figure 5 "SimPoint+prof" point).
    """
    if key == "simpoint+prof":
        return result.extra.get("modeled_seconds_with_profiling",
                                result.modeled_seconds)
    return result.modeled_seconds


# ----------------------------------------------------------------------
# engine entry points

def smp_fingerprint(cores: int) -> str:
    """Fingerprint of the suite defaults at ``cores`` guest harts."""
    from repro.timing import TimingConfig
    from repro.workloads import SUITE_MACHINE_KWARGS
    return config_fingerprint(TimingConfig.small(),
                              {**SUITE_MACHINE_KWARGS, "n_cores": cores})


def make_spec(benchmark: str, policy: str, size: str = "small",
              fingerprint: Optional[str] = None,
              cores: Optional[int] = None) -> JobSpec:
    """Build the job spec for one grid cell (validates the policy key,
    normalises aliases, stamps the config fingerprint).

    ``cores=None`` picks the benchmark's default hart count — 1 for the
    SPEC suite (byte-identical keys to pre-SMP specs), the workload's
    own default for the parallel suite.  Any SMP cell folds ``n_cores``
    into the fingerprint so core counts can never share cached results.
    """
    from repro.workloads import (default_benchmark_cores,
                                 is_parallel_benchmark)
    policy = normalize_policy(policy)
    policy_factory(policy)  # raises KeyError for unknown keys up front
    if cores is None:
        cores = default_benchmark_cores(benchmark)
    cores = max(1, int(cores))
    if fingerprint is None:
        if cores > 1 or is_parallel_benchmark(benchmark):
            fingerprint = smp_fingerprint(cores)
        else:
            fingerprint = default_fingerprint()
    return JobSpec(benchmark=benchmark, policy=policy, size=size,
                   fingerprint=fingerprint, cores=cores)


def run_policy(benchmark: str, policy: str, size: str = "small",
               store: Optional[ResultStore] = None,
               use_cache: bool = True,
               tracer: Optional["obs.Tracer"] = None,
               cores: Optional[int] = None) -> PolicyResult:
    """Run (or fetch) one policy on one benchmark.

    Passing a ``tracer`` forces a fresh simulation (cached results
    carry no event stream) and wires it into the controller.
    """
    spec = make_spec(benchmark, policy, size, cores=cores)
    if tracer is not None:
        return execute_spec(spec, tracer=tracer)
    engine = ExperimentEngine(store=store, jobs=1)
    outcome = engine.run([spec], use_cache=use_cache)[spec.key]
    if not outcome.ok:
        raise ExperimentError(
            f"job {spec.job_id} failed: {outcome.error}", [outcome])
    return outcome.result


def fetch_results(policies: List[str], benchmarks: List[str],
                  size: str = "small",
                  store: Optional[ResultStore] = None,
                  jobs: Optional[int] = None,
                  engine: Optional[ExperimentEngine] = None,
                  use_cache: bool = True,
                  cores: Optional[int] = None
                  ) -> Dict[tuple, PolicyResult]:
    """Run/fetch a (benchmark x policy) grid through the engine.

    Returns ``{(benchmark, policy): PolicyResult}`` for every requested
    pair; raises :class:`ExperimentError` if any cell failed.
    ``cores=None`` uses each benchmark's default hart count.
    """
    engine = engine or ExperimentEngine(store=store, jobs=jobs)
    outcomes = engine.run_grid(benchmarks, policies, size=size,
                               use_cache=use_cache, cores=cores)
    failures = failed_jobs(outcomes)
    if failures:
        raise ExperimentError(format_failure_summary(failures),
                              failures)
    return {pair: outcome.result
            for pair, outcome in outcomes.items()}


def run_suite(policy: str, size: str = "small",
              benchmarks: Optional[List[str]] = None,
              store: Optional[ResultStore] = None,
              jobs: Optional[int] = None,
              cores: Optional[int] = None
              ) -> Dict[str, PolicyResult]:
    """Run one policy over the suite; returns {benchmark: result}."""
    names = list(benchmarks or SUITE_ORDER)
    results = fetch_results([policy], names, size=size, store=store,
                            jobs=jobs, cores=cores)
    return {name: results[(name, policy)] for name in names}


#: the subset used by default for the pytest-benchmark targets; set
#: REPRO_FULL_SUITE=1 to regenerate figures over all 26 benchmarks
QUICK_SUITE = ("gzip", "gcc", "mcf", "crafty", "perlbmk", "swim", "art",
               "sixtrack")


def default_benchmarks() -> List[str]:
    if os.environ.get("REPRO_FULL_SUITE"):
        return list(SUITE_ORDER)
    return list(QUICK_SUITE)
