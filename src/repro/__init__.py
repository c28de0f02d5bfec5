"""repro — a reproduction of "Combining Simulation and Virtualization
through Dynamic Sampling" (Falcón, Faraboschi, Ortega; ISPASS 2007).

The package couples a fast functional virtual machine (a dynamic binary
translator for the Z64 guest ISA, :mod:`repro.vm`) to a detailed
out-of-order timing model (:mod:`repro.timing`) and implements the
paper's Dynamic Sampling plus the SMARTS and SimPoint baselines
(:mod:`repro.sampling`) over a synthetic SPEC CPU2000 workload suite
(:mod:`repro.workloads`).

Quick start::

    from repro import (load_benchmark, SimulationController,
                       DynamicSampler, dynamic_config)

    workload = load_benchmark("perlbmk", size="small")
    controller = SimulationController(workload)
    sampler = DynamicSampler(dynamic_config("CPU", 300, "1M", None))
    result = sampler.run(controller)
    print(result.ipc, result.timed_intervals)
"""

from repro._lazy import lazy_attributes
from repro.isa import assemble, disassemble
from repro.kernel import System, boot
from repro.sampling import (DynamicSampler, DynamicSamplingConfig,
                            FullTiming, PolicyResult, SIMPOINT_PRESET,
                            SMARTS_PRESET, SimulationController,
                            SmartsSampler, accuracy_error, dynamic_config,
                            speedup)
from repro.timing import OutOfOrderCore, TimingConfig
from repro.vm import (MODE_EVENT, MODE_FAST, MODE_INTERP, MODE_PROFILE,
                      Machine)
from repro.workloads import (SUITE_ORDER, Workload, WorkloadBuilder,
                             benchmark_names, load_benchmark, load_suite)

__version__ = "1.0.0"

#: SimPoint needs numpy, which cells of the other policies never import
__getattr__ = lazy_attributes(__name__, {
    ".sampling.simpoint": ("SimPointSampler",),
})

__all__ = [
    "assemble", "disassemble",
    "System", "boot",
    "DynamicSampler", "DynamicSamplingConfig", "FullTiming",
    "PolicyResult", "SIMPOINT_PRESET", "SMARTS_PRESET",
    "SimPointSampler", "SimulationController", "SmartsSampler",
    "accuracy_error", "dynamic_config", "speedup",
    "OutOfOrderCore", "TimingConfig",
    "MODE_EVENT", "MODE_FAST", "MODE_INTERP", "MODE_PROFILE", "Machine",
    "SUITE_ORDER", "Workload", "WorkloadBuilder", "benchmark_names",
    "load_benchmark", "load_suite",
    "__version__",
]
