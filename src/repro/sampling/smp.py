"""Controller selection for single- and multi-core guests.

:class:`~repro.sampling.controller.SimulationController` drives any
number of harts.  :func:`make_controller` is the seam the exec worker
and the harness go through: it returns an
:class:`SmpSimulationController` when the workload boots an
:class:`~repro.vm.smp.SmpMachine` (see
:meth:`repro.workloads.Workload.smp_cores`) and the plain controller
otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.timing import TimingConfig
from repro.workloads import Workload

from .controller import SimulationController

__all__ = ["SmpSimulationController", "make_controller"]


class SmpSimulationController(SimulationController):
    """The controller of a guest booted as an SmpMachine.

    It adds no behaviour; the class only names the guest kind, so
    callers (and profiling probes) can tell the two apart.
    """


def make_controller(workload: Workload,
                    timing_config: Optional[TimingConfig] = None,
                    machine_kwargs: Optional[dict] = None,
                    feedback: bool = False,
                    tracer: Optional[obs.Tracer] = None
                    ) -> SimulationController:
    """Build the controller for ``workload``.

    The guest boots multi-core when the machine kwargs request
    ``n_cores > 1`` or the workload is inherently parallel (its default
    core count then applies); everything else is a plain one-hart
    ``Machine``.
    """
    n_cores = int((machine_kwargs or {}).get("n_cores", 0) or 0)
    cls = (SmpSimulationController if workload.smp_cores(n_cores)
           else SimulationController)
    return cls(workload, timing_config=timing_config,
               machine_kwargs=machine_kwargs, feedback=feedback,
               tracer=tracer)
