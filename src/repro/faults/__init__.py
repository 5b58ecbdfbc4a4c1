"""Fault injection and runtime invariant checking.

* :mod:`repro.faults.plan` — seeded, deterministic fault schedules
  (:class:`FaultPlan`) of timed perturbations the engine consults each
  scheduling cycle.
* :mod:`repro.faults.invariants` — the :class:`InvariantMonitor` that
  continuously asserts conservation, monotonicity, window-firing, and
  CPU-budget invariants over a running engine.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.invariants import (
        InvariantError,
        InvariantMonitor,
        InvariantViolation,
    )
    from repro.faults.plan import (
        Fault,
        FaultPlan,
        MemoryPressureSpike,
        NodeFailure,
        OperatorSlowdown,
        SourceStall,
        WatermarkDrop,
        WatermarkStraggler,
    )

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "Fault": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "SourceStall": "repro.faults.plan",
    "WatermarkStraggler": "repro.faults.plan",
    "WatermarkDrop": "repro.faults.plan",
    "OperatorSlowdown": "repro.faults.plan",
    "MemoryPressureSpike": "repro.faults.plan",
    "NodeFailure": "repro.faults.plan",
    "InvariantMonitor": "repro.faults.invariants",
    "InvariantViolation": "repro.faults.invariants",
    "InvariantError": "repro.faults.invariants",
}

__all__ = [
    "Fault",
    "FaultPlan",
    "SourceStall",
    "WatermarkStraggler",
    "WatermarkDrop",
    "OperatorSlowdown",
    "MemoryPressureSpike",
    "NodeFailure",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantError",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
