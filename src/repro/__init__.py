"""repro — reproduction of *Klink: Progress-Aware Scheduling for Streaming
Data Systems* (Farhat, Daudjee, Querzoni; SIGMOD 2021).

The package provides:

* :mod:`repro.spe` — a from-scratch discrete-event stream processing
  engine with windows, watermarks, a cost/selectivity model, a memory
  model with backpressure, and a pluggable state-based runtime scheduler.
* :mod:`repro.core` — the Klink scheduler (SWM ingestion estimation,
  expected-slack computation, join handling, memory management) and the
  five baseline policies the paper compares against.
* :mod:`repro.net` — the network delay distributions of the evaluation.
* :mod:`repro.workloads` — the YSB, LRB, and NYT benchmark pipelines.
* :mod:`repro.distributed` — the decentralized multi-node deployment of
  Sec. 4 with delay/cost information forwarding.
* :mod:`repro.bench` — the experiment harness regenerating every figure
  of the paper's evaluation.

Quickstart::

    from repro import KlinkScheduler, Engine, build_queries

    queries = build_queries("ysb", n_queries=8)
    engine = Engine(queries, KlinkScheduler(), cores=24, cycle_ms=120.0)
    metrics = engine.run(duration_ms=60_000.0)
    print(metrics.summary())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        ALL_BASELINES,
        ClassBasedScheduler,
        DefaultScheduler,
        FCFSScheduler,
        HighestRateScheduler,
        KlinkScheduler,
        LinearRegressionEstimator,
        RoundRobinScheduler,
        Scheduler,
        StreamBoxScheduler,
        SwmIngestionEstimator,
    )
    from repro.faults import (
        FaultPlan,
        InvariantMonitor,
        InvariantViolation,
        MemoryPressureSpike,
        NodeFailure,
        OperatorSlowdown,
        SourceStall,
        WatermarkDrop,
        WatermarkStraggler,
    )
    from repro.net import ConstantDelay, DelayModel, ExponentialDelay, UniformDelay, ZipfDelay
    from repro.spe import (
        CountWindowedAggregate,
        Engine,
        FusedOperator,
        ReorderBuffer,
        EventBatch,
        FilterOperator,
        LatencyMarker,
        MapOperator,
        MemoryConfig,
        Query,
        RunMetrics,
        SinkOperator,
        SlidingEventTimeWindows,
        SourceBinding,
        SourceSpec,
        TumblingEventTimeWindows,
        Watermark,
        WindowedAggregate,
        WindowedJoin,
        chain,
    )
    from repro.workloads import WorkloadParams, build_queries, workload_names

#: public name -> the layer that defines it, imported on first use
_EXPORTS = {
    "KlinkScheduler": "repro.core",
    "DefaultScheduler": "repro.core",
    "FCFSScheduler": "repro.core",
    "RoundRobinScheduler": "repro.core",
    "HighestRateScheduler": "repro.core",
    "StreamBoxScheduler": "repro.core",
    "Scheduler": "repro.core",
    "ClassBasedScheduler": "repro.core",
    "ALL_BASELINES": "repro.core",
    "SwmIngestionEstimator": "repro.core",
    "LinearRegressionEstimator": "repro.core",
    "Engine": "repro.spe",
    "Query": "repro.spe",
    "SourceSpec": "repro.spe",
    "SourceBinding": "repro.spe",
    "chain": "repro.spe",
    "MapOperator": "repro.spe",
    "FilterOperator": "repro.spe",
    "WindowedAggregate": "repro.spe",
    "WindowedJoin": "repro.spe",
    "CountWindowedAggregate": "repro.spe",
    "SinkOperator": "repro.spe",
    "ReorderBuffer": "repro.spe",
    "FusedOperator": "repro.spe",
    "TumblingEventTimeWindows": "repro.spe",
    "SlidingEventTimeWindows": "repro.spe",
    "EventBatch": "repro.spe",
    "Watermark": "repro.spe",
    "LatencyMarker": "repro.spe",
    "MemoryConfig": "repro.spe",
    "RunMetrics": "repro.spe",
    "FaultPlan": "repro.faults",
    "SourceStall": "repro.faults",
    "WatermarkStraggler": "repro.faults",
    "WatermarkDrop": "repro.faults",
    "OperatorSlowdown": "repro.faults",
    "MemoryPressureSpike": "repro.faults",
    "NodeFailure": "repro.faults",
    "InvariantMonitor": "repro.faults",
    "InvariantViolation": "repro.faults",
    "DelayModel": "repro.net",
    "UniformDelay": "repro.net",
    "ZipfDelay": "repro.net",
    "ConstantDelay": "repro.net",
    "ExponentialDelay": "repro.net",
    "build_queries": "repro.workloads",
    "WorkloadParams": "repro.workloads",
    "workload_names": "repro.workloads",
}

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # schedulers
    "KlinkScheduler",
    "DefaultScheduler",
    "FCFSScheduler",
    "RoundRobinScheduler",
    "HighestRateScheduler",
    "StreamBoxScheduler",
    "Scheduler",
    "ClassBasedScheduler",
    "ALL_BASELINES",
    "SwmIngestionEstimator",
    "LinearRegressionEstimator",
    # engine & pipeline building blocks
    "Engine",
    "Query",
    "SourceSpec",
    "SourceBinding",
    "chain",
    "MapOperator",
    "FilterOperator",
    "WindowedAggregate",
    "WindowedJoin",
    "CountWindowedAggregate",
    "SinkOperator",
    "ReorderBuffer",
    "FusedOperator",
    "TumblingEventTimeWindows",
    "SlidingEventTimeWindows",
    "EventBatch",
    "Watermark",
    "LatencyMarker",
    "MemoryConfig",
    "RunMetrics",
    # fault injection & invariant checking
    "FaultPlan",
    "SourceStall",
    "WatermarkStraggler",
    "WatermarkDrop",
    "OperatorSlowdown",
    "MemoryPressureSpike",
    "NodeFailure",
    "InvariantMonitor",
    "InvariantViolation",
    # delays
    "DelayModel",
    "UniformDelay",
    "ZipfDelay",
    "ConstantDelay",
    "ExponentialDelay",
    # workloads
    "build_queries",
    "WorkloadParams",
    "workload_names",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
