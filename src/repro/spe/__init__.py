"""The stream processing engine substrate (discrete-event simulator).

The engine and the operators load with the package; the reorder buffer
and the watermark generators load on first use (``repro._lazy``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.spe.engine import CycleEvent, Engine, NodeCycle
from repro.spe.events import EventBatch, LatencyMarker, Watermark
from repro.spe.memory import GIB, MemoryConfig, MemoryModel
from repro.spe.metrics import RunMetrics, cdf_points, mean_with_ci, percentile
from repro.spe.chaining import FusedOperator, fuse_stateless, fusible_runs
from repro.spe.operators import (
    CountWindowedAggregate,
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    Operator,
    SinkOperator,
    WindowedAggregate,
    WindowedJoin,
)
from repro.spe.query import Query, SourceBinding, SourceSpec, StreamProgress, chain
from repro.spe.simtime import VirtualClock, millis, seconds
from repro.spe.streams import Channel
from repro.spe.windows import (
    CountWindows,
    Pane,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
    WindowAssigner,
)

if TYPE_CHECKING:
    from repro.spe.reorder import ReorderBuffer
    from repro.spe.watermarks import (
        BoundedOutOfOrderness,
        PunctuatedWatermarks,
        WatermarkGeneratorOperator,
        WatermarkStrategy,
    )

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "ReorderBuffer": "repro.spe.reorder",
    "WatermarkStrategy": "repro.spe.watermarks",
    "BoundedOutOfOrderness": "repro.spe.watermarks",
    "PunctuatedWatermarks": "repro.spe.watermarks",
    "WatermarkGeneratorOperator": "repro.spe.watermarks",
}

__all__ = [
    "Engine",
    "CycleEvent",
    "NodeCycle",
    "EventBatch",
    "Watermark",
    "LatencyMarker",
    "MemoryConfig",
    "MemoryModel",
    "GIB",
    "RunMetrics",
    "percentile",
    "cdf_points",
    "mean_with_ci",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "WindowedAggregate",
    "WindowedJoin",
    "CountWindowedAggregate",
    "SinkOperator",
    "ReorderBuffer",
    "FusedOperator",
    "WatermarkStrategy",
    "BoundedOutOfOrderness",
    "PunctuatedWatermarks",
    "WatermarkGeneratorOperator",
    "fuse_stateless",
    "fusible_runs",
    "Query",
    "SourceBinding",
    "SourceSpec",
    "StreamProgress",
    "chain",
    "VirtualClock",
    "seconds",
    "millis",
    "Channel",
    "Pane",
    "WindowAssigner",
    "SlidingEventTimeWindows",
    "TumblingEventTimeWindows",
    "CountWindows",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
