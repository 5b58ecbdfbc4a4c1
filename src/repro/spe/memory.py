"""SPE memory model and backpressure.

Memory pressure is what separates Klink-with-MM from Klink-without-MM in
the paper's evaluation (Figs. 6b, 6d, 8, 9a). The model charges every
queued record's bytes plus window-operator state to a finite budget. When
utilization reaches the backpressure threshold, the engine stops delivering
ingested records into operator queues — the paper's "backpressure mechanism
that throttles the input rate" — which eases memory at the cost of delaying
the whole stream (including watermarks, and therefore SWMs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.spe.state import FLOAT

GIB = 1024 ** 3


@dataclass
class MemoryConfig:
    """Memory budget parameters.

    Attributes:
        capacity_bytes: Total memory available to operator queues + state
            (the paper's machines max out at 17.5 GB of usable heap, Fig 8).
        backpressure_threshold: Fraction of capacity at which ingestion is
            throttled.
        pressure_tax_start: Utilization above which memory pressure starts
            costing CPU.
        pressure_tax_full: Utilization at which the tax saturates.
        pressure_tax_max: Fraction of the CPU budget lost once the tax
            saturates.

    The *pressure tax* models the runtime cost of operating a JVM-based SPE
    near its heap limit: garbage-collection pauses, allocation stalls, and
    cache pollution consume a growing share of CPU as the heap fills. This
    is the mechanism behind the paper's Figs. 8/9b — the Default scheduler
    pegs memory at the limit and its CPU utilization *drops* ("lower CPU
    utilization levels are a manifestation of the SPE not being able to
    process events efficiently"), while Klink's memory management keeps
    utilization lower and sustains high useful CPU. The tax ramps
    quadratically between ``pressure_tax_start`` and ``pressure_tax_full``.
    """

    capacity_bytes: float = 17.5 * GIB
    backpressure_threshold: float = 0.98
    pressure_tax_start: float = 0.05
    pressure_tax_full: float = 0.35
    pressure_tax_max: float = 0.30
    #: per-query credit bound as a fraction of capacity (None = unbounded).
    #: Models Flink's credit-based flow control: a query whose queued
    #: records exceed its bounded channel buffers stalls its own sources
    #: without affecting other queries. Disabled by default — stalling a
    #: channel reorders it against the watermark stream and drops late
    #: events at the stall boundary; the global backpressure model is the
    #: primary mechanism. Kept for ablation studies.
    per_query_bound_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_bytes}")
        if not 0 < self.backpressure_threshold <= 1:
            raise ValueError(
                f"threshold must be in (0, 1]: {self.backpressure_threshold}"
            )
        if not 0 <= self.pressure_tax_start < self.pressure_tax_full <= 1:
            raise ValueError(
                "tax thresholds must satisfy 0 <= start < full <= 1: "
                f"{self.pressure_tax_start}, {self.pressure_tax_full}"
            )
        if not 0 <= self.pressure_tax_max < 1:
            raise ValueError(
                f"tax max must be in [0, 1): {self.pressure_tax_max}"
            )
        if self.per_query_bound_fraction is not None and not (
            0 < self.per_query_bound_fraction <= 1
        ):
            raise ValueError(
                "per-query bound fraction must be in (0, 1]: "
                f"{self.per_query_bound_fraction}"
            )


class MemoryModel:
    """Tracks utilization across a set of queries and signals backpressure."""

    CHECKPOINT = ((None, "external_bytes", FLOAT),)

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        #: bytes occupied by external tenants (set by fault injection's
        #: MemoryPressureSpike episodes); charged against the same budget.
        self.external_bytes: float = 0.0

    def used_bytes(self, queries: Sequence) -> float:
        """Current footprint: queued records plus window state."""
        return sum(q.memory_bytes for q in queries) + self.external_bytes

    def utilization(self, queries: Sequence) -> float:
        """Fraction of capacity in use (can exceed 1.0 transiently)."""
        return self.used_bytes(queries) / self.config.capacity_bytes

    def backpressured(self, queries: Sequence) -> bool:
        """True when ingestion must be throttled."""
        return self.utilization(queries) >= self.config.backpressure_threshold

    def query_stalled(self, query) -> bool:
        """True when a query's own credit bound is exhausted (its sources
        stall under Flink-style per-channel flow control)."""
        fraction = self.config.per_query_bound_fraction
        if fraction is None:
            return False
        return query.memory_bytes >= fraction * self.config.capacity_bytes

    def pressure_tax(self, utilization: float) -> float:
        """Fraction of CPU lost to memory pressure at ``utilization``."""
        start = self.config.pressure_tax_start
        full = self.config.pressure_tax_full
        if utilization <= start:
            return 0.0
        x = min((utilization - start) / (full - start), 1.0)
        return self.config.pressure_tax_max * x * x
