#!/usr/bin/env python3
"""In-run telemetry: watch an injected slowdown in the sampled series.

Four YSB queries run under Klink while a deterministic
:class:`~repro.faults.FaultPlan` makes every operator 10x slower between
simulated seconds 3 and 12. A :class:`~repro.obs.TelemetrySampler`
rides along on the virtual clock, recording queue depths, recent p99
latency, memory-mode occupancy and deadline misses into bounded
ring-buffer series.

Note when each signal moves: queues grow *during* the slowdown, while
latencies are withheld (windows cannot fire while their operators
crawl), so recent p99 latency and deadline misses surface only after
the fault ends, when the backlog drains.

Usage::

    python examples/telemetry.py
"""

from repro import WorkloadParams, build_queries
from repro.core.klink import KlinkScheduler
from repro.faults import FaultPlan
from repro.faults.plan import OperatorSlowdown
from repro.obs import TelemetryConfig, TelemetrySampler
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig

DURATION_MS = 25_000.0
#: print the first sample at or after every multiple of this many ms
ROW_EVERY_MS = 2_000.0


def main() -> None:
    faults = FaultPlan([
        OperatorSlowdown(start_ms=3_000.0, end_ms=12_000.0, factor=10.0),
    ])
    print("Telemetry on 4 YSB queries (25 sim s, Klink)")
    print(faults.describe())
    print()

    sampler = TelemetrySampler(TelemetryConfig(deadline_slo_ms=1_000.0))
    queries = build_queries("ysb", 4, WorkloadParams(seed=1))
    engine = Engine(
        queries, KlinkScheduler(), cores=8, cycle_ms=120.0,
        memory=MemoryConfig(capacity_bytes=1.0 * GIB),
        seed=1, faults=faults, telemetry=sampler,
    )
    metrics = engine.run(DURATION_MS)

    registry = sampler.registry

    def points(name):
        """time -> value, summed over every series of ``name``."""
        out = {}
        for series in registry.matching(name):
            for t, value in series.points:
                out[t] = out.get(t, 0.0) + value
        return out

    queue = points("queue_depth")
    p99 = points("latency_recent_p99_ms")
    memory_mode = points("memory_mode_active")
    misses = points("deadline_misses")
    print(f"{'time':>6s} {'queued events':>14s} {'recent p99':>11s} "
          f"{'memory mode':>11s} {'deadline misses':>16s}")
    next_row = ROW_EVERY_MS
    for t in sorted(queue):
        if t < next_row:
            continue
        next_row += ROW_EVERY_MS
        recent = f"{p99[t] / 1000:10.2f}s" if t in p99 else f"{'-':>11s}"
        print(
            f"{t / 1000:5.0f}s {queue[t]:14,.0f} {recent} "
            f"{memory_mode.get(t, 0.0):11.0f} {misses.get(t, 0.0):16,.0f}"
        )
    print()
    print(f"deadline misses (> 1 s SLO): {metrics.deadline_misses}")
    print(f"max watermark lag:           "
          f"{metrics.watermark_lag_max_ms / 1000:.2f}s")
    print(f"delivered p99 latency:       "
          f"{metrics.latency_percentile(99) / 1000:.2f}s")
    print(
        "\nQueues grow inside the fault window while latency and deadline"
        "\nmisses wait for the post-fault drain -- queues lead, latency"
        "\nlags. 'repro-bench run --telemetry' wires the same sampler from"
        "\nthe CLI; see docs/OBSERVABILITY.md for the series."
    )
    raise SystemExit(0 if metrics.deadline_misses else 1)


if __name__ == "__main__":
    main()
