"""A run split into ``run()`` segments equals one call of the same total.

Output is set by the input, not by how the caller slices the run: any
split of a duration into segments, including lengths that are not whole
cycles, must give the same summary and audit JSONL as one ``run()``
call — on the single-node engine (with its lineage rows too), on a
two-node ``DistributedEngine``, and on a telemetry-sampled engine (with
its series rows and deadline misses).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Callable, Dict, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.klink import KlinkScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.obs import AuditLog
from repro.obs.lineage import LineageTracker
from repro.obs.timeseries import TelemetrySampler
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries

#: total simulated length: 166.7 cycles of the default 120 ms
DURATION_MS = 20_000
SEED = 4


def single_engine() -> Engine:
    """Four YSB queries under Klink on two cores, every record of a
    20% hash sample traced end to end."""
    return Engine(
        build_queries("ysb", 4, WorkloadParams(seed=SEED)),
        KlinkScheduler(),
        cores=2,
        seed=SEED,
        audit=AuditLog(),
        lineage=LineageTracker(0.2, seed=SEED),
    )


def distributed_engine() -> Engine:
    """The same queries split over two nodes of one core each."""
    queries = build_queries("ysb", 4, WorkloadParams(seed=SEED))
    return DistributedEngine.with_klink(
        queries,
        PhysicalPlan.split(queries, 2),
        cores_per_node=1,
        seed=SEED,
        audit=AuditLog(),
    )


def telemetry_engine() -> Engine:
    """The same queries on two cores, sampled by the telemetry sampler."""
    return Engine(
        build_queries("ysb", 4, WorkloadParams(seed=SEED)),
        KlinkScheduler(),
        cores=2,
        seed=SEED,
        telemetry=TelemetrySampler(),
    )


ENGINES: Dict[str, Callable[[], Engine]] = {
    "single": single_engine,
    "distributed": distributed_engine,
    "telemetry": telemetry_engine,
}


def outputs(kind: str, segments: Sequence[int]) -> Dict[str, Any]:
    engine = ENGINES[kind]()
    for length in segments:
        engine.run(float(length))
    result: Dict[str, Any] = {
        "cycles": engine.metrics.cycles,
        "summary": json.dumps(engine.metrics.summary(), sort_keys=True),
    }
    if engine.audit is not None:
        result["audit"] = engine.audit.to_jsonl_str()
    if engine.lineage is not None:
        result["lineage"] = engine.lineage.lineage_rows()
    if engine.telemetry is not None:
        result["series"] = engine.telemetry.series_rows()
    return result


@lru_cache(maxsize=None)
def one_call(kind: str) -> Dict[str, Any]:
    return outputs(kind, [DURATION_MS])


def split(cuts: Sequence[int]) -> list:
    """Segment lengths between sorted cut points of the duration."""
    bounds = [0, *sorted(set(cuts)), DURATION_MS]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=12, deadline=None)
@given(cuts=st.lists(st.integers(1, DURATION_MS - 1), max_size=4))
@example(cuts=[10_000])  # two halves, each 83.3 cycles
@example(cuts=[100, 110])  # segments shorter than a cycle
def test_any_segmentation_equals_one_call(cuts):
    segments = split(cuts)
    for kind in ENGINES:
        assert outputs(kind, segments) == one_call(kind), (kind, segments)


def test_one_call_covers_the_traced_paths():
    single, dist = one_call("single"), one_call("distributed")
    sampled = one_call("telemetry")
    # the run ends on the first cycle boundary at or past the duration
    assert single["cycles"] == dist["cycles"] == -(-DURATION_MS // 120)
    assert single["lineage"] and single["audit"]
    assert dist["audit"].count('"node":1') > 0
    summary = json.loads(sampled["summary"])
    assert summary["deadline_misses"] > 0
    assert sampled["series"]
