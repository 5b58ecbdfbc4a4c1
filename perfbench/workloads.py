"""The benchmark's five workloads, each a shape from the paper's experiments.

Every workload is a batch job: open-loop sources at fixed rates in virtual
time, run for 120 simulated seconds (1000 cycles of 120 ms) on 24 cores
per node and timed to completion on the host clock. Only ``--seed``
varies between runs; it seeds the data, the network delays and the engine.

Workloads are built only through the simulator's public entry points —
``run_experiment(ExperimentConfig(...))``, and ``build_queries`` +
``PhysicalPlan.split`` + ``DistributedEngine.with_klink`` — and never set
``vectorized`` or ``batch_size``, so they measure the defaults users get.
This module imports nothing from the simulator, so run.py can read the
definitions without importing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SIM_MS = 120_000.0

#: Fig. 6e's deployment: pipelines cut in two over consecutive nodes,
#: 1 GiB of memory, and Flink's 100 ms network buffer timeout per hop.
DIST_SEGMENTS = 2
DIST_MEMORY_GB = 1.0
DIST_RPC_LATENCY_MS = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    workload: str  # repro.workloads builder
    scheduler: str
    n_queries: int
    why: str
    rate_scale: float = 1.0
    duration_ms: float = SIM_MS
    #: > 0 runs DistributedEngine.with_klink over this many nodes
    nodes: int = 0
    #: further ExperimentConfig fields
    options: Tuple[Tuple[str, object], ...] = ()

    @property
    def expects_recovery(self) -> bool:
        return dict(self.options).get("recover") is not None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ysb-klink", "ysb", "Klink", 60,
            "Fig. 6's contended point with Klink memory-management episodes; "
            "scheduler plan is the largest layer share",
        ),
        Workload(
            "lrb-default", "lrb", "Default", 40,
            "under capacity; the only 3-input windowed join, and it "
            "bypasses scheduler cost",
        ),
        Workload(
            "nyt-default", "nyt", "Default", 60,
            "overloaded with backpressure; stateless chains and sliding "
            "windows under shedding and deferral",
        ),
        Workload(
            "ysb-dist-klink", "ysb", "Klink", 80,
            "Fig. 6e shape on 4 nodes; per-node plans, info forwarding and "
            "the per-event channel path",
            rate_scale=1.25,
            nodes=4,
        ),
        Workload(
            "ysb-klink-recovery", "ysb", "Klink", 40,
            "checkpoints, one standby failover, audit, invariants and "
            "lineage beside processing",
            options=(
                # The fault plan depends only on the fault seed, the
                # duration and the query ids, so every --seed fails a node.
                ("fault_seed", 3),
                ("recover", "standby"),
                ("audit", True),
                ("check_invariants", True),
                ("lineage_sample_rate", 0.01),
            ),
        ),
    )
}
