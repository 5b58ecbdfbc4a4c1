"""Cold-start probe: one short run in a fresh interpreter, reporting which
modules it loaded.

    PYTHONPATH=src python tests/coldstart_probe.py CASE

CASE is one of :data:`CASES`. The probe imports what perfbench's child
imports (``repro.bench.runner`` and ``repro.distributed``), runs the case
and prints one JSON object: ``loaded``, every module in ``sys.modules`` at
the end, and ``run_imports``, the modules that appeared while
``Engine.run`` was executing (there should be none: a deferred import
inside the cycle loop would be paid in the timed run). It imports nothing
else, so ``loaded`` is what the case costs a fresh process.
``tests/test_cold_start.py`` runs it.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import repro.bench.runner as runner
import repro.distributed  # noqa: F401  (the import cost a benchmark child pays)


def _watch_run(engine: Any, seen: List[str]) -> Any:
    """Wrap ``engine.run`` so the modules it imports land in ``seen``."""
    real_run = engine.run

    def run(*args: Any, **kwargs: Any) -> Any:
        before = set(sys.modules)
        try:
            return real_run(*args, **kwargs)
        finally:
            seen.extend(sorted(set(sys.modules) - before))

    engine.run = run
    return engine


def _experiment(seen: List[str], **fields: Any) -> Dict[str, Any]:
    real_engine = runner.Engine
    runner.Engine = lambda *a, **k: _watch_run(real_engine(*a, **k), seen)
    try:
        result = runner.run_experiment(runner.ExperimentConfig(**fields))
    finally:
        runner.Engine = real_engine
    result.metrics.summary()  # what every run pays after Engine.run
    return {"recoveries": result.metrics.recoveries}


def _distributed(seen: List[str]) -> Dict[str, Any]:
    from repro.distributed import DistributedEngine, PhysicalPlan
    from repro.workloads import WorkloadParams, build_queries

    queries = build_queries("ysb", 8, WorkloadParams(seed=11))
    plan = PhysicalPlan.split(queries, 2, segments=2)
    engine = _watch_run(DistributedEngine.with_klink(queries, plan, seed=11), seen)
    metrics = engine.run(20_000.0)
    metrics.summary()
    return {"recoveries": metrics.recoveries}


CASES = {
    "ysb-klink": lambda seen: _experiment(
        seen, workload="ysb", scheduler="Klink", n_queries=8, duration_ms=20_000.0, seed=11
    ),
    "lrb-default": lambda seen: _experiment(
        seen, workload="lrb", scheduler="Default", n_queries=4, duration_ms=20_000.0, seed=11
    ),
    "ysb-klink-recovery": lambda seen: _experiment(
        seen,
        workload="ysb",
        scheduler="Klink",
        n_queries=8,
        duration_ms=40_000.0,
        seed=11,
        fault_seed=3,
        recover="standby",
        audit=True,
        check_invariants=True,
        lineage_sample_rate=0.01,
    ),
    "ysb-dist-klink": _distributed,
}


def main(case: str) -> int:
    seen: List[str] = []
    facts = CASES[case](seen)
    print(json.dumps({"loaded": sorted(sys.modules), "run_imports": seen, **facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
