"""Experiment runner: one call = one engine run = one data point.

The paper's evaluation (Sec. 6) sweeps the number of deployed queries,
the offered throughput, the scheduling policy, the node count, and the
network delay distribution, measuring mean/tail output latency,
throughput, slowdown, and memory/CPU utilization. This module pins the
calibrated experiment configuration (per-workload memory scale, cores,
cycle length) and provides a session-level cache so the per-figure bench
modules can share sweep points instead of re-simulating them.

Scale note: the paper runs 20-minute experiments on a 24-core Xeon with
17.5 GB of usable heap; the simulator runs 2 simulated minutes with a
proportionally scaled memory capacity (see DESIGN.md). Absolute numbers
differ; the comparisons between policies are the reproduced object.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.baselines import (
    DefaultScheduler,
    FCFSScheduler,
    HighestRateScheduler,
    RoundRobinScheduler,
    StreamBoxScheduler,
)
from repro.core.klink import KlinkScheduler
from repro.core.scheduler import Scheduler
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.spe.metrics import RunMetrics
from repro.spe.streams import DEFAULT_BATCH_SIZE
from repro.workloads import WorkloadParams, build_queries

# Faults, observers, resilience and the result cache load only in the
# functions that use them, so a plain run never compiles those layers.
if TYPE_CHECKING:
    from repro.bench.cache import ResultCache
    from repro.faults import InvariantMonitor
    from repro.obs import (
        AuditLog,
        ChainProfile,
        LineageTracker,
        TelemetrySampler,
        Trace,
    )

#: simulated experiment length (the paper runs 20 real minutes)
DEFAULT_DURATION_MS = 120_000.0

#: checkpoint period used when recovery is requested without an explicit
#: ``--checkpoint-period`` (Flink's conventional default is seconds-scale)
DEFAULT_CHECKPOINT_PERIOD_MS = 5_000.0

#: calibrated memory capacity per workload (GiB). LRB's windowed join
#: legitimately buffers raw events (its standing state is several hundred
#: MB at high query counts), so it gets a larger budget; see DESIGN.md.
WORKLOAD_MEMORY_GB: Dict[str, float] = {
    "ysb": 1.0,
    "lrb": 2.0,
    "nyt": 1.0,
}

_SCHEDULER_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "Default": DefaultScheduler,
    "FCFS": FCFSScheduler,
    "RR": RoundRobinScheduler,
    "HR": HighestRateScheduler,
    "SBox": StreamBoxScheduler,
    "Klink": KlinkScheduler,
    "Klink (w/o MM)": lambda: KlinkScheduler(enable_memory_management=False),
}

SCHEDULER_NAMES: Tuple[str, ...] = tuple(_SCHEDULER_FACTORIES)


def make_scheduler(name: str, **overrides) -> Scheduler:
    """Instantiate a scheduling policy by its paper name."""
    factory = _SCHEDULER_FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}")
    if overrides:
        if name == "Klink (w/o MM)":
            return KlinkScheduler(enable_memory_management=False, **overrides)
        if name == "Klink":
            return KlinkScheduler(**overrides)
        raise ValueError(f"scheduler {name!r} accepts no overrides")
    return factory()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: (workload, policy, load, environment)."""

    workload: str = "ysb"
    scheduler: str = "Klink"
    n_queries: int = 60
    duration_ms: float = DEFAULT_DURATION_MS
    cores: int = 24
    cycle_ms: float = 120.0
    delay: str = "uniform"
    rate_scale: float = 1.0
    seed: int = 1
    memory_gb: Optional[float] = None  # None -> per-workload default
    confidence: Optional[float] = None  # Klink's f (None -> 95)
    fault_seed: Optional[int] = None  # None -> no fault injection
    check_invariants: bool = False  # attach an InvariantMonitor
    validate: bool = True  # static plan validation at submission
    audit: bool = False  # attach a scheduler-decision AuditLog
    profile: bool = False  # attach a per-operator OperatorProfiler
    audit_max_rows: int = 50_000  # AuditLog in-memory bound
    trace_path: Optional[str] = None  # stream a full run trace to this file
    # in-run telemetry (repro.obs.timeseries); traced runs always sample
    telemetry: bool = False  # attach a TelemetrySampler
    telemetry_period_ms: float = 200.0  # virtual-clock sample period
    deadline_slo_ms: float = 1000.0  # latency above this = deadline miss
    # resilience (repro.resilience): periodic checkpointing and the
    # recovery strategy for node failures (None keeps legacy semantics)
    checkpoint_period_ms: Optional[float] = None
    recover: Optional[str] = None  # "restart" | "standby" | "none"
    # payload rows per channel queue entry (1 = one row per entry);
    # execution is byte-identical for every value, so this is a pure
    # wall-clock knob
    batch_size: int = DEFAULT_BATCH_SIZE
    # hash-based lineage sampling rate (0 = off). Tracing is a pure
    # observer: any rate leaves summaries, scheduler decisions, and
    # checkpoint bytes identical to an untraced run.
    lineage_sample_rate: float = 0.0

    def resolved_memory_gb(self) -> float:
        if self.memory_gb is not None:
            return self.memory_gb
        return WORKLOAD_MEMORY_GB[self.workload.lower()]


@dataclass
class ExperimentResult:
    """Metrics of one run plus the engine-independent headline numbers."""

    config: ExperimentConfig
    metrics: RunMetrics
    monitor: Optional[InvariantMonitor] = None
    audit: Optional[AuditLog] = None
    chain_profiles: List[ChainProfile] = field(default_factory=list)
    telemetry: Optional[TelemetrySampler] = None
    lineage: Optional[LineageTracker] = None

    @property
    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()

    def row(self) -> str:
        """One formatted table row (used by bench output)."""
        s = self.summary
        return (
            f"{self.config.scheduler:16s} n={self.config.n_queries:3d} "
            f"mean={s['mean_latency_ms'] / 1000:6.2f}s "
            f"p90={s['p90_latency_ms'] / 1000:6.2f}s "
            f"p99={s['p99_latency_ms'] / 1000:6.2f}s "
            f"thr={s['throughput_eps'] / 1e5:5.2f}x1e5ev/s "
            f"cpu={s['mean_cpu_pct']:5.1f}% "
            f"mem={s['mean_memory_gb']:5.2f}GB"
        )


def trace_meta(config: ExperimentConfig) -> Dict[str, object]:
    """The experiment identity recorded in a trace's ``meta`` record."""
    from repro.obs import SCHEMA_VERSION

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": config.workload,
        "scheduler": config.scheduler,
        "n_queries": config.n_queries,
        "duration_ms": config.duration_ms,
        "cores": config.cores,
        "cycle_ms": config.cycle_ms,
        "delay": config.delay,
        "rate_scale": config.rate_scale,
        "seed": config.seed,
    }


def trace_summary(metrics: RunMetrics) -> Dict[str, object]:
    """The end-of-run ``summary`` record of a trace (headline numbers
    plus the latency CDF points the report renders)."""
    summary: Dict[str, object] = dict(metrics.summary())
    summary["cycles"] = metrics.cycles
    summary["backpressure_cycles"] = metrics.backpressure_cycles
    summary["total_events_processed"] = metrics.total_events_processed
    summary["events_shed"] = metrics.events_shed
    summary["late_events_dropped"] = metrics.late_events_dropped
    summary["latency_cdf"] = [list(point) for point in metrics.latency_cdf()]
    if (
        metrics.recoveries
        or metrics.events_lost_to_failures
        or metrics.recovery_events
    ):
        summary["resilience"] = metrics.resilience_summary()
    return summary


def trace_from_result(result: ExperimentResult) -> Trace:
    """Assemble an in-memory run trace from an audited/profiled result.

    Requires the experiment to have run with ``audit=True``; operator
    and chain sections are filled when ``profile=True`` was also set,
    the series section when ``telemetry=True``.
    """
    from repro.obs import Trace

    if result.audit is None:
        raise ValueError(
            "experiment ran without an audit log; re-run with audit=True"
        )
    sampler = result.telemetry
    tracker = result.lineage
    return Trace(
        meta=trace_meta(result.config),
        cycles=[record.to_dict() for record in result.audit.rows],
        operators=[p.to_dict() for p in result.metrics.operator_profiles],
        chains=[c.to_dict() for c in result.chain_profiles],
        series=sampler.series_rows() if sampler is not None else [],
        lineage=tracker.lineage_rows() if tracker is not None else [],
        swm_forecast=tracker.swm_forecast_rows() if tracker is not None else [],
        lineage_summary=tracker.summary_row() if tracker is not None else {},
        summary=trace_summary(result.metrics),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the workload, run the engine, return metrics."""
    params = WorkloadParams(
        delay=config.delay, rate_scale=config.rate_scale, seed=config.seed
    )
    queries = build_queries(config.workload, config.n_queries, params)
    overrides = {}
    if config.confidence is not None and config.scheduler.startswith("Klink"):
        overrides["confidence"] = config.confidence
    scheduler = make_scheduler(config.scheduler, **overrides)
    faults = None
    if config.fault_seed is not None:
        from repro.faults import FaultPlan

        faults = FaultPlan.random(
            config.fault_seed,
            config.duration_ms,
            query_ids=[q.query_id for q in queries],
        )
    monitor = None
    if config.check_invariants:
        from repro.faults import InvariantMonitor

        monitor = InvariantMonitor()
    writer = None
    if config.trace_path is not None:
        from repro.obs import TraceWriter

        writer = TraceWriter(config.trace_path, meta=trace_meta(config))
    audit = None
    if config.audit or writer is not None:
        from repro.obs import AuditLog

        audit = AuditLog(max_rows=config.audit_max_rows, stream=writer)
    profiler = None
    if config.profile or writer is not None:
        from repro.obs import OperatorProfiler

        profiler = OperatorProfiler()
    sampler = None
    if config.telemetry or writer is not None:
        from repro.obs import TelemetryConfig, TelemetrySampler

        # Traced runs always sample: the trace's v2 ``series`` section is
        # what `repro-bench compare` and the CI telemetry gate consume.
        sampler = TelemetrySampler(
            TelemetryConfig(
                period_ms=config.telemetry_period_ms,
                deadline_slo_ms=config.deadline_slo_ms,
            )
        )
    lineage = None
    if config.lineage_sample_rate > 0.0:
        from repro.obs import LineageTracker

        lineage = LineageTracker(config.lineage_sample_rate, seed=config.seed)
        if isinstance(scheduler, KlinkScheduler):
            # Pure observer of the estimates Klink computes anyway; the
            # scheduler's decisions are untouched.
            scheduler.forecast_audit = lineage.forecast
    checkpoints = None
    recovery = None
    if config.checkpoint_period_ms is not None or config.recover is not None:
        from repro.resilience import CheckpointCoordinator, RecoveryConfig, RecoveryManager

        if config.checkpoint_period_ms is not None:
            checkpoints = CheckpointCoordinator(config.checkpoint_period_ms)
        if config.recover is not None:
            if config.recover != "none" and checkpoints is None:
                checkpoints = CheckpointCoordinator(DEFAULT_CHECKPOINT_PERIOD_MS)
            recovery = RecoveryManager(RecoveryConfig(config.recover), checkpoints)
    engine = Engine(
        queries,
        scheduler,
        cores=config.cores,
        cycle_ms=config.cycle_ms,
        memory=MemoryConfig(capacity_bytes=config.resolved_memory_gb() * GIB),
        seed=config.seed,
        audit=audit,
        profiler=profiler,
        faults=faults,
        invariants=monitor,
        telemetry=sampler,
        checkpoints=checkpoints,
        recovery=recovery,
        validate=config.validate,
        batch_size=config.batch_size,
        lineage=lineage,
    )
    metrics = engine.run(config.duration_ms)
    chains = profiler.chain_profiles(queries) if profiler is not None else []
    if writer is not None:
        writer.finalize(
            operators=[p.to_dict() for p in metrics.operator_profiles],
            chains=[c.to_dict() for c in chains],
            series=sampler.series_rows() if sampler is not None else (),
            lineage=lineage.lineage_rows() if lineage is not None else (),
            swm_forecast=(
                lineage.swm_forecast_rows() if lineage is not None else ()
            ),
            lineage_summary=(
                lineage.summary_row() if lineage is not None else None
            ),
            summary=trace_summary(metrics),
        )
    return ExperimentResult(
        config=config,
        metrics=metrics,
        monitor=monitor,
        audit=audit,
        chain_profiles=chains,
        telemetry=sampler,
        lineage=lineage,
    )


# ---------------------------------------------------------------------------
# Result caching (in-memory L1 + optional persistent L2) and parallel sweeps
# ---------------------------------------------------------------------------

#: in-memory session cache, keyed by the *explicit* content address from
#: repro.bench.cache (config fields + code fingerprint), not by dataclass
#: identity. LRU-bounded so a long pytest session cannot grow it without
#: limit; the figure-suite grid is ~150 points, well under the bound.
_MEMORY_CACHE: "OrderedDict[str, ExperimentResult]" = OrderedDict()
_MEMORY_CACHE_LIMIT = 512

#: module-default persistent cache; ``_UNSET`` sentinel distinguishes
#: "use the configured default" from an explicit ``cache=None`` (disable).
_UNSET = object()
_DEFAULT_CACHE: Optional[ResultCache] = None

#: experiments actually simulated (cache misses) this process — parallel
#: points run in worker processes still count here, via the parent.
_SIMULATIONS = 0

#: cumulative in-memory cache hits (parallel to ResultCache.stats.hits)
_MEMORY_HITS = 0


def configure_cache(
    cache_dir: Optional[str] = None, enabled: bool = True
) -> Optional[ResultCache]:
    """Set the module-default persistent cache used by ``run_cached`` /
    ``sweep`` when no explicit ``cache=`` is passed.

    ``configure_cache()`` enables it at the conventional location
    (``.bench_cache/``, or ``$REPRO_BENCH_CACHE``); ``enabled=False``
    disables persistent caching. Returns the active cache (or None).
    """
    from repro.bench.cache import ResultCache, resolve_cache_dir

    global _DEFAULT_CACHE
    if not enabled:
        _DEFAULT_CACHE = None
        return None
    _DEFAULT_CACHE = ResultCache(resolve_cache_dir(cache_dir))
    return _DEFAULT_CACHE


def default_cache() -> Optional[ResultCache]:
    """The configured persistent cache (None when disabled, the default)."""
    return _DEFAULT_CACHE


def _resolve_cache(cache: object) -> Optional[ResultCache]:
    if cache is _UNSET:
        return _DEFAULT_CACHE
    return cache  # type: ignore[return-value]


def clear_cache(persistent: bool = False) -> None:
    """Drop every in-memory cached result (and reset its counters).

    With ``persistent=True`` the configured on-disk cache is wiped too.
    Exposed for test isolation — see the autouse-able fixture in
    ``tests/conftest.py``.
    """
    global _MEMORY_HITS, _SIMULATIONS
    _MEMORY_CACHE.clear()
    _MEMORY_HITS = 0
    _SIMULATIONS = 0
    if persistent and _DEFAULT_CACHE is not None:
        from repro.bench.cache import CacheStats

        _DEFAULT_CACHE.clear()
        _DEFAULT_CACHE.stats = CacheStats()


def simulation_count() -> int:
    """Experiments actually simulated (not replayed) by this process."""
    return _SIMULATIONS


def cache_stats() -> Dict[str, int]:
    """Combined cache accounting: memory hits/size plus persistent stats."""
    stats: Dict[str, int] = {
        "memory_hits": _MEMORY_HITS,
        "memory_entries": len(_MEMORY_CACHE),
        "simulations": _SIMULATIONS,
    }
    if _DEFAULT_CACHE is not None:
        for name, value in _DEFAULT_CACHE.stats.as_dict().items():
            stats[f"persistent_{name}"] = value
    return stats


def _memory_get(key: str) -> Optional[ExperimentResult]:
    global _MEMORY_HITS
    result = _MEMORY_CACHE.get(key)
    if result is not None:
        _MEMORY_CACHE.move_to_end(key)
        _MEMORY_HITS += 1
    return result


def _memory_put(key: str, result: ExperimentResult) -> None:
    _MEMORY_CACHE[key] = result
    _MEMORY_CACHE.move_to_end(key)
    while len(_MEMORY_CACHE) > _MEMORY_CACHE_LIMIT:
        _MEMORY_CACHE.popitem(last=False)


def run_cached(
    config: ExperimentConfig, *, cache: object = _UNSET
) -> ExperimentResult:
    """Run an experiment once; reuse across figures, sessions, and CI.

    Figures 6a/6c/6d, for example, are different projections of the same
    query-count sweep; the in-memory cache shares points within a session
    and the persistent cache (when configured) shares them across
    processes. Traced configs always run (see ``cache.cacheable``).
    """
    from repro.bench.cache import cacheable, config_key

    persistent = _resolve_cache(cache)
    fingerprint = persistent.fingerprint if persistent is not None else None
    key = config_key(config, fingerprint)
    if cacheable(config):
        result = _memory_get(key)
        if result is not None:
            return result
        if persistent is not None:
            result = persistent.get(config)
            if result is not None:
                _memory_put(key, result)
                return result
    result = _run_counted(config)
    if cacheable(config):
        _memory_put(key, result)
        if persistent is not None:
            persistent.put(config, result)
    return result


def _run_counted(config: ExperimentConfig) -> ExperimentResult:
    global _SIMULATIONS
    _SIMULATIONS += 1
    return run_experiment(config)


def _pool_worker_init(sys_path: List[str]) -> None:
    """Align a spawned worker's module search path with the parent's, so
    workers resolve the same ``repro`` package the parent runs."""
    import sys

    sys.path[:] = sys_path


def _pool_worker_run(config: ExperimentConfig) -> ExperimentResult:
    return run_experiment(config)


def run_many(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int = 1,
    cache: object = _UNSET,
) -> List[ExperimentResult]:
    """Run many independent experiment points, cached and optionally in
    parallel.

    Points already cached (memory or persistent) are replayed; the
    remaining misses are simulated — serially for ``jobs <= 1``, else
    fanned out over ``jobs`` spawn-based worker processes. Results come
    back in input order regardless of completion order, and every run is
    seed-deterministic in its own process, so the output (summaries and
    any JSONL traces) is byte-identical whatever ``jobs`` is.

    Duplicate configs are simulated once. ``spawn`` (not ``fork``) is
    used so workers start from a clean interpreter on every platform —
    no inherited caches, RNG state, or open trace files.
    """
    from repro.bench.cache import cacheable, config_key

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    global _SIMULATIONS
    persistent = _resolve_cache(cache)
    fingerprint = persistent.fingerprint if persistent is not None else None
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    pending: "OrderedDict[str, List[int]]" = OrderedDict()
    pending_configs: List[ExperimentConfig] = []
    for index, config in enumerate(configs):
        key = config_key(config, fingerprint)
        if cacheable(config):
            result = _memory_get(key)
            if result is None and persistent is not None:
                result = persistent.get(config)
                if result is not None:
                    _memory_put(key, result)
            if result is not None:
                results[index] = result
                continue
            if key in pending:  # duplicate point: simulate once
                pending[key].append(index)
                continue
        else:
            # Traced configs are never deduplicated or cached: each one
            # must actually run to produce its side-effect file.
            key = f"uncached-{index}"
        pending[key] = [index]
        pending_configs.append(config)
    if pending_configs:
        _SIMULATIONS += len(pending_configs)
        if jobs == 1 or len(pending_configs) == 1:
            fresh = [run_experiment(cfg) for cfg in pending_configs]
        else:
            import multiprocessing
            import sys

            ctx = multiprocessing.get_context("spawn")
            workers = min(jobs, len(pending_configs))
            with ctx.Pool(
                processes=workers,
                initializer=_pool_worker_init,
                initargs=(list(sys.path),),
            ) as pool:
                fresh = pool.map(_pool_worker_run, pending_configs)
        for (key, indexes), config, result in zip(
            pending.items(), pending_configs, fresh
        ):
            if cacheable(config):
                _memory_put(key, result)
                if persistent is not None:
                    persistent.put(config, result)
            for index in indexes:
                results[index] = result
    out = [result for result in results if result is not None]
    assert len(out) == len(configs)
    return out


def _trace_name(config: ExperimentConfig) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", config.scheduler).strip("-")
    return f"{config.workload}_{safe}_n{config.n_queries}.jsonl"


def sweep(
    base: ExperimentConfig,
    schedulers: List[str],
    n_queries: List[int],
    *,
    jobs: int = 1,
    cache: object = _UNSET,
    trace_dir: Optional[str] = None,
) -> Dict[Tuple[str, int], ExperimentResult]:
    """Run a (scheduler x query-count) sweep, cached and parallel.

    With ``trace_dir`` set, every point streams its full JSONL run trace
    to ``<trace_dir>/<workload>_<scheduler>_n<N>.jsonl`` (such points
    always simulate; traced runs are not cacheable).
    """
    grid = [
        replace(base, scheduler=name, n_queries=n)
        for name in schedulers
        for n in n_queries
    ]
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        grid = [
            replace(cfg, trace_path=os.path.join(trace_dir, _trace_name(cfg)))
            for cfg in grid
        ]
    results = run_many(grid, jobs=jobs, cache=cache)
    return {
        (cfg.scheduler, cfg.n_queries): result
        for cfg, result in zip(grid, results)
    }
