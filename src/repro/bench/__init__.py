"""Experiment harness regenerating the paper's evaluation figures."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bench.cache import (
        CacheStats,
        ResultCache,
        cacheable,
        code_fingerprint,
        config_key,
        resolve_cache_dir,
    )
    from repro.bench.runner import (
        DEFAULT_DURATION_MS,
        ExperimentConfig,
        ExperimentResult,
        SCHEDULER_NAMES,
        WORKLOAD_MEMORY_GB,
        cache_stats,
        clear_cache,
        configure_cache,
        default_cache,
        make_scheduler,
        run_cached,
        run_experiment,
        run_many,
        simulation_count,
        sweep,
    )
    from repro.bench.estimation import estimator_accuracy

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "ExperimentConfig": "repro.bench.runner",
    "ExperimentResult": "repro.bench.runner",
    "run_experiment": "repro.bench.runner",
    "run_cached": "repro.bench.runner",
    "run_many": "repro.bench.runner",
    "sweep": "repro.bench.runner",
    "make_scheduler": "repro.bench.runner",
    "SCHEDULER_NAMES": "repro.bench.runner",
    "WORKLOAD_MEMORY_GB": "repro.bench.runner",
    "DEFAULT_DURATION_MS": "repro.bench.runner",
    "estimator_accuracy": "repro.bench.estimation",
    "CacheStats": "repro.bench.cache",
    "ResultCache": "repro.bench.cache",
    "cacheable": "repro.bench.cache",
    "code_fingerprint": "repro.bench.cache",
    "config_key": "repro.bench.cache",
    "resolve_cache_dir": "repro.bench.cache",
    "cache_stats": "repro.bench.runner",
    "clear_cache": "repro.bench.runner",
    "configure_cache": "repro.bench.runner",
    "default_cache": "repro.bench.runner",
    "simulation_count": "repro.bench.runner",
}

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_cached",
    "run_many",
    "sweep",
    "make_scheduler",
    "SCHEDULER_NAMES",
    "WORKLOAD_MEMORY_GB",
    "DEFAULT_DURATION_MS",
    "estimator_accuracy",
    "CacheStats",
    "ResultCache",
    "cacheable",
    "code_fingerprint",
    "config_key",
    "resolve_cache_dir",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "default_cache",
    "simulation_count",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
