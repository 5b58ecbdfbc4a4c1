"""Benchmark workload generators (YSB, LRB, NYT).

Each benchmark's module (``ysb``, ``lrb``, ``nyt``) is imported by the
first :func:`build_queries` call that names it, or by attribute access.
"""

from repro._lazy import lazy_exports
from repro.workloads.base import (
    WorkloadParams,
    build_queries,
    make_delay_model,
    register_workload,
    workload_names,
)

__all__ = [
    "WorkloadParams",
    "build_queries",
    "make_delay_model",
    "register_workload",
    "workload_names",
    "ysb",
    "lrb",
    "nyt",
]

__getattr__, __dir__ = lazy_exports(globals(), {})
