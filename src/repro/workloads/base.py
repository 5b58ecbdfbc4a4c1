"""Workload construction helpers shared by YSB, LRB, and NYT.

Each workload module exposes ``build_query(...) -> Query`` plus metadata
about the benchmark pipeline; :func:`build_queries` instantiates ``n``
independent query instances with randomized deployment times (the paper
deploys each query at a random point in the first 20 s to stagger window
deadlines) and per-query delay-model streams.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.net.delays import DelayModel, UniformDelay, ZipfDelay
from repro.spe.query import Query

#: the paper's default delay spread (Zipf constant 0.99; uniform over a
#: comparable support). 500 ms keeps lateness allowances moderate relative
#: to the benchmark window sizes (1-5 s).
DEFAULT_DELAY_MAX_MS = 500.0


def make_delay_model(kind: str, seed: int, max_ms: float = DEFAULT_DELAY_MAX_MS) -> DelayModel:
    """Instantiate one of the paper's delay distributions by name."""
    kind = kind.lower()
    if kind == "uniform":
        return UniformDelay(0.0, max_ms, seed=seed)
    if kind == "zipf":
        return ZipfDelay(a=0.99, max_ms=max_ms, seed=seed)
    raise ValueError(f"unknown delay distribution: {kind!r}")


@dataclass
class WorkloadParams:
    """Knobs common to all benchmark builders.

    ``rate_scale`` multiplies each benchmark's native per-query event rate
    (used by the throughput sweeps of Figs. 1 and 9a/9b); ``delay`` picks
    the network delay distribution; ``deploy_window_ms`` bounds the random
    deployment staggering; ``burst_factor``/``burst_duty`` shape the load
    spikes each source carries (factor 1.0 = perfectly steady sources).
    """

    delay: str = "uniform"
    delay_max_ms: float = DEFAULT_DELAY_MAX_MS
    rate_scale: float = 1.0
    deploy_window_ms: float = 20_000.0
    epoch_history: int = 400
    seed: int = 0
    burst_factor: float = 3.8
    burst_duty: float = 0.25


QueryBuilder = Callable[..., Query]

_REGISTRY: Dict[str, QueryBuilder] = {}

#: the paper's benchmarks; ``repro.workloads.<name>`` registers its builder
#: when :func:`build_queries` first asks for it
_BUILTIN = ("lrb", "nyt", "ysb")


def register_workload(name: str, builder: QueryBuilder) -> None:
    """Register a benchmark builder under ``name`` (ysb/lrb/nyt)."""
    _REGISTRY[name.lower()] = builder


def workload_names() -> List[str]:
    return sorted(set(_REGISTRY) | set(_BUILTIN))


def _builder(name: str) -> Optional[QueryBuilder]:
    if name not in _REGISTRY and name in _BUILTIN:
        importlib.import_module(f"repro.workloads.{name}")
    return _REGISTRY.get(name)


def build_queries(
    workload: str,
    n_queries: int,
    params: Optional[WorkloadParams] = None,
) -> List[Query]:
    """Instantiate ``n_queries`` independent instances of a benchmark.

    Every query gets its own delay-model random stream and a deployment
    time drawn uniformly from the staggering window, so window deadlines
    across queries are uniformly spread (Sec. 6.2.1).
    """
    if n_queries < 1:
        raise ValueError(f"need at least one query: {n_queries}")
    params = params or WorkloadParams()
    builder = _builder(workload.lower())
    if builder is None:
        raise ValueError(
            f"unknown workload {workload!r}; available: {workload_names()}"
        )
    rng = np.random.default_rng(params.seed)
    queries = []
    for i in range(n_queries):
        deployed_at = float(rng.uniform(0.0, params.deploy_window_ms))
        queries.append(
            builder(
                query_id=f"{workload.lower()}-{i}",
                params=params,
                deployed_at=deployed_at,
                seed=params.seed * 100_003 + i,
            )
        )
    return queries
