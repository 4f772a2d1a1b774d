"""Serving layers under :class:`~repro.store.server.ModelServer`.

The server plans, runs and records every request itself; this package
holds the layers it builds on:

``planner`` (:mod:`repro.serve.planner`)
    Normalizes and validates :class:`~repro.serve.planner.QueryRequest`
    batches into explicit :class:`~repro.serve.planner.ExecutionPlan`
    objects — deduplicating identical requests and coalescing compatible
    transfer/sweep requests into shared multi-point engine evaluations
    whose results are scattered back per request, bit-identically to the
    naive path.
``registry`` (:mod:`repro.serve.registry`)
    The model registry plus an admission-controlled, byte-budgeted LRU
    warm set backed by :class:`~repro.store.model_store.ModelStore`:
    cold misses load on demand, eviction drops models back to
    store-resident, and hit/miss/eviction statistics are kept.
``stats`` (:mod:`repro.serve.stats`)
    The names of the serving series a server records into the metrics
    registry (per-kind request/error/evaluation/coalescing counters,
    latency, queue depth) and :class:`~repro.serve.stats.ServingStats`,
    the read-only view ``ModelServer.serving_stats()`` returns.
``loadgen`` (:mod:`repro.serve.loadgen`)
    Deterministic mixed-traffic load generator behind ``repro serve-bench``
    and the ``serving_load`` perf workload.

A batch in which any request failed raises
:class:`~repro.exceptions.ServeError` (re-exported here).
"""

from repro.exceptions import ServeError
from repro.serve.loadgen import (
    LoadRunResult,
    LoadSpec,
    generate_requests,
    results_equal,
    run_load,
)
from repro.serve.planner import (
    REQUEST_KINDS,
    ExecutionPlan,
    PlanStep,
    QueryPlanner,
    QueryRequest,
)
from repro.serve.registry import ModelRegistry, WarmResult, WarmSetStats
from repro.serve.stats import KindStats, ServingStats

__all__ = [
    "REQUEST_KINDS",
    "ExecutionPlan",
    "KindStats",
    "LoadRunResult",
    "LoadSpec",
    "ModelRegistry",
    "PlanStep",
    "QueryPlanner",
    "QueryRequest",
    "ServeError",
    "ServingStats",
    "WarmResult",
    "WarmSetStats",
    "generate_requests",
    "results_equal",
    "run_load",
]
