"""Layered model-serving stack: planner, registry/admission, executor.

This package is the traffic-scale decomposition of the monolithic
:class:`~repro.store.server.ModelServer` (which remains as a thin
backward-compatible facade over these layers):

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
``executor`` (:mod:`repro.serve.executor`)
    Owns the worker pool and the per-model lock table, runs plans on the
    shared :class:`~repro.analysis.engine.SweepEngine` with lock scope
    narrowed to the numerical evaluation, and aggregates per-request
    failures into :class:`~repro.serve.executor.ServeError` instead of
    dropping them.
``stats`` (:mod:`repro.serve.stats`)
    Per-kind request/error counts, latency, queue depth and coalescing
    (``ModelServer.serving_stats()``).
``loadgen`` (:mod:`repro.serve.loadgen`)
    Deterministic mixed-traffic load generator behind ``repro serve-bench``
    and the ``serving_load`` perf workload.
"""

from repro.serve.executor import PlanExecutor, ServeError
from repro.serve.loadgen import (
    LoadRunResult,
    LoadSpec,
    generate_requests,
    results_equal,
    run_load,
)
from repro.serve.planner import (
    ExecutionPlan,
    PlanStep,
    QueryPlanner,
    QueryRequest,
)
from repro.serve.registry import ModelRegistry, WarmResult, WarmSetStats
from repro.serve.stats import (
    REQUEST_KINDS,
    KindStats,
    ServingStats,
    StatsRecorder,
)

__all__ = [
    "REQUEST_KINDS",
    "ExecutionPlan",
    "KindStats",
    "LoadRunResult",
    "LoadSpec",
    "ModelRegistry",
    "PlanExecutor",
    "PlanStep",
    "QueryPlanner",
    "QueryRequest",
    "ServeError",
    "ServingStats",
    "StatsRecorder",
    "WarmResult",
    "WarmSetStats",
    "generate_requests",
    "results_equal",
    "run_load",
]
