"""Concurrent model-serving front end over the model store.

:class:`ModelServer` is the piece that turns a directory of ROM artifacts
into a *service*: load models from a :class:`~repro.store.ModelStore` into
an in-memory registry, then answer many cheap queries — batched
transfer-function samples, frequency sweeps, transient simulations and
IR-drop reports — concurrently.  This is exactly the reduce-once /
query-forever deployment the paper's reusability argument is about: the
expensive part (Algorithm 1) happened in some earlier process; the server
only ever pays the ``O(m l^3)`` reduced-model costs.

Since the layered refactor, :class:`ModelServer` is a thin facade over the
:mod:`repro.serve` package:

* the **planner** (:class:`~repro.serve.planner.QueryPlanner`) validates
  request batches, deduplicates identical requests and coalesces
  compatible transfer/sweep requests into shared multi-point engine
  evaluations (bit-identical to per-request evaluation — see the planner
  module docs for the exact rules);
* the **registry** (:class:`~repro.serve.registry.ModelRegistry`) resolves
  model names, and — when a ``warm_budget`` is configured — maintains an
  admission-controlled LRU warm set over the store: cold misses load on
  demand, eviction drops models back to store-resident;
* the **executor** (:class:`~repro.serve.executor.PlanExecutor`) owns the
  thread pool and the per-model locks, runs plans on the shared
  :class:`~repro.analysis.engine.SweepEngine`, and scatters results back
  outside the locks;
* the **stats** layer (:mod:`repro.serve.stats`) records per-kind
  latency/queue-depth/coalescing counters (:meth:`serving_stats`); the
  registry's :meth:`warm_stats` counts model loads and warm-set hits.

Concurrency model (unchanged): queries against one model are serialized by
its lock (BlockDiagonalROM caches assembled matrices lazily; the lock makes
that safe) while queries against different models run in parallel, and
heavy sweeps are delegated to the shared engine.
"""

from __future__ import annotations

from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.analysis.engine import SweepEngine
from repro.analysis.frequency import FrequencySweepResult
from repro.obs.endpoint import TelemetryServer
from repro.obs.tracing import trace_span
from repro.analysis.ir_drop import IRDropResult
from repro.analysis.transient import TransientResult
from repro.serve.executor import PlanExecutor, ServeError
from repro.serve.planner import QueryPlanner, QueryRequest
from repro.serve.registry import ModelRegistry
from repro.serve.stats import ServingStats, StatsRecorder
from repro.store.model_store import ModelStore

__all__ = ["ModelServer", "QueryRequest", "ServeError"]


class ModelServer:
    """In-memory ROM registry with a concurrent query front end.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ModelStore` backing :meth:`load` and
        :meth:`warm`.  A server can also be used store-less with models
        registered directly via :meth:`register`.
    engine:
        Optional shared :class:`~repro.analysis.engine.SweepEngine` for
        sweep evaluation (default: serial).
    max_workers:
        Worker threads answering queued requests (default 4).
    warm_budget:
        Optional byte budget of the store-backed warm set.  ``None``
        (default) disables admission control: :meth:`warm` loads every
        entry and nothing is evicted.  With a budget, :meth:`warm` eagerly
        loads the most recently used entries that fit, later store-backed
        loads are admitted as evictable warm entries, and least-recently
        used models are evicted back to store-resident when the budget
        overflows.
    coalesce:
        Default planning mode of :meth:`serve` (per-call overridable).
        Coalesced results are bit-identical to the per-request path.
    metrics_port:
        When set, start a stdlib
        :class:`~repro.obs.endpoint.TelemetryServer` sidecar on
        ``127.0.0.1:<metrics_port>`` (0 picks a free port; read it back
        from ``server.telemetry.port``) serving ``/metrics`` (Prometheus
        text of the default metrics registry, span timings included)
        and ``/healthz`` (the :meth:`health` verdict as JSON, HTTP 503 on
        ``fail``).  The sidecar is closed by :meth:`close`.
    """

    _KINDS = ("transfer", "sweep", "transient", "ir_drop")

    def __init__(self, store: ModelStore | None = None, *,
                 engine: SweepEngine | None = None,
                 max_workers: int = 4,
                 warm_budget: int | None = None,
                 coalesce: bool = True,
                 metrics_port: int | None = None) -> None:
        self.store = store
        self.engine = engine if engine is not None else SweepEngine(jobs=1)
        self.registry = ModelRegistry(store, warm_budget=warm_budget)
        self.planner = QueryPlanner(coalesce=coalesce)
        self._recorder = StatsRecorder()
        self.executor = PlanExecutor(self.registry, self.engine,
                                     max_workers=max_workers,
                                     stats=self._recorder)
        self.telemetry: TelemetryServer | None = None
        if metrics_port is not None:
            from repro.obs.metrics import default_metrics
            self.telemetry = TelemetryServer(
                port=int(metrics_port),
                metrics_fn=lambda: default_metrics().snapshot(),
                health_fn=lambda: self.health().as_dict())
            self.telemetry.start()

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    def register(self, name: str, model) -> None:
        """Make ``model`` queryable under ``name`` (replaces any previous;
        registered models are pinned — never evicted)."""
        self.registry.register(name, model)

    def load(self, name: str, *, key: str | None = None,
             path: str | Path | None = None) -> None:
        """Load a model into the registry from the store or an artifact.

        Exactly one of ``key`` (a store key; requires a backing store) or
        ``path`` (a standalone artifact file) must be given.  Store loads
        are admitted to the warm set when a ``warm_budget`` is configured,
        pinned otherwise.
        """
        self.registry.load(name, key=key, path=path)

    def warm(self, budget: int | None = None) -> list[str]:
        """Warm-load store entries into the registry.

        Models are named ``"<system_name>/<method>"`` (falling back to the
        store key on collision or missing metadata).  Returns the names
        loaded.  Under a byte budget (``budget`` or the server's
        ``warm_budget``) only the most recently used entries that fit are
        loaded eagerly; the rest load lazily on first query.  Unreadable
        entries are *not* silently dropped: they are counted in
        :meth:`warm_stats`, logged through the ``repro.serve`` logger and
        available from :meth:`ModelRegistry.warm
        <repro.serve.registry.ModelRegistry.warm>` as ``skipped`` keys.
        """
        return self.registry.warm(budget).loaded

    def models(self) -> list[str]:
        """Names currently resident in the registry, sorted."""
        return self.registry.models()

    # ------------------------------------------------------------------ #
    # Queries (thread-safe; per-model locking in the executor)
    # ------------------------------------------------------------------ #
    def transfer(self, name: str, s_values) -> np.ndarray:
        """Batched transfer-matrix samples ``H(s)`` (shape ``(k, p, m)``)."""
        return self.executor.transfer(name, s_values)

    def sweep(self, name: str, *, omega_min: float = 1e5,
              omega_max: float = 1e12, n_points: int = 60,
              output: int | None = None, port: int | None = None,
              ) -> FrequencySweepResult:
        """Log-spaced frequency sweep of one model (full matrix, or one
        ``(output, port)`` entry when both indices are given)."""
        return self.executor.sweep(name, omega_min=omega_min,
                                   omega_max=omega_max, n_points=n_points,
                                   output=output, port=port)

    def sweep_models(self, names: list[str], *, omega_min: float = 1e5,
                     omega_max: float = 1e12, n_points: int = 60,
                     ) -> dict[str, FrequencySweepResult]:
        """Full-matrix sweeps of several registered models in one batch,
        fanned across the engine under canonically-ordered model locks."""
        return self.executor.sweep_models(names, omega_min=omega_min,
                                          omega_max=omega_max,
                                          n_points=n_points)

    def transient(self, name: str, sources, *, t_stop: float, dt: float,
                  method: str = "backward_euler",
                  x0: np.ndarray | None = None) -> TransientResult:
        """Fixed-step transient simulation of one registered model."""
        return self.executor.transient(name, sources, t_stop=t_stop, dt=dt,
                                       method=method, x0=x0)

    def ir_drop(self, name: str, load_currents, *,
                reference_voltage: float = 1.0) -> IRDropResult:
        """Static IR-drop report of one registered model."""
        return self.executor.ir_drop(name, load_currents,
                                     reference_voltage=reference_voltage)

    # ------------------------------------------------------------------ #
    # Queued front end
    # ------------------------------------------------------------------ #
    def submit(self, request: QueryRequest) -> Future:
        """Queue one request; the result arrives on the returned future."""
        # Validation runs in the planner so errors surface at submit time,
        # exactly like the legacy kind check.
        self.planner.plan([request])
        return self.executor.submit_request(request)

    def serve(self, requests: list[QueryRequest], *,
              coalesce: bool | None = None) -> list:
        """Answer a batch of requests concurrently, preserving order.

        The batch is planned first (validation, dedup and — with
        ``coalesce`` left at the server default of ``True`` — coalescing
        of compatible transfer/sweep requests into shared evaluations,
        bit-identical to per-request execution; duplicates share one
        result object, so treat served results as read-only).  Steps
        overlap on the worker pool; queries against one model serialize on
        its lock.

        Every request's outcome is collected — a failing request no longer
        abandons the rest of the batch.  When any request failed, raises
        :class:`~repro.serve.executor.ServeError` carrying every failed
        request's index, the per-index exceptions and the partial results.
        """
        planner = self.planner if coalesce is None \
            else QueryPlanner(coalesce=coalesce)
        with trace_span("serve.plan", n_requests=len(requests),
                        coalesce=coalesce if coalesce is not None
                        else self.planner.coalesce):
            plan = planner.plan(requests)
            return self.executor.execute(plan)

    def serving_stats(self) -> ServingStats:
        """Per-kind latency/queue-depth/coalescing statistics."""
        return self._recorder.snapshot()

    def health(self):
        """The serving-SLO :class:`~repro.obs.health.HealthReport`
        (per-kind p99, queue depth, error rate) — what ``/healthz``
        serves when a ``metrics_port`` is configured."""
        return self._recorder.snapshot().health_report()

    def warm_stats(self):
        """Warm-set hit/miss/eviction/skip counters
        (:class:`~repro.serve.registry.WarmSetStats`)."""
        return self.registry.stats()

    def close(self) -> None:
        """Shut down the worker pool and any telemetry sidecar (the
        registry stays usable)."""
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None
        self.executor.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
