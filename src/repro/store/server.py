"""Concurrent model-serving front end over the model store.

:class:`ModelServer` is the piece that turns a directory of ROM artifacts
into a *service*: load models from a :class:`~repro.store.ModelStore` into
an in-memory registry, then answer many cheap queries — batched
transfer-function samples, frequency sweeps, transient simulations and
IR-drop reports — concurrently.  This is exactly the reduce-once /
query-forever deployment the paper's reusability argument is about: the
expensive part (Algorithm 1) happened in some earlier process; the server
only ever pays the ``O(m l^3)`` reduced-model costs.

The server plans, runs and records every request itself, on top of two
layers of :mod:`repro.serve`:

* the **planner** (:class:`~repro.serve.planner.QueryPlanner`) validates
  request batches, deduplicates identical requests and coalesces
  compatible transfer/sweep requests into shared multi-point engine
  evaluations (bit-identical to per-request evaluation — see the planner
  module docs for the exact rules);
* the **registry** (:class:`~repro.serve.registry.ModelRegistry`) resolves
  model names, and — when a ``warm_budget`` is configured — maintains an
  admission-controlled LRU warm set over the store: cold misses load on
  demand, eviction drops models back to store-resident.

The server owns the worker pool and the per-model locks.  Each plan step
is one call of the server method of its kind (the one kind→method table
in ``_evaluate``), run on a pool thread on the shared
:class:`~repro.analysis.engine.SweepEngine`; results are scattered back
outside the locks.  :meth:`ModelServer.submit` queues a one-request plan
through the same step runner :meth:`ModelServer.serve` uses.  Request,
error, evaluation and coalescing counters, per-request latency and the
queue depth are recorded into the process-wide
:func:`~repro.obs.metrics.default_metrics` registry under the server's
``server=`` label; :meth:`ModelServer.serving_stats` and
:meth:`ModelServer.health` read them back (:mod:`repro.serve.stats`).
:meth:`ModelServer.close` freezes those statistics and drops the series,
so short-lived servers leave nothing behind in the registry.
The direct query methods (:meth:`ModelServer.transfer` and friends) run
on the caller's thread and are not counted.

Lock discipline:

* each model name has exactly one :class:`threading.RLock`, created on
  first use and **never discarded** — a model evicted from the warm set
  and later reloaded keeps serializing through the same lock, so two
  concurrent queries can never race the lazily-assembled matrix caches of
  two generations of the same model;
* multi-model steps (``sweep_many``) acquire locks in canonical sorted
  order, so overlapping model sets can never deadlock;
* locks are scoped to the *engine evaluation only*: request validation and
  planning happen before a lock is touched, and result scattering happens
  after it is released, so the serialized section is as narrow as the
  numerical work itself.

Failure aggregation: :meth:`ModelServer.serve` never abandons work.  Every
step future is drained; failed steps mark all the requests they covered,
and the batch raises :class:`~repro.exceptions.ServeError` carrying every
failed request's index plus the per-index exceptions and the partial
results.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.analysis.engine import SweepEngine
from repro.analysis.frequency import FrequencyAnalysis, FrequencySweepResult
from repro.analysis.ir_drop import IRDropResult, ir_drop_analysis
from repro.analysis.transient import TransientAnalysis, TransientResult
from repro.exceptions import ServeError, ValidationError
from repro.obs.endpoint import TelemetryServer
from repro.obs.metrics import default_metrics
from repro.obs.tracing import trace_span
from repro.serve.planner import (
    ExecutionPlan,
    PlanStep,
    QueryPlanner,
    QueryRequest,
)
from repro.serve.registry import ModelRegistry
from repro.serve.stats import (
    BATCHES,
    COALESCED,
    ERRORS,
    LATENCY,
    PLANS,
    QUEUE_DEPTH,
    QUEUE_DEPTH_PEAK,
    REQUESTS,
    ServingStats,
)
from repro.store.model_store import ModelStore

__all__ = ["ModelServer", "QueryRequest", "ServeError"]

_SERVER_IDS = itertools.count(1)


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
        text of the default metrics registry: span timings and every
        server's serving series) and ``/healthz`` (the :meth:`health`
        verdict as JSON, HTTP 503 on ``fail``).  The sidecar is closed by
        :meth:`close`.

    Attributes
    ----------
    server_id:
        The ``server=`` label of this server's serving series in the
        metrics registry, unique within the process.
    """

    def __init__(self, store: ModelStore | None = None, *,
                 engine: SweepEngine | None = None,
                 max_workers: int = 4,
                 warm_budget: int | None = None,
                 coalesce: bool = True,
                 metrics_port: int | None = None) -> None:
        if max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        self.store = store
        self.engine = engine if engine is not None else SweepEngine(jobs=1)
        self.registry = ModelRegistry(store, warm_budget=warm_budget)
        self.planner = QueryPlanner(coalesce=coalesce)
        self.server_id = str(next(_SERVER_IDS))
        self._max_workers = max_workers
        self._pool_lock = threading.RLock()
        self._pool: ThreadPoolExecutor | None = None
        self._locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()
        # Steps queued and not yet finished, published as the queue-depth
        # gauge (set, never shifted, so a registry reset cannot skew it).
        self._depth = 0
        self._depth_lock = threading.Lock()
        self._closed_stats: ServingStats | None = None
        self.telemetry: TelemetryServer | None = None
        if metrics_port is not None:
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
    # Locks and pool
    # ------------------------------------------------------------------ #
    def lock_for(self, name: str) -> threading.RLock:
        """The persistent lock serializing queries against ``name``."""
        with self._locks_guard:
            lock = self._locks.get(name)
            if lock is None:
                lock = self._locks[name] = threading.RLock()
            return lock

    def _locked(self, *names: str) -> "_LockSet":
        """Hold the named models' locks, acquired in canonical (sorted)
        order so overlapping sets cannot deadlock."""
        names = sorted(names)
        return _LockSet([self.lock_for(name) for name in names],
                        names=",".join(names))

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-serve")
            return self._pool

    # ------------------------------------------------------------------ #
    # Direct queries (caller's thread; per-model locking; not counted)
    # ------------------------------------------------------------------ #
    def transfer(self, name: str, s_values) -> np.ndarray:
        """Batched transfer-matrix samples ``H(s)`` (shape ``(k, p, m)``)."""
        model = self.registry.resolve(name)
        with self._locked(name):
            with trace_span("serve.engine_eval", op="transfer", model=name):
                return self.engine.sample_matrix(model, s_values)

    def sweep(self, name: str, *, omega_min: float = 1e5,
              omega_max: float = 1e12, n_points: int = 60,
              output: int | None = None, port: int | None = None,
              ) -> FrequencySweepResult:
        """Log-spaced frequency sweep of one model (full matrix, or one
        ``(output, port)`` entry when both indices are given)."""
        if (output is None) != (port is None):
            raise ValidationError(
                "pass both output= and port= for an entry sweep, or "
                "neither for the full transfer matrix")
        analysis = FrequencyAnalysis(omega_min=omega_min,
                                     omega_max=omega_max,
                                     n_points=n_points, engine=self.engine)
        model = self.registry.resolve(name)
        with self._locked(name):
            with trace_span("serve.engine_eval", op="sweep", model=name):
                if output is not None and port is not None:
                    return analysis.sweep_entry(model, output, port,
                                                label=name)
                return analysis.sweep(model, label=name)

    def sweep_models(self, names: list[str], *, omega_min: float = 1e5,
                     omega_max: float = 1e12, n_points: int = 60,
                     ) -> dict[str, FrequencySweepResult]:
        """Full-matrix sweeps of several registered models in one batch,
        fanned through :meth:`FrequencyAnalysis.sweep_many` under the
        models' locks (acquired in canonical order)."""
        analysis = FrequencyAnalysis(omega_min=omega_min,
                                     omega_max=omega_max,
                                     n_points=n_points, engine=self.engine)
        resolved = {name: self.registry.resolve(name) for name in names}
        with self._locked(*resolved):
            # sweep_many labels each result with its dict key, exactly like
            # the standalone per-request sweep labels it with the name.
            with trace_span("serve.engine_eval", op="sweep_many",
                            models=",".join(sorted(resolved))):
                return analysis.sweep_many(resolved)

    def transient(self, name: str, sources, *, t_stop: float, dt: float,
                  method: str = "backward_euler",
                  x0: np.ndarray | None = None) -> TransientResult:
        """Fixed-step transient simulation of one registered model."""
        analysis = TransientAnalysis(t_stop=t_stop, dt=dt, method=method)
        model = self.registry.resolve(name)
        with self._locked(name):
            with trace_span("serve.engine_eval", op="transient", model=name):
                return analysis.run(model, sources, x0=x0, label=name)

    def ir_drop(self, name: str, load_currents) -> IRDropResult:
        """Static IR-drop report of one registered model."""
        model = self.registry.resolve(name)
        with self._locked(name):
            with trace_span("serve.engine_eval", op="ir_drop", model=name):
                return ir_drop_analysis(model, load_currents)

    # ------------------------------------------------------------------ #
    # Queued front end
    # ------------------------------------------------------------------ #
    def submit(self, request: QueryRequest) -> Future:
        """Queue one request; its result — or its own exception — arrives
        on the returned future.

        The request is planned (validation errors raise here) and its one
        step runs and is counted exactly like a :meth:`serve` batch's.
        """
        ((_, future),) = self._queue(self.planner.plan([request]))
        return future

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

        Every request's outcome is collected — a failing request does not
        abandon the rest of the batch.  When any request failed, raises
        :class:`~repro.exceptions.ServeError` carrying every failed
        request's index, the per-index exceptions and the partial results.
        """
        planner = self.planner if coalesce is None \
            else QueryPlanner(coalesce=coalesce)
        with trace_span("serve.plan", n_requests=len(requests),
                        coalesce=planner.coalesce):
            return self.execute(planner.plan(requests))

    def execute(self, plan: ExecutionPlan) -> list:
        """Run ``plan`` and return per-request results, preserving order.

        Steps overlap on the worker pool; all step futures are drained
        before returning.  When any request failed, raises
        :class:`~repro.exceptions.ServeError` carrying every failed index,
        the per-index exceptions and the partial results.
        """
        results: list = [None] * plan.n_requests
        failures: dict[int, Exception] = {}
        for step, future in self._queue(plan):
            try:
                outcome = future.result()
            except Exception as exc:
                for index in _step_indices(step):
                    failures[index] = exc
                continue
            # Scatter outside any model lock (the step released its locks
            # when the evaluation finished).
            with trace_span("serve.scatter", op=step.op,
                            n_requests=step.n_requests):
                _scatter(step, outcome, results)
        if failures:
            raise ServeError(failures, results=results)
        return results

    def _queue(self, plan: ExecutionPlan) -> list[tuple[PlanStep, Future]]:
        """Count ``plan`` and its requests, then queue every step."""
        self._closed_stats = None
        self._count(PLANS)
        for kind, n in Counter(r.kind for r in plan.requests).items():
            self._count(REQUESTS, n, kind=kind)
        # Steps run on pool threads, each in a copy of the submitter's
        # context: their serve.step spans sit under the submitting span
        # in the trace tree.
        futures = []
        for step in plan.steps:
            self._shift_queue_depth(+1)
            try:
                futures.append((step, self._get_pool().submit(
                    contextvars.copy_context().run, self._run_step, step)))
            except BaseException:
                self._shift_queue_depth(-1)
                raise
        return futures

    def _run_step(self, step: PlanStep):
        """Evaluate one queued step, recording its outcome and latency."""
        try:
            with trace_span("serve.step", op=step.op, kind=step.kind,
                            n_requests=step.n_requests) as span:
                outcome = self._evaluate(step)
        except Exception:
            self._count(ERRORS, step.n_requests, kind=step.kind)
            raise
        finally:
            self._shift_queue_depth(-1)
        self._count(BATCHES, kind=step.kind)
        if step.n_requests > 1:
            self._count(COALESCED, step.n_requests - 1, kind=step.kind)
        # Every covered request saw the step's latency.
        for _ in range(step.n_requests):
            default_metrics().observe(LATENCY, span.duration,
                                      kind=step.kind, server=self.server_id)
        return outcome

    def _evaluate(self, step: PlanStep):
        """One plan step through the server method of its kind."""
        if step.op == "sweep_many":
            return self.sweep_models(step.models, **step.payload)
        handler = {
            "transfer": self.transfer,
            "sweep": self.sweep,
            "transient": self.transient,
            "ir_drop": self.ir_drop,
        }[step.kind]
        return handler(step.models[0], **step.payload)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _count(self, name: str, amount: int = 1, **labels) -> None:
        default_metrics().increment(name, amount, server=self.server_id,
                                    **labels)

    def _shift_queue_depth(self, amount: int) -> None:
        with self._depth_lock:
            self._depth += amount
            default_metrics().set_gauge(QUEUE_DEPTH, self._depth,
                                        peak=QUEUE_DEPTH_PEAK,
                                        server=self.server_id)

    def serving_stats(self) -> ServingStats:
        """Per-kind latency/queue-depth/coalescing statistics: a read-only
        view of this server's series in the metrics registry, or after
        :meth:`close` the totals frozen there."""
        closed = self._closed_stats
        if closed is not None:
            return closed
        return ServingStats.from_snapshot(
            default_metrics().snapshot(server=self.server_id))

    def health(self):
        """The serving-SLO :class:`~repro.obs.health.HealthReport`
        (per-kind p99, queue depth, error rate) — what ``/healthz``
        serves when a ``metrics_port`` is configured."""
        return self.serving_stats().health_report()

    def warm_stats(self):
        """Warm-set hit/miss/eviction/skip counters
        (:class:`~repro.serve.registry.WarmSetStats`)."""
        return self.registry.stats()

    def close(self) -> None:
        """Shut down the worker pool and any telemetry sidecar, freeze
        :meth:`serving_stats` and drop this server's series from the
        metrics registry.  The registry and the locks stay usable; the
        next submission starts a fresh pool and records afresh."""
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._pool_lock:
            if self._closed_stats is None:
                self._closed_stats = self.serving_stats()
                default_metrics().remove(server=self.server_id)

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _LockSet:
    """Context manager acquiring a list of locks in order and releasing
    them in reverse.

    Acquisition is timed as one ``serve.lock_wait`` span (tagged with the
    model names), so per-model lock contention shows up directly in the
    trace tree."""

    def __init__(self, locks: list, names: str = "") -> None:
        self._locks = locks
        self._names = names

    def __enter__(self) -> "_LockSet":
        with trace_span("serve.lock_wait", models=self._names):
            for lock in self._locks:
                lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        for lock in reversed(self._locks):
            lock.release()


def _step_indices(step: PlanStep) -> list[int]:
    """All original request indices a step covers."""
    if step.op == "single":
        return list(step.targets)
    indices: list[int] = []
    for *_rest, covered in step.targets:
        indices.extend(covered)
    return indices


def _scatter(step: PlanStep, outcome, results: list) -> None:
    """Hand every request a step covers its share of the step's output."""
    if step.op == "single":
        for index in step.targets:
            results[index] = outcome
    elif step.op == "transfer_batch":
        for start, stop, indices in step.targets:
            piece = outcome[start:stop]
            for index in indices:
                results[index] = piece
    else:  # sweep_many
        for model_name, indices in step.targets:
            for index in indices:
                results[index] = outcome[model_name]
