"""Parallel batched sweep engine for the analysis layer.

A frequency sweep, a bank of transient corners and a set of IR-drop load
scenarios share one computational shape: many *independent* evaluation
points, each dominated by a pencil factorisation and a handful of
triangular solves.  :class:`SweepEngine` exploits that shape twice over:

* **multi-RHS batching** — every right-hand side touching one factorized
  pencil is solved in a single ``(n, k)`` block call (the paper's
  ``O(m l^3)`` block-simulation argument), instead of column-by-column;
* **point parallelism** — evaluation points are split into contiguous,
  deterministic chunks and fanned across a thread pool (SciPy's SuperLU
  releases the GIL during factor and solve) or a process pool.  Parallel
  workers solve generic pencils *uncached* — a sweep touches each shifted
  pencil exactly once, so a cache could never hit, and skipping it keeps
  the shared default :class:`~repro.linalg.backends.FactorizationCache`
  free of worker traffic; serial sweeps keep consulting the default
  cache, so the documented ``set_default_cache`` reuse recipe for
  repeated sweeps is unaffected;
* **adaptive refinement** — :func:`SweepEngine.adaptive_entry_sweep`
  evaluates a coarse subset of the frequency grid, bisects intervals whose
  interpolated relative-error estimate is uncertain or near the target,
  and interpolates the rest, so a ROM-accuracy comparison reaches a target
  accuracy with far fewer pencil factorisations than a dense sweep.

Determinism is a design invariant: chunking is a pure function of
``(n_points, jobs)``, every chunk runs exactly the serial per-point code,
and results are reassembled by index — so a parallel sweep is bit-identical
to the serial one (pinned by the golden-regression harness under
``REPRO_GOLDEN_JOBS=2``).
"""

from __future__ import annotations

import functools
import inspect
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import SimulationError
from repro.linalg.backends import SolverOptions, process_worker_init
from repro.linalg.krylov import ShiftedOperator
from repro.obs.metrics import default_metrics
from repro.obs.tracing import (
    attach_context,
    capture_context,
    default_tracer,
    disable_tracing,
    drain_spans,
    enable_tracing,
    trace_span,
)

__all__ = ["SweepEngine", "AdaptiveSweepResult"]

#: Relative-error floor shared with FrequencySweepResult.relative_error_to.
_ERROR_FLOOR = 1e-300


# --------------------------------------------------------------------------- #
# Signature probing (memoized — satellite fix: probed once per function)
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=256)
def _accepts_solver_uncached(fn) -> bool:
    try:
        return "solver" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False


def _accepts_solver(fn) -> bool:
    """Whether ``fn`` takes a ``solver`` keyword.

    The signature really is probed only once: the probe is memoized on the
    underlying function object (``fn.__func__`` for bound methods, so every
    instance of a class shares one cache entry), not re-inspected on every
    frequency point of every sweep.
    """
    return _accepts_solver_uncached(getattr(fn, "__func__", fn))


def _call_transfer(fn, args: tuple, solver: SolverOptions | None):
    """Invoke a system's own transfer evaluator, forwarding ``solver``.

    The signature is inspected (memoized) rather than catching ``TypeError``
    so a genuine evaluator bug is never masked or re-executed.
    """
    if solver is not None and _accepts_solver(fn):
        return fn(*args, solver=solver)
    return fn(*args)


def _dense_rhs(system) -> np.ndarray:
    """Densify ``system.B`` once per sweep (not once per frequency point)."""
    B = system.B
    return B.toarray() if hasattr(B, "toarray") else np.asarray(B)


def _dense_rhs_column(system, port: int) -> np.ndarray:
    """One dense ``(n, 1)`` column of ``system.B``, built once per sweep.

    Sparse inputs go through CSR first so non-subscriptable formats
    (e.g. COO) keep working, exactly like the full-matrix path.
    """
    B = system.B
    if hasattr(B, "tocsr"):
        return B.tocsr()[:, [port]].toarray()
    if hasattr(B, "toarray"):
        return B.toarray()[:, [port]]
    return np.asarray(B)[:, [port]]


def _effective_options(solver: SolverOptions | None,
                       parallel: bool) -> SolverOptions:
    """Solver options for a chunk's generic pencil solves.

    A sweep touches each shifted pencil exactly once, so a cache can never
    hit *within* the sweep; parallel workers therefore solve uncached,
    which both skips the per-pencil fingerprinting cost and keeps the
    shared default cache free of worker traffic.  Serial execution keeps
    the caller's caching choice so repeated sweeps of the same grid reuse
    factors from the process-wide default cache (the documented
    ``set_default_cache`` workflow).  Caching never changes results, so
    parallel stays bit-identical to serial either way.
    """
    opts = solver if solver is not None else SolverOptions(use_cache=False)
    if parallel and opts.use_cache:
        opts = replace(opts, use_cache=False)
    return opts


# --------------------------------------------------------------------------- #
# Worker-side wrappers: trace-context hand-off and telemetry collection
# --------------------------------------------------------------------------- #
def _thread_chunk_call(kernel, task, ctx):
    """Run one chunk on a pool thread under the submitter's trace context.

    Contextvars do not follow work onto pool threads, so the context
    captured at dispatch is re-attached here; the ``engine.chunk`` span
    (a no-op while tracing is disabled) then parents every span the
    kernel opens.  The kernel itself is untouched — results stay
    bit-identical to the serial path.
    """
    with attach_context(ctx):
        with trace_span("engine.chunk", executor="thread",
                        kernel=getattr(kernel, "__name__", str(kernel))):
            return kernel(task)


def _process_chunk_call(payload):
    """Run one chunk in a worker process and ship its telemetry home.

    Process workers accumulate metrics (span timings included) into
    *their own* process-local default registry, which would otherwise die
    with the pool.  This wrapper snapshots (and resets) that registry and
    drains the worker's finished spans after the kernel runs, returning
    ``(result, {"metrics", "spans"})`` so the parent can merge them — and,
    when tracing is on, re-attaches the submitter's span context so
    worker spans land under the dispatching span.
    """
    kernel, task, ctx = payload
    if ctx is not None and ctx.enabled:
        enable_tracing()
    else:
        disable_tracing()
    with attach_context(ctx):
        with trace_span("engine.chunk", executor="process",
                        kernel=getattr(kernel, "__name__", str(kernel))):
            result = kernel(task)
    metrics = default_metrics()
    telemetry = {
        "metrics": metrics.snapshot(),
        "spans": [span.as_dict() for span in drain_spans()],
    }
    metrics.reset()
    return result, telemetry


def _process_worker_init(capacity: int) -> None:
    """Pool initializer: a fresh solver cache, and telemetry cleared of
    whatever a forked worker inherited from the parent (shipping that
    home would count the parent's spans twice)."""
    process_worker_init(capacity)
    default_metrics().reset()
    drain_spans()


# --------------------------------------------------------------------------- #
# Per-chunk kernels (module-level so process pools can pickle them)
# --------------------------------------------------------------------------- #
def _evaluate_matrix_chunk(task) -> np.ndarray:
    """Evaluate the full ``p x m`` transfer matrix at each point of a chunk.

    One multi-RHS solve per factorized pencil: all ``m`` columns of ``B``
    are pushed through ``(sC - G)^{-1}`` in a single block call.
    """
    system, s_chunk, solver, rhs, parallel = task
    if hasattr(system, "transfer_function"):
        return np.stack(
            [np.asarray(_call_transfer(system.transfer_function, (s,), solver))
             for s in s_chunk], axis=0)
    opts = _effective_options(solver, parallel)
    L = system.L
    samples = []
    for s in s_chunk:
        op = ShiftedOperator(system.C, system.G, s0=s, solver=opts)
        X = op.solve(rhs)
        samples.append(np.asarray(L @ X))
    return np.stack(samples, axis=0)


def _evaluate_entry_chunk(task) -> np.ndarray:
    """Evaluate a single transfer-matrix entry at each point of a chunk.

    The generic fallback solves only the one ``B`` column and applies the
    one ``L`` row the entry needs — not the full ``p x m`` matrix.
    """
    system, s_chunk, output, port, solver, rhs, parallel = task
    values = np.empty(len(s_chunk), dtype=complex)
    if hasattr(system, "transfer_entry"):
        for k, s in enumerate(s_chunk):
            values[k] = _call_transfer(system.transfer_entry,
                                       (s, output, port), solver)
        return values
    if hasattr(system, "transfer_function"):
        for k, s in enumerate(s_chunk):
            values[k] = np.asarray(_call_transfer(
                system.transfer_function, (s,), solver))[output, port]
        return values
    opts = _effective_options(solver, parallel)
    L = system.L
    if hasattr(L, "tocsr"):
        row = L.tocsr()[output, :].toarray().reshape(-1)
    elif hasattr(L, "toarray"):
        row = L.toarray()[output, :]
    else:
        row = np.asarray(L)[output, :]
    for k, s in enumerate(s_chunk):
        op = ShiftedOperator(system.C, system.G, s0=s, solver=opts)
        x = op.solve(rhs)
        values[k] = complex(row @ np.asarray(x).reshape(-1))
    return values


@dataclass
class AdaptiveSweepResult:
    """Outcome of an adaptively refined entry sweep (see
    :meth:`SweepEngine.adaptive_entry_sweep`).

    Attributes
    ----------
    omegas:
        The full target frequency grid.
    reference:
        Reference-model samples on the full grid (exact where ``evaluated``,
        interpolated elsewhere).
    candidates:
        ``label -> samples`` on the full grid, filled like ``reference``.
    evaluated:
        Boolean mask of grid points that were actually solved.
    errors:
        ``label -> relative-error curve`` (exact at evaluated points,
        an interpolated estimate elsewhere).
    """

    omegas: np.ndarray
    reference: np.ndarray
    candidates: dict[str, np.ndarray]
    evaluated: np.ndarray
    errors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_evaluated(self) -> int:
        """Number of grid points that were solved exactly."""
        return int(np.count_nonzero(self.evaluated))

    @property
    def n_points(self) -> int:
        """Size of the full target grid."""
        return int(self.omegas.shape[0])

    @property
    def evaluations_saved(self) -> int:
        """Per-model point evaluations avoided versus a dense sweep.

        Counts skipped ``(model, frequency)`` evaluations across the
        reference and all candidates.  How much work each one represents
        depends on the model — a sparse pencil factorisation for the full
        MNA model, small per-block solves for a ROM — so this is an
        evaluation count, not a factorisation count.
        """
        models = 1 + len(self.candidates)
        return models * (self.n_points - self.n_evaluated)


@dataclass
class SweepEngine:
    """Distributes independent sweep points over a worker pool.

    Parameters
    ----------
    jobs:
        Number of workers.  ``1`` (default) evaluates serially on the
        calling thread; ``0`` resolves to ``os.cpu_count()``.
    executor:
        ``"thread"`` (default; SciPy's factor/solve kernels release the GIL)
        or ``"process"`` for pools of separate interpreters.  Process
        workers receive a fresh default
        :class:`~repro.linalg.backends.FactorizationCache` through
        :func:`~repro.linalg.backends.process_worker_init`, and every task
        payload (system matrices, :class:`SolverOptions`) is pickled.
    solver:
        Default :class:`~repro.linalg.backends.SolverOptions` applied when
        a sampling call does not pass its own.
    worker_cache_capacity:
        Capacity of the fresh default
        :class:`~repro.linalg.backends.FactorizationCache` installed in
        each process-pool worker by
        :func:`~repro.linalg.backends.process_worker_init`.

    Notes
    -----
    Results are bit-identical across ``jobs`` values: chunk boundaries are
    deterministic, each worker runs the exact serial per-point kernel, and
    chunks are reassembled by index.  Parallel workers solve generic
    pencils uncached (each sweep pencil is touched once, so a cache could
    never hit) while serial execution keeps the caller's caching choice;
    caching only changes *when* a factorisation happens, never its result.
    """

    jobs: int = 1
    executor: str = "thread"
    solver: SolverOptions | None = None
    worker_cache_capacity: int = 16
    _pool: object = field(default=None, init=False, repr=False,
                          compare=False)

    _EXECUTORS = ("thread", "process")

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise SimulationError("jobs must be >= 0 (0 = one per CPU)")
        if self.executor not in self._EXECUTORS:
            raise SimulationError(
                f"unknown executor {self.executor!r}; "
                f"choose from {self._EXECUTORS}")
        if self.worker_cache_capacity < 0:
            raise SimulationError("worker_cache_capacity must be >= 0")

    # ------------------------------------------------------------------ #
    # Pool plumbing
    # ------------------------------------------------------------------ #
    def resolved_jobs(self) -> int:
        """The worker count after resolving ``jobs=0`` to the CPU count."""
        return self.jobs if self.jobs else (os.cpu_count() or 1)

    @staticmethod
    def _chunk_bounds(n_items: int, n_chunks: int) -> np.ndarray:
        """Deterministic contiguous chunk boundaries (length
        ``n_chunks + 1``)."""
        return np.linspace(0, n_items, n_chunks + 1).astype(int)

    def _get_pool(self):
        """The engine's persistent worker pool, created on first parallel
        dispatch.

        Keeping one executor alive across dispatches means adaptive
        refinement rounds and repeated sweeps reuse the same workers
        instead of paying pool spawn (and, for process pools, interpreter
        startup plus :func:`~repro.linalg.backends.process_worker_init`)
        per call.  Released by :meth:`close` / context-manager exit.
        """
        if self._pool is None:
            if self.executor == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.resolved_jobs(),
                    initializer=_process_worker_init,
                    initargs=(max(self.worker_cache_capacity, 1),))
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.resolved_jobs())
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (no-op if never started).

        The engine stays usable: the next parallel dispatch starts a
        fresh pool.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _execute(self, kernel, tasks: list) -> list:
        """Run ``kernel`` over ``tasks``, preserving task order.

        Parallel dispatches capture the submitting trace context so
        worker spans re-attach to the dispatching span (threads *and*
        processes); process dispatches additionally merge each worker's
        metrics snapshot and finished spans back into the parent's
        default registry and tracer, so per-chunk telemetry survives the
        pool.
        """
        workers = min(self.resolved_jobs(), len(tasks))
        if workers <= 1:
            return [kernel(task) for task in tasks]
        ctx = capture_context()
        pool = self._get_pool()
        if self.executor == "process":
            payloads = [(kernel, task, ctx) for task in tasks]
            outcomes = list(pool.map(_process_chunk_call, payloads))
            metrics = default_metrics()
            tracer = default_tracer()
            results = []
            for result, telemetry in outcomes:
                results.append(result)
                metrics.merge_snapshot(telemetry["metrics"])
                tracer.ingest(telemetry["spans"])
            return results
        return list(pool.map(
            lambda task: _thread_chunk_call(kernel, task, ctx), tasks))

    def _split(self, values: np.ndarray) -> list[np.ndarray]:
        jobs = min(self.resolved_jobs(), len(values))
        if jobs <= 1:
            return [values]
        bounds = self._chunk_bounds(len(values), jobs)
        return [values[bounds[i]:bounds[i + 1]] for i in range(jobs)
                if bounds[i] < bounds[i + 1]]

    def _solver_for(self, solver: SolverOptions | None) -> SolverOptions | None:
        return solver if solver is not None else self.solver

    def _parallel_dispatch(self, n_tasks: int) -> bool:
        """Whether a dispatch of ``n_tasks`` chunks actually runs in
        parallel (see :func:`_effective_options` for what that implies)."""
        return min(self.resolved_jobs(), n_tasks) > 1

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_matrix(self, system, s_values, *,
                      solver: SolverOptions | None = None) -> np.ndarray:
        """Sample the full transfer matrix at each ``s``; shape
        ``(k, p, m)``.

        The dense right-hand-side block is built once per sweep and every
        pencil is hit with a single multi-RHS solve.
        """
        s_values = np.asarray(s_values, dtype=complex)
        if s_values.size == 0:
            raise SimulationError("sample_matrix needs at least one point")
        opts = self._solver_for(solver)
        rhs = None
        if not hasattr(system, "transfer_function"):
            rhs = _dense_rhs(system)
        chunks = self._split(s_values)
        parallel = self._parallel_dispatch(len(chunks))
        tasks = [(system, chunk, opts, rhs, parallel) for chunk in chunks]
        pieces = self._execute(_evaluate_matrix_chunk, tasks)
        return np.concatenate(pieces, axis=0)

    def sample_entry(self, system, s_values, output: int, port: int, *,
                     solver: SolverOptions | None = None) -> np.ndarray:
        """Sample one ``(output, port)`` transfer entry at each ``s``."""
        s_values = np.asarray(s_values, dtype=complex)
        if s_values.size == 0:
            raise SimulationError("sample_entry needs at least one point")
        opts = self._solver_for(solver)
        rhs = None
        if not (hasattr(system, "transfer_entry")
                or hasattr(system, "transfer_function")):
            rhs = _dense_rhs_column(system, port)
        chunks = self._split(s_values)
        parallel = self._parallel_dispatch(len(chunks))
        tasks = [(system, chunk, output, port, opts, rhs, parallel)
                 for chunk in chunks]
        pieces = self._execute(_evaluate_entry_chunk, tasks)
        return np.concatenate(pieces, axis=0)

    def map_scenarios(self, fn, scenarios: list) -> list:
        """Run ``fn(scenario)`` for each scenario across the pool, in
        order.

        The generic fan-out used for independent transient corners and
        IR-drop scenarios; ``fn`` must be picklable for process pools.
        """
        return self._execute(fn, list(scenarios))

    # ------------------------------------------------------------------ #
    # Adaptive refinement
    # ------------------------------------------------------------------ #
    def adaptive_entry_sweep(self, reference, candidates: dict, omegas,
                             output: int, port: int, *,
                             solver: SolverOptions | None = None,
                             target_error: float = 1e-3,
                             seed_points: int = 9,
                             ) -> AdaptiveSweepResult:
        """Entry sweep of a reference and candidate models with grid
        refinement.

        Starts from ``seed_points`` log-evenly chosen grid points (always
        including both endpoints), then repeatedly bisects the gaps whose
        endpoint relative errors are near or above ``target_error`` — or
        disagree by more than a decade, i.e. where the interpolated error
        estimate is unreliable — until every remaining gap is certifiably
        flat.  Unevaluated points are filled by interpolating real and
        imaginary parts linearly in ``log10(omega)``.
        """
        omegas = np.asarray(omegas, dtype=float)
        n = omegas.shape[0]
        if n < 2:
            raise SimulationError("adaptive sweep needs at least 2 points")
        if target_error <= 0.0:
            raise SimulationError("target_error must be positive")
        seed_points = int(min(max(seed_points, 2), n))
        labels = list(candidates)

        evaluated = np.zeros(n, dtype=bool)
        ref_vals = np.zeros(n, dtype=complex)
        cand_vals = {label: np.zeros(n, dtype=complex) for label in labels}
        opts = self._solver_for(solver)
        models = [ref_vals] + [cand_vals[label] for label in labels]
        systems = [reference] + [candidates[label] for label in labels]
        rhs_blocks = [
            None if (hasattr(system, "transfer_entry")
                     or hasattr(system, "transfer_function"))
            else _dense_rhs_column(system, port)
            for system in systems]

        def _evaluate_at(indices: np.ndarray) -> None:
            # One pool dispatch per refinement round, chunked both across
            # models and within each model's points, so every worker gets
            # used even when there are more jobs than models.
            s_vals = 1j * omegas[indices]
            chunks = self._split(s_vals)
            parallel = self._parallel_dispatch(len(systems) * len(chunks))
            tasks = [(system, chunk, output, port, opts, rhs, parallel)
                     for system, rhs in zip(systems, rhs_blocks)
                     for chunk in chunks]
            results = self._execute(_evaluate_entry_chunk, tasks)
            for j, store in enumerate(models):
                pieces = results[j * len(chunks):(j + 1) * len(chunks)]
                store[indices] = np.concatenate(pieces)
            evaluated[indices] = True

        def _worst_error(indices: np.ndarray) -> np.ndarray:
            """Worst-over-candidates relative error at evaluated indices."""
            ref = ref_vals[indices]
            den = np.maximum(np.abs(ref), _ERROR_FLOOR)
            worst = np.zeros(len(indices))
            for label in labels:
                err = np.abs(cand_vals[label][indices] - ref) / den
                worst = np.maximum(worst, err)
            return worst

        seed = np.unique(np.round(
            np.linspace(0, n - 1, seed_points)).astype(int))
        _evaluate_at(seed)

        while True:
            idx = np.flatnonzero(evaluated)
            err = _worst_error(idx)
            refine: list[int] = []
            for pos in range(len(idx) - 1):
                a, b = int(idx[pos]), int(idx[pos + 1])
                if b - a <= 1:
                    continue
                hi = max(err[pos], err[pos + 1])
                lo = max(min(err[pos], err[pos + 1]), _ERROR_FLOOR)
                uncertain = np.log10(max(hi, _ERROR_FLOOR) / lo) > 1.0
                if hi >= 0.1 * target_error or uncertain:
                    refine.append((a + b) // 2)
            if not refine:
                break
            _evaluate_at(np.asarray(sorted(set(refine)), dtype=int))

        # Interpolate the skipped points (linear in log10-omega, per part).
        known = np.flatnonzero(evaluated)
        missing = np.flatnonzero(~evaluated)
        if missing.size:
            x_all = np.log10(omegas)
            x_known = x_all[known]

            def _fill(series: np.ndarray) -> None:
                series[missing] = (
                    np.interp(x_all[missing], x_known, series[known].real)
                    + 1j * np.interp(x_all[missing], x_known,
                                     series[known].imag))

            _fill(ref_vals)
            for label in labels:
                _fill(cand_vals[label])

        den = np.maximum(np.abs(ref_vals), _ERROR_FLOOR)
        errors = {label: np.abs(cand_vals[label] - ref_vals) / den
                  for label in labels}
        return AdaptiveSweepResult(
            omegas=omegas, reference=ref_vals, candidates=cand_vals,
            evaluated=evaluated, errors=errors)
