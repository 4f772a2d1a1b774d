"""Parallel sweep engine for the analysis layer.

A frequency sweep, a bank of transient corners and a set of IR-drop load
scenarios share one computational shape: many *independent* evaluation
points, each an evaluation of the model's own pencil.  :class:`SweepEngine`
runs those points and nothing else — the pencil solve belongs to the model
(``transfer_function`` / ``transfer_entry`` of a
:class:`~repro.mor.base.StructuredROM`, a
:class:`~repro.circuit.mna.DescriptorSystem` or any other model that
provides them):

* **point parallelism** — evaluation points are split into contiguous,
  deterministic chunks and fanned across a thread pool (SciPy's SuperLU and
  LAPACK release the GIL during factor and solve), or run by the serial
  loop at ``jobs=1``.  A ``solver`` is forwarded unchanged to an evaluator
  that accepts one; :class:`~repro.circuit.mna.DescriptorSystem`'s default
  is uncached per-frequency factors, so a sweep leaves the shared
  :class:`~repro.linalg.backends.FactorizationCache` alone unless the
  caller passes caching options;
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SimulationError
from repro.linalg.backends import SolverOptions
from repro.obs.tracing import attach_context, capture_context, trace_span

__all__ = ["SweepEngine", "AdaptiveSweepResult"]

#: Relative-error floor shared with FrequencySweepResult.relative_error_to.
_ERROR_FLOOR = 1e-300


# --------------------------------------------------------------------------- #
# Signature probing (memoized — probed once per function)
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
    """Invoke a model's own transfer evaluator, forwarding ``solver``.

    The signature is inspected (memoized) rather than catching ``TypeError``
    so a genuine evaluator bug is never masked or re-executed.
    """
    if solver is not None and _accepts_solver(fn):
        return fn(*args, solver=solver)
    return fn(*args)


def _require_evaluator(system) -> None:
    """Reject a model without its own ``transfer_function`` up front."""
    if not hasattr(system, "transfer_function"):
        raise SimulationError(
            f"{type(system).__name__} has no transfer_function; the sweep "
            "engine evaluates a model through its own evaluator")


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


# --------------------------------------------------------------------------- #
# Per-chunk kernels
# --------------------------------------------------------------------------- #
def _evaluate_matrix_chunk(task) -> np.ndarray:
    """Evaluate the full ``p x m`` transfer matrix at each point of a chunk."""
    system, s_chunk, solver = task
    return np.stack(
        [np.asarray(_call_transfer(system.transfer_function, (s,), solver))
         for s in s_chunk], axis=0)


def _evaluate_entry_chunk(task) -> np.ndarray:
    """Evaluate a single transfer-matrix entry at each point of a chunk.

    Uses the model's ``transfer_entry`` when it has one, else the
    ``(output, port)`` entry of its ``transfer_function``.
    """
    system, s_chunk, output, port, solver = task
    values = np.empty(len(s_chunk), dtype=complex)
    if hasattr(system, "transfer_entry"):
        for k, s in enumerate(s_chunk):
            values[k] = _call_transfer(system.transfer_entry,
                                       (s, output, port), solver)
        return values
    for k, s in enumerate(s_chunk):
        values[k] = np.asarray(_call_transfer(
            system.transfer_function, (s,), solver))[output, port]
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
    """Distributes independent sweep points over a thread pool.

    Parameters
    ----------
    jobs:
        Number of worker threads.  ``1`` (default) evaluates serially on
        the calling thread; ``0`` resolves to ``os.cpu_count()``.
    solver:
        Default :class:`~repro.linalg.backends.SolverOptions` applied when
        a sampling call does not pass its own; forwarded unchanged to every
        model evaluator that takes a ``solver`` keyword.

    Notes
    -----
    Every sampled model must have its own ``transfer_function`` (and may
    have ``transfer_entry``); a model without one is rejected with
    :class:`~repro.exceptions.SimulationError` before any work is
    dispatched.  Results are bit-identical across ``jobs`` values: chunk
    boundaries are deterministic, each worker runs the exact serial
    per-point kernel, and chunks are reassembled by index.
    """

    jobs: int = 1
    solver: SolverOptions | None = None
    _pool: object = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise SimulationError("jobs must be >= 0 (0 = one per CPU)")

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

    def _get_pool(self) -> ThreadPoolExecutor:
        """The engine's persistent thread pool, created on first parallel
        dispatch.

        Keeping one executor alive across dispatches means adaptive
        refinement rounds and repeated sweeps reuse the same threads
        instead of paying pool spawn per call.  Released by :meth:`close`
        / context-manager exit.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.resolved_jobs())
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
        worker spans re-attach to the dispatching span.
        """
        workers = min(self.resolved_jobs(), len(tasks))
        if workers <= 1:
            return [kernel(task) for task in tasks]
        ctx = capture_context()
        return list(self._get_pool().map(
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

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_matrix(self, system, s_values, *,
                      solver: SolverOptions | None = None) -> np.ndarray:
        """Sample the full transfer matrix at each ``s``; shape
        ``(k, p, m)``."""
        s_values = np.asarray(s_values, dtype=complex)
        if s_values.size == 0:
            raise SimulationError("sample_matrix needs at least one point")
        _require_evaluator(system)
        opts = self._solver_for(solver)
        tasks = [(system, chunk, opts) for chunk in self._split(s_values)]
        pieces = self._execute(_evaluate_matrix_chunk, tasks)
        return np.concatenate(pieces, axis=0)

    def sample_entry(self, system, s_values, output: int, port: int, *,
                     solver: SolverOptions | None = None) -> np.ndarray:
        """Sample one ``(output, port)`` transfer entry at each ``s``."""
        s_values = np.asarray(s_values, dtype=complex)
        if s_values.size == 0:
            raise SimulationError("sample_entry needs at least one point")
        _require_evaluator(system)
        opts = self._solver_for(solver)
        tasks = [(system, chunk, output, port, opts)
                 for chunk in self._split(s_values)]
        pieces = self._execute(_evaluate_entry_chunk, tasks)
        return np.concatenate(pieces, axis=0)

    def map_scenarios(self, fn, scenarios: list) -> list:
        """Run ``fn(scenario)`` for each scenario across the pool, in
        order.

        The generic fan-out used for independent transient corners,
        IR-drop scenarios and per-model sweeps.
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
        for system in systems:
            _require_evaluator(system)

        def _evaluate_at(indices: np.ndarray) -> None:
            # One pool dispatch per refinement round, chunked both across
            # models and within each model's points, so every worker gets
            # used even when there are more jobs than models.
            s_vals = 1j * omegas[indices]
            chunks = self._split(s_vals)
            tasks = [(system, chunk, output, port, opts)
                     for system in systems for chunk in chunks]
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
