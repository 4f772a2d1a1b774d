"""Pluggable linear-solver backends with factorization caching.

Every hot path in the library — BDSM's shifted-pencil solves, PRIMA/EKS
moment generation, transient stepping, frequency sweeps and IR-drop
analysis — ultimately solves ``A x = b`` for the same handful of matrices
over and over.  This module centralises those solves behind a small
subsystem so that

* the *method* can be swapped per matrix (sparse LU, SPD Cholesky-style
  factorisation, preconditioned CG/GMRES for grids too large to factor —
  the approach of the paper's reference [2] — or dense LAPACK for the tiny
  reduced pencils), either explicitly or through per-matrix auto-selection;
* *factorisations are shared*: an LRU :class:`FactorizationCache` keyed on
  ``(matrix fingerprint, shift s0, backend)`` lets BDSM, multipoint
  reduction, transient integration and repeated frequency sweeps reuse a
  pencil factorisation instead of re-factoring it;
* *multi-RHS solves are first-class*: every backend accepts an ``(n, k)``
  block of right-hand sides, which is what the paper's ``O(m l^3)``
  block-diagonal simulation argument depends on.

The design follows the operator/solver-registry pattern of pyMOR: concrete
backends register themselves under a short name in a module-level registry,
:func:`select_backend` implements the auto-selection heuristics (size and
symmetry probes from :mod:`repro.linalg.sparse_utils`), and
:func:`get_solver` is the single entry point the rest of the library uses.

Quick use
---------
>>> from repro.linalg.backends import get_solver, SolverOptions
>>> solver = get_solver(A)                       # auto-selected, cached
>>> x = solver.solve(b)                          # b may be (n,) or (n, k)
>>> solver = get_solver(A, options=SolverOptions(backend="cg", tol=1e-12))
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import (
    SimulationError,
    SingularSystemError,
    SolverBackendError,
)
from repro.obs.health import default_health, health_enabled
from repro.obs.metrics import default_metrics
from repro.obs.tracing import trace_span
from repro.linalg.sparse_utils import (
    as_dense,
    is_symmetric,
    splu_factor,
    to_csc,
    to_csr,
)

__all__ = [
    "SolverOptions",
    "LinearSolver",
    "SpluSolver",
    "CholeskySolver",
    "DenseSolver",
    "IterativeSolver",
    "jacobi_preconditioner",
    "ilu_preconditioner",
    "FactorizationCache",
    "CacheStats",
    "register_backend",
    "available_backends",
    "select_backend",
    "get_solver",
    "solve",
    "matrix_fingerprint",
    "default_cache",
    "set_default_cache",
    "temporary_default_cache",
    "clear_default_cache",
]


# --------------------------------------------------------------------------- #
# Options
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for backend selection, caching and iterative solves.

    Attributes
    ----------
    backend:
        ``"auto"`` (default) picks a backend per matrix via
        :func:`select_backend`; otherwise one of
        :func:`available_backends` (``"splu"``, ``"cholesky"``,
        ``"dense"``, ``"cg"``, ``"gmres"``) or the alias ``"iterative"``
        which resolves to CG for symmetric matrices and GMRES otherwise.
    use_cache:
        Whether factorisations go through the :class:`FactorizationCache`.
        Cache hits return the *same* solver object, so results are
        bit-identical to the cold solve.
    dense_threshold:
        Auto-selection sends matrices of order ``<= dense_threshold`` to the
        dense LAPACK backend (right-sized for reduced ROM pencils).
    iterative_threshold:
        Auto-selection sends real matrices of order ``>= iterative_threshold``
        to CG/GMRES instead of factoring them (the reference-[2] regime).
    tol:
        Relative residual tolerance of the iterative backends.
    max_iterations:
        Iteration cap of the iterative backends.
    preconditioner:
        ``"jacobi"``, ``"ilu"`` or ``"none"`` for the iterative backends.
    check_finite:
        Reject matrices with NaN/Inf entries early.
    """

    backend: str = "auto"
    use_cache: bool = True
    dense_threshold: int = 128
    iterative_threshold: int = 200_000
    tol: float = 1e-12
    max_iterations: int = 5000
    preconditioner: str = "jacobi"
    check_finite: bool = True

    def cache_signature(self, backend: str) -> tuple:
        """Part of the cache key: options that change what ``backend`` builds.

        Direct factorisations (splu/cholesky/dense) are identical under any
        iterative knobs, so keying them on ``tol``/``preconditioner`` would
        only duplicate factors in the cache.
        """
        if backend in ("cg", "gmres"):
            return (self.tol, self.max_iterations, self.preconditioner)
        return ()


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #
def matrix_fingerprint(matrix) -> str:
    """Content hash of a dense or sparse matrix (stable across processes).

    Sparse matrices are normalised to CSR so CSC/CSR/COO inputs holding the
    same values produce the same fingerprint; dense arrays hash their raw
    bytes under a distinct tag so a dense matrix never collides with its
    sparse counterpart.
    """
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(matrix):
        m = matrix.tocsr()
        if not m.has_canonical_format:
            if m is matrix:  # tocsr() was a no-op; don't mutate the caller
                m = m.copy()
            m.sum_duplicates()
        h.update(b"csr")
        h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
        h.update(str(m.dtype).encode())
        h.update(np.ascontiguousarray(m.indptr).tobytes())
        h.update(np.ascontiguousarray(m.indices).tobytes())
        h.update(np.ascontiguousarray(m.data).tobytes())
    else:
        arr = np.asarray(matrix)
        h.update(b"dense")
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# Solver protocol and concrete backends
# --------------------------------------------------------------------------- #
class LinearSolver:
    """A prepared solver for one square matrix ``A``.

    Subclasses do whatever preparation they need (factorisation, building a
    preconditioner) in ``__init__`` and then answer ``solve`` calls for one
    or many right-hand sides.  Instances are what the
    :class:`FactorizationCache` stores, so they must be reusable and
    thread-safe for concurrent ``solve`` calls.
    """

    #: Registry name of the backend (set by subclasses).
    name: str = "abstract"
    #: Whether preparation produced a (reusable) factorisation.
    factorized: bool = False

    def __init__(self, matrix, options: SolverOptions) -> None:
        shape = matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise SolverBackendError(
                f"linear solver needs a square matrix, got shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.n = self.shape[0]
        self.options = options
        self.dtype = np.dtype(complex if np.iscomplexobj(
            matrix.data if sp.issparse(matrix) else matrix) else float)
        # Residual health probe: only solvers built while the monitors
        # are enabled keep a matrix reference (so the disabled path pays
        # nothing and holds nothing alive).  Cached solvers constructed
        # before enabling therefore never probe — clear the cache when
        # switching monitoring on mid-process.
        self._solves = 0
        self._health_matrix = matrix if health_enabled() else None

    # -- helpers ---------------------------------------------------------- #
    def _prepare_rhs(self, rhs) -> tuple[np.ndarray, bool]:
        """Return ``(dense 2-D rhs cast to the solver dtype, was_1d)``."""
        dense = rhs.toarray() if sp.issparse(rhs) else np.asarray(rhs)
        single = dense.ndim == 1
        if single:
            dense = dense.reshape(-1, 1)
        if dense.shape[0] != self.n:
            raise SolverBackendError(
                f"right-hand side has {dense.shape[0]} rows, "
                f"expected {self.n}")
        dense = np.ascontiguousarray(dense, dtype=self.dtype)
        return dense, single

    def _record_residual(self, rhs: np.ndarray,
                         solution: np.ndarray) -> None:
        """Sampled relative-residual probe of the health monitors.

        Costs one SpMM per sampled solve (the first, then every
        :data:`RESIDUAL_SAMPLE_EVERY`-th), nothing at all when the
        monitors were off at construction time.
        """
        self._solves += 1
        A = self._health_matrix
        if A is None or (self._solves - 1) % RESIDUAL_SAMPLE_EVERY:
            return
        residual = np.asarray(A @ solution) - rhs
        denom = float(np.linalg.norm(rhs))
        value = (float(np.linalg.norm(residual)) / denom
                 if denom > 0.0 else 0.0)
        default_health().record(
            "solve.residual", value, backend=self.name,
            detail=f"n={self.n} nrhs={rhs.shape[1]} solve={self._solves}")

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or an ``(n, k)`` block."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


#: Solve-call sampling stride of the residual health probe (the first
#: solve after factorisation is always probed — that is where a bad
#: factorisation shows up — then every Nth).
RESIDUAL_SAMPLE_EVERY = 16

_BACKENDS: dict[str, type[LinearSolver]] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator adding a :class:`LinearSolver` to the registry."""
    def wrap(cls: type) -> type:
        cls.name = name
        _BACKENDS[name] = cls
        return cls
    return wrap


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


@register_backend("splu")
class SpluSolver(LinearSolver):
    """General sparse LU (SuperLU) — the workhorse direct backend."""

    factorized = True

    def __init__(self, matrix, options: SolverOptions) -> None:
        super().__init__(matrix, options)
        self._factor = splu_factor(to_csc(matrix),
                                   check_finite=options.check_finite)

    def solve(self, rhs) -> np.ndarray:
        dense, single = self._prepare_rhs(rhs)
        out = self._factor.solve(dense)
        self._record_residual(dense, out)
        return out[:, 0] if single else out


@register_backend("cholesky")
class CholeskySolver(LinearSolver):
    """SPD-oriented factorisation for the symmetric RC-grid case.

    SciPy ships no sparse Cholesky, so this uses the documented SuperLU
    approximation: symmetric-mode ordering (``MMD_AT_PLUS_A``) with diagonal
    pivoting disabled, which preserves the symmetric fill pattern and is the
    standard drop-in for SPD conductance pencils.  Requesting it for an
    unsymmetric matrix raises :class:`SolverBackendError`; if the
    symmetric-mode factorisation fails numerically the solver falls back to
    plain sparse LU rather than failing the solve.
    """

    factorized = True

    def __init__(self, matrix, options: SolverOptions) -> None:
        super().__init__(matrix, options)
        if not is_symmetric(matrix):
            raise SolverBackendError(
                "cholesky backend requires a (numerically) symmetric matrix; "
                "use 'splu' or 'gmres' for unsymmetric pencils")
        csc = to_csc(matrix)
        csc.sort_indices()
        if (options.check_finite and csc.nnz
                and not np.all(np.isfinite(csc.data))):
            raise SingularSystemError("matrix contains non-finite entries")
        try:
            factor = spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
            probe = factor.solve(np.ones(self.n, dtype=self.dtype))
            if not np.all(np.isfinite(probe)):
                raise RuntimeError("non-finite probe solution")
        except RuntimeError:
            # Symmetric but indefinite/ill-conditioned: LU still applies.
            factor = splu_factor(csc, check_finite=options.check_finite)
        self._factor = factor

    def solve(self, rhs) -> np.ndarray:
        dense, single = self._prepare_rhs(rhs)
        out = self._factor.solve(dense)
        self._record_residual(dense, out)
        return out[:, 0] if single else out


@register_backend("dense")
class DenseSolver(LinearSolver):
    """Dense LAPACK LU — right-sized for small reduced (ROM) pencils."""

    factorized = True

    def __init__(self, matrix, options: SolverOptions) -> None:
        super().__init__(matrix, options)
        A = np.ascontiguousarray(as_dense(matrix), dtype=self.dtype)
        if options.check_finite and A.size and not np.all(np.isfinite(A)):
            raise SingularSystemError("matrix contains non-finite entries")
        try:
            self._lu, self._piv = scipy.linalg.lu_factor(
                A, check_finite=False)
        except (ValueError, scipy.linalg.LinAlgError) as exc:
            raise SingularSystemError(
                f"dense LU factorisation failed: {exc}") from exc
        if not np.all(np.isfinite(self._lu)):
            raise SingularSystemError(
                "dense LU produced non-finite factors; the matrix is "
                "singular")

    def solve(self, rhs) -> np.ndarray:
        dense, single = self._prepare_rhs(rhs)
        # SciPy's ``getrs`` wrapper shifts the pivot array to 1-based in
        # place for the call, so threads sharing this solver (the thread
        # engine's BDSM chunks) each need their own copy of it.
        out = scipy.linalg.lu_solve((self._lu, self._piv.copy()), dense,
                                    check_finite=False)
        if not np.all(np.isfinite(out)):
            raise SingularSystemError(
                "dense LU solve produced non-finite values; the matrix is "
                "singular")
        self._record_residual(dense, out)
        return out[:, 0] if single else out


def jacobi_preconditioner(matrix) -> spla.LinearOperator:
    """Diagonal (Jacobi) preconditioner ``M^{-1} ~ diag(A)^{-1}``.

    Zero or non-finite diagonal entries — a node with no conductance to
    ground (cap-only or inductor-branch rows in an RLC grid), or an empty
    matrix — are passed through with unit scale instead of raising, so the
    preconditioner stays well defined on any grid the iterative solvers can
    handle.
    """
    A = to_csr(matrix)
    diag = np.asarray(A.diagonal())
    inv_diag = np.ones_like(diag)
    usable = np.isfinite(diag) & (diag != 0.0)
    inv_diag[usable] = 1.0 / diag[usable]
    return spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)


def ilu_preconditioner(matrix, drop_tol: float = 1e-4,
                       fill_factor: float = 10.0) -> spla.LinearOperator:
    """Incomplete-LU preconditioner (the standard choice for grid matrices)."""
    A = matrix.tocsc() if sp.issparse(matrix) else sp.csc_matrix(matrix)
    try:
        ilu = spla.spilu(A, drop_tol=drop_tol, fill_factor=fill_factor)
    except RuntimeError as exc:
        raise SimulationError(f"ILU factorisation failed: {exc}") from exc
    return spla.LinearOperator(A.shape, matvec=ilu.solve)


class IterativeSolver(LinearSolver):
    """Preconditioned Krylov iteration (CG / GMRES).

    This is the lineage of the paper's reference [2]: before MOR, large
    power grids were solved with preconditioned Krylov methods, and grids
    too large to factorise still are.  The "factorisation" that the cache
    reuses is the preconditioner (ILU or the Jacobi diagonal).
    """

    factorized = False
    _method = "cg"

    def __init__(self, matrix, options: SolverOptions) -> None:
        super().__init__(matrix, options)
        if self.dtype == np.dtype(complex) and self._method == "cg":
            raise SolverBackendError(
                "cg backend supports real symmetric matrices only; use "
                "'gmres' for complex pencils")
        self._A = to_csr(matrix)
        if (options.check_finite and self._A.nnz
                and not np.all(np.isfinite(self._A.data))):
            raise SingularSystemError("matrix contains non-finite entries")
        self._M = self._build_preconditioner(options)

    def _build_preconditioner(self, options: SolverOptions):
        kind = options.preconditioner
        if kind == "jacobi":
            return jacobi_preconditioner(self._A)
        if kind == "ilu":
            return ilu_preconditioner(self._A)
        if kind == "none":
            return None
        raise SolverBackendError(f"unknown preconditioner {kind!r}")

    def _solve_column(self, b: np.ndarray) -> np.ndarray:
        opts = self.options
        if self._method == "cg":
            x, info = spla.cg(self._A, b, rtol=opts.tol,
                              maxiter=opts.max_iterations, M=self._M)
        else:
            x, info = spla.gmres(self._A, b, rtol=opts.tol,
                                 maxiter=opts.max_iterations, M=self._M)
        if info != 0:
            raise SolverBackendError(
                f"{self._method} failed to converge within "
                f"{opts.max_iterations} iterations (info={info})")
        return x

    def solve(self, rhs) -> np.ndarray:
        dense, single = self._prepare_rhs(rhs)
        out = np.empty_like(dense)
        for j in range(dense.shape[1]):
            out[:, j] = self._solve_column(dense[:, j])
        self._record_residual(dense, out)
        return out[:, 0] if single else out


@register_backend("cg")
class CGSolver(IterativeSolver):
    """Conjugate gradients — the canonical SPD grid solver (reference [2])."""

    _method = "cg"


@register_backend("gmres")
class GMRESSolver(IterativeSolver):
    """GMRES — the iterative fallback for unsymmetric/complex pencils."""

    _method = "gmres"


# --------------------------------------------------------------------------- #
# Auto-selection
# --------------------------------------------------------------------------- #
def select_backend(matrix, options: SolverOptions | None = None) -> str:
    """Pick a backend name for ``matrix``.

    Explicit choices are honoured (with ``"iterative"`` resolved to CG or
    GMRES by a symmetry probe).  ``"auto"`` applies the size/symmetry
    heuristics:

    * order ``<= dense_threshold``  → ``"dense"``  (tiny ROM pencils),
    * order ``>= iterative_threshold``, real, symmetric with positive
      diagonal (the SPD RC-grid pencil shape) → ``"cg"`` (grids too large
      to factor — the regime of the paper's reference [2]),
    * symmetric with positive diagonal below the threshold → ``"cholesky"``,
    * everything else → ``"splu"``.

    Auto-selection never picks GMRES: an unsymmetric or indefinite pencil
    carries no convergence guarantee at the default tolerance, so very
    large RLC grids stay on sparse LU unless the caller opts into
    ``backend="gmres"``/``"iterative"`` explicitly.
    """
    opts = options or SolverOptions()
    n = int(matrix.shape[0])
    complex_valued = np.iscomplexobj(
        matrix.data if sp.issparse(matrix) else matrix)

    if opts.backend != "auto":
        if opts.backend == "iterative":
            if not complex_valued and is_symmetric(matrix):
                return "cg"
            return "gmres"
        if opts.backend not in _BACKENDS:
            raise SolverBackendError(
                f"unknown solver backend {opts.backend!r}; available: "
                f"{available_backends()} (or 'auto'/'iterative')")
        return opts.backend

    if n <= opts.dense_threshold:
        return "dense"
    if not complex_valued and is_symmetric(matrix):
        diag = matrix.diagonal() if sp.issparse(matrix) \
            else np.diagonal(np.asarray(matrix))
        if diag.size and np.all(np.real(diag) > 0.0):
            if n >= opts.iterative_threshold:
                return "cg"
            return "cholesky"
    return "splu"


# --------------------------------------------------------------------------- #
# Factorization cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CacheStats:
    """Counters of a :class:`FactorizationCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FactorizationCache:
    """Thread-safe LRU cache of prepared :class:`LinearSolver` objects.

    Keys combine the matrix fingerprint (or a caller-provided key such as
    ``(pencil fingerprint, shift s0)``), the backend name and the
    result-relevant solver options.  A hit returns the *same* solver object
    that was stored, so repeated solves are bit-identical to the cold run;
    eviction merely forces a re-factorisation, which is deterministic and
    therefore also changes nothing numerically.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise SolverBackendError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, LinearSolver] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> LinearSolver | None:
        """Return the cached solver for ``key`` (LRU-refreshing), or None."""
        with self._lock:
            solver = self._entries.get(key)
            if solver is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return solver

    def put(self, key: Hashable, solver: LinearSolver) -> None:
        """Insert ``solver`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = solver
                return
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = solver

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], LinearSolver]) -> LinearSolver:
        """Return the cached solver or build, insert and return a new one.

        The builder runs outside the lock (factorisation can be slow); if a
        concurrent thread built the same key first, its solver wins so all
        callers share one object.
        """
        solver = self.get(key)
        if solver is not None:
            return solver
        built = builder()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
        self.put(key, built)
        return built

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._entries),
                              capacity=self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"FactorizationCache(size={s.size}/{s.capacity}, "
                f"hits={s.hits}, misses={s.misses})")


_DEFAULT_CACHE = FactorizationCache(capacity=32)
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_cache() -> FactorizationCache:
    """The process-wide cache used when no explicit cache is passed."""
    return _DEFAULT_CACHE


def set_default_cache(cache: FactorizationCache) -> FactorizationCache:
    """Swap the process-wide cache; returns the previous one."""
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        previous = _DEFAULT_CACHE
        _DEFAULT_CACHE = cache
    return previous


class temporary_default_cache:
    """Context manager installing ``cache`` as the default, then restoring.

    Used by benchmarks and tests that want isolated hit/miss accounting:

    >>> with temporary_default_cache(FactorizationCache(capacity=4)) as c:
    ...     ...  # solves in here populate c
    """

    def __init__(self, cache: FactorizationCache) -> None:
        self.cache = cache
        self._previous: FactorizationCache | None = None

    def __enter__(self) -> FactorizationCache:
        self._previous = set_default_cache(self.cache)
        return self.cache

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_default_cache(self._previous)


def clear_default_cache() -> None:
    """Drop all entries of the process-wide cache and zero its counters."""
    _DEFAULT_CACHE.clear()
    _DEFAULT_CACHE.reset_stats()


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def get_solver(matrix, *, options: SolverOptions | None = None,
               cache: FactorizationCache | None = None,
               key: Hashable | None = None) -> LinearSolver:
    """Return a (possibly cached) :class:`LinearSolver` for ``matrix``.

    Parameters
    ----------
    matrix:
        Square dense or sparse matrix.
    options:
        Optional :class:`SolverOptions` controlling backend choice, caching
        and iterative parameters.
    cache:
        Explicit cache to use; defaults to :func:`default_cache`.  Caching is
        skipped entirely when ``options.use_cache`` is False.
    key:
        Optional caller-provided cache key identifying the matrix (e.g.
        ``(pencil fingerprint, shift s0)`` for shifted pencils); when absent
        the content fingerprint of ``matrix`` is used.  The backend name and
        the result-relevant options are always appended to the key.
    """
    opts = options or SolverOptions()
    backend = select_backend(matrix, opts)
    factory = _BACKENDS[backend]
    if not opts.use_cache:
        with trace_span("linalg.factorize", backend=backend, cache="off"):
            return factory(matrix, opts)
    store = cache if cache is not None else default_cache()
    base = key if key is not None else matrix_fingerprint(matrix)
    full_key = (base, backend, opts.cache_signature(backend))
    built_here = False

    def _build() -> LinearSolver:
        # Runs only on a cache miss (get_or_build's internal get() already
        # counted it), so the span and metric label stay miss-accurate.
        nonlocal built_here
        built_here = True
        default_metrics().increment("linalg.factorize.cache",
                                    backend=backend, result="miss")
        with trace_span("linalg.factorize", backend=backend, cache="miss"):
            return factory(matrix, opts)

    solver = store.get_or_build(full_key, _build)
    if not built_here:
        default_metrics().increment("linalg.factorize.cache",
                                    backend=backend, result="hit")
    return solver


def solve(matrix, rhs, *, options: SolverOptions | None = None,
          cache: FactorizationCache | None = None,
          key: Hashable | None = None) -> np.ndarray:
    """One-shot convenience: ``get_solver(matrix, ...).solve(rhs)``."""
    return get_solver(matrix, options=options, cache=cache,
                      key=key).solve(rhs)
