"""The library's one linear-solver policy, with factorization caching.

Every hot path — BDSM's shifted-pencil solves, PRIMA/EKS moment
generation, transient stepping, frequency sweeps and IR-drop analysis —
solves ``A x = b`` for the same handful of matrices over and over.  This
module owns those solves:

* *one policy, chosen by order only*: a matrix of order up to
  :data:`DENSE_MAX_ORDER` (the small reduced ROM pencils) is factored by
  dense LAPACK LU (:class:`DenseSolver`); every larger one by SuperLU
  (:class:`SpluSolver`).  SuperLU orders a real, numerically symmetric
  matrix with a positive diagonal — the RC-grid pencil shape —
  symmetrically (``MMD_AT_PLUS_A`` in ``SymmetricMode``, diagonal pivots),
  and every other matrix with ``COLAMD``;
* *factorisations are shared*: an LRU :class:`FactorizationCache` keyed on
  ``(matrix fingerprint or caller key, backend)`` lets BDSM, multipoint
  reduction, transient integration and IR-drop analysis reuse a pencil
  factorisation instead of re-factoring it.  Whether a matrix goes through
  the cache is the caller's decision (``cached=``): the full model's
  per-frequency pencils do not, everything else does;
* *multi-RHS solves are first-class*: both solvers accept an ``(n, k)``
  block of right-hand sides, which is what the paper's ``O(m l^3)``
  block-diagonal simulation argument depends on.

Quick use
---------
>>> from repro.linalg.backends import get_solver
>>> solver = get_solver(A)                       # cached
>>> x = solver.solve(b)                          # b may be (n,) or (n, k)
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

from repro.exceptions import SingularSystemError, SolverBackendError
from repro.obs.health import health_enabled, record_health
from repro.obs.metrics import default_metrics
from repro.obs.tracing import trace_span
from repro.linalg.sparse_utils import (
    as_dense,
    is_symmetric,
    splu_factor,
    to_csc,
)

__all__ = [
    "DENSE_MAX_ORDER",
    "LinearSolver",
    "SpluSolver",
    "DenseSolver",
    "FactorizationCache",
    "CacheStats",
    "select_backend",
    "column_ordering",
    "get_solver",
    "solve",
    "matrix_fingerprint",
    "default_cache",
    "set_default_cache",
    "temporary_default_cache",
    "clear_default_cache",
]

#: Matrices of at most this order are factored by dense LAPACK LU.
DENSE_MAX_ORDER = 128


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
# Solver protocol and the two solvers
# --------------------------------------------------------------------------- #
class LinearSolver:
    """A prepared solver for one square matrix ``A``.

    Subclasses factor the matrix in ``__init__`` and then answer ``solve``
    calls for one or many right-hand sides.  Instances are what the
    :class:`FactorizationCache` stores, so they must be reusable and
    thread-safe for concurrent ``solve`` calls.
    """

    #: Backend name, the ``backend`` tag of spans and metrics.
    name: str = "abstract"
    #: Fill-reducing column ordering, for the solvers that choose one.
    ordering: str | None = None

    def __init__(self, matrix) -> None:
        shape = matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise SolverBackendError(
                f"linear solver needs a square matrix, got shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.n = self.shape[0]
        self.dtype = np.dtype(complex if np.iscomplexobj(
            matrix.data if sp.issparse(matrix) else matrix) else float)
        # Residual health probe: only solvers built inside a health
        # scope keep a matrix reference (so the disabled path pays
        # nothing and holds nothing alive), and they probe only while a
        # scope is open.  Cached solvers constructed outside any scope
        # never probe — clear the cache before opening one to see them.
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
        :data:`RESIDUAL_SAMPLE_EVERY`-th) inside a health scope, nothing
        at all for a solver built outside one.
        """
        self._solves += 1
        A = self._health_matrix
        if (A is None or (self._solves - 1) % RESIDUAL_SAMPLE_EVERY
                or not health_enabled()):
            return
        residual = np.asarray(A @ solution) - rhs
        denom = float(np.linalg.norm(rhs))
        value = (float(np.linalg.norm(residual)) / denom
                 if denom > 0.0 else 0.0)
        record_health(
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


def column_ordering(matrix) -> str:
    """SuperLU's column ordering for ``matrix``: ``"MMD_AT_PLUS_A"`` for
    the RC-pencil shape (real, numerically symmetric, positive diagonal),
    ``"COLAMD"`` for everything else."""
    if (np.iscomplexobj(matrix.data if sp.issparse(matrix) else matrix)
            or not is_symmetric(matrix)):
        return "COLAMD"
    diag = (matrix.diagonal() if sp.issparse(matrix)
            else np.diagonal(np.asarray(matrix)))
    return ("MMD_AT_PLUS_A" if diag.size and np.all(diag > 0.0)
            else "COLAMD")


class SpluSolver(LinearSolver):
    """Sparse LU (SuperLU) for every matrix above :data:`DENSE_MAX_ORDER`.

    The column ordering follows the matrix's *numeric* symmetry, not its
    pattern (an RLC MNA pencil has a symmetric pattern but is not
    symmetric): a real symmetric matrix with a positive diagonal is
    ordered ``MMD_AT_PLUS_A`` in ``SymmetricMode`` with diagonal pivots,
    which keeps the symmetric fill pattern of an SPD conductance pencil;
    every other matrix is ordered ``COLAMD`` with partial pivoting.  A
    failed factorisation raises :class:`SingularSystemError`.
    ``ordering`` defaults to :func:`column_ordering` of ``matrix``.
    """

    name = "splu"

    def __init__(self, matrix, ordering: str | None = None) -> None:
        super().__init__(matrix)
        self.ordering = ordering or column_ordering(matrix)
        self._factor = splu_factor(to_csc(matrix), ordering=self.ordering)

    def solve(self, rhs) -> np.ndarray:
        dense, single = self._prepare_rhs(rhs)
        out = self._factor.solve(dense)
        self._record_residual(dense, out)
        return out[:, 0] if single else out


class DenseSolver(LinearSolver):
    """Dense LAPACK LU — right-sized for small reduced (ROM) pencils."""

    name = "dense"

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        A = np.ascontiguousarray(as_dense(matrix), dtype=self.dtype)
        if A.size and not np.all(np.isfinite(A)):
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


def select_backend(matrix) -> type[LinearSolver]:
    """The solver class for ``matrix``: :class:`DenseSolver` up to
    :data:`DENSE_MAX_ORDER`, :class:`SpluSolver` above."""
    return (DenseSolver if int(matrix.shape[0]) <= DENSE_MAX_ORDER
            else SpluSolver)


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
    ``(pencil fingerprint, shift s0)``) and the backend name.  A hit
    returns the *same* solver object that was stored, so repeated solves
    are bit-identical to the cold run;
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
def _factorize(factory: type[LinearSolver], matrix,
               cache_result: str) -> LinearSolver:
    # Choosing SuperLU's ordering probes symmetry, which is not
    # factorisation work: it stays outside the span.
    kwargs = ({"ordering": column_ordering(matrix)}
              if factory is SpluSolver else {})
    with trace_span("linalg.factorize", backend=factory.name,
                    cache=cache_result) as span:
        solver = factory(matrix, **kwargs)
        if solver.ordering is not None:
            span.set_tag("ordering", solver.ordering)
    return solver


def get_solver(matrix, *, key: Hashable | None = None,
               cache: FactorizationCache | None = None,
               cached: bool = True) -> LinearSolver:
    """Return a (possibly cached) :class:`LinearSolver` for ``matrix``.

    Parameters
    ----------
    matrix:
        Square dense or sparse matrix.
    key:
        Optional caller-provided cache key identifying the matrix (e.g.
        ``(pencil fingerprint, shift s0)`` for shifted pencils); when absent
        the content fingerprint of ``matrix`` is used.  The backend name is
        always appended to the key.
    cache:
        Explicit cache to use; defaults to :func:`default_cache`.
    cached:
        ``False`` factors without touching any cache — for throwaway
        matrices such as the full model's per-frequency pencils.
    """
    factory = select_backend(matrix)
    if not cached:
        return _factorize(factory, matrix, "off")
    store = cache if cache is not None else default_cache()
    base = key if key is not None else matrix_fingerprint(matrix)
    built_here = False

    def _build() -> LinearSolver:
        # Runs only on a cache miss (get_or_build's internal get() already
        # counted it), so the span and metric label stay miss-accurate.
        nonlocal built_here
        built_here = True
        default_metrics().increment("linalg.factorize.cache",
                                    backend=factory.name, result="miss")
        return _factorize(factory, matrix, "miss")

    solver = store.get_or_build((base, factory.name), _build)
    if not built_here:
        default_metrics().increment("linalg.factorize.cache",
                                    backend=factory.name, result="hit")
    return solver


def solve(matrix, rhs, *, key: Hashable | None = None,
          cache: FactorizationCache | None = None) -> np.ndarray:
    """One-shot convenience: ``get_solver(matrix, ...).solve(rhs)``."""
    return get_solver(matrix, key=key, cache=cache).solve(rhs)
