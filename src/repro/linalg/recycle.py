"""Krylov basis recycling across expansion points and shards.

Multipoint reduction rebuilds a Krylov basis at every expansion point, and
partitioned reduction rebuilds one per shard, even though neighbouring
shifts (and content-identical shards) span heavily overlapping subspaces.
The :class:`~repro.linalg.backends.FactorizationCache` already shares LU
factors; this module shares the *subspace*:

:class:`RecycleWorkspace`
    Carries the orthonormal basis accumulated at shifts ``s_1 .. s_j`` into
    the build at ``s_{j+1}``.  Candidate blocks at the new shift are
    CGS2-projected against the recycled basis *first*; a candidate whose
    residual falls below ``recycle_tol`` is already captured and leaves the
    Krylov recursion immediately — its remaining shifted solves are
    skipped, not just its re-orthonormalisation.  Hits, misses and skipped
    solves are tallied in :class:`RecycleStats` and mirrored to the
    ``krylov.recycle`` metric.  The Krylov drivers
    :func:`~repro.linalg.krylov.block_krylov_basis` (PRIMA's global basis)
    and :func:`~repro.linalg.krylov.column_clustered_krylov_bases` (BDSM's
    per-port groups) always build into a workspace; a fresh one, never
    frozen, screens nothing and gives the from-scratch basis.

:class:`ShardBasisCache`
    Fingerprint-keyed reuse of whole shard projection bases.  Sibling
    shards live in disjoint coordinate spaces, so cross-shard *projection*
    is unsound in general — but regular grids produce many
    content-identical shards (same pencil, ports and interface footprint),
    and those can soundly share one basis.  The cache is thread-safe
    (shards fan out over a thread pool) and is threaded down the
    multilevel recursion so child-level reductions reuse it too.

Screening against a recycled basis is span-*approximate*: dropping a
candidate also drops its image under the Krylov operator, which the
recycled basis is not guaranteed to contain.  For clustered or repeated
shifts — the regime where recycling pays — the omitted directions are
higher-order cross terms; parity is therefore checked in transfer-function
/ pole tolerance, and recycling stays opt-in (off = no ``begin_shift``
call, so nothing is ever frozen and nothing screens).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.linalg.backends import matrix_fingerprint
from repro.linalg.orthogonalization import (
    DEFAULT_DEFLATION_TOL,
    OrthoStats,
    block_orthonormalize,
)
from repro.obs.metrics import default_metrics

__all__ = [
    "DEFAULT_RECYCLE_TOL",
    "RecycleStats",
    "RecycleWorkspace",
    "ShardBasisCache",
]

#: Default relative tolerance for deflating a candidate against a recycled
#: basis.  Looser than the intra-block ``DEFAULT_DEFLATION_TOL`` (1e-12):
#: Krylov spaces at *distinct* shifts rarely coincide to machine precision,
#: but for clustered shifts the overlap is strong well before that — and a
#: direction captured to 1e-8 contributes nothing a congruence projection
#: can resolve.
DEFAULT_RECYCLE_TOL = 1e-8


@dataclass
class RecycleStats:
    """Hit/skip accounting for basis recycling.

    Attributes
    ----------
    screened:
        Candidate columns tested against a (non-empty) recycled basis.
    hits:
        Candidates deflated by the recycled basis — directions already
        captured at an earlier shift.
    solves_skipped:
        Shifted-solve right-hand-side columns avoided because a hit left
        the Krylov recursion before its remaining moments were computed.
        Comparable unit to :attr:`ShiftedOperator.solve_count`.
    shard_hits / shard_misses:
        :class:`ShardBasisCache` lookups that did / did not find a
        content-identical shard basis.
    """

    screened: int = 0
    hits: int = 0
    solves_skipped: int = 0
    shard_hits: int = 0
    shard_misses: int = 0

    def merge(self, other: "RecycleStats") -> None:
        self.screened += other.screened
        self.hits += other.hits
        self.solves_skipped += other.solves_skipped
        self.shard_hits += other.shard_hits
        self.shard_misses += other.shard_misses

    def as_dict(self) -> dict:
        return {
            "screened": int(self.screened),
            "hits": int(self.hits),
            "solves_skipped": int(self.solves_skipped),
            "shard_hits": int(self.shard_hits),
            "shard_misses": int(self.shard_misses),
        }


class RecycleWorkspace:
    """Orthonormal basis carried from one shift's build into the next.

    The workspace distinguishes *recycled* columns (accumulated at earlier
    shifts, frozen at :meth:`begin_shift`) from columns absorbed during the
    current shift.  :meth:`screen` deflates candidates only against the
    frozen prefix with the loose ``recycle_tol``; :meth:`absorb`
    orthonormalises survivors against the *whole* basis with the Krylov
    driver's strict ``deflation_tol``.  The split keeps the first shift
    exactly equivalent to a from-scratch build (nothing is frozen yet, so
    nothing screens) while later shifts deflate already-captured
    directions before their solves are spent.
    """

    def __init__(self, n: int, *,
                 recycle_tol: float = DEFAULT_RECYCLE_TOL,
                 stats: RecycleStats | None = None) -> None:
        if recycle_tol <= 0.0:
            raise ValueError("recycle_tol must be positive")
        self.n = int(n)
        self.recycle_tol = float(recycle_tol)
        self.basis = np.empty((self.n, 0))
        self.stats = stats if stats is not None else RecycleStats()
        self._frozen = 0

    @property
    def size(self) -> int:
        """Total number of columns held (recycled + current shift)."""
        return int(self.basis.shape[1])

    def begin_shift(self) -> int:
        """Freeze the accumulated basis as the recycled prefix.

        Everything absorbed so far becomes screening material for the
        shift about to start.  Returns the frozen column count.
        """
        self._frozen = self.size
        return self._frozen

    def screen(self, candidates: np.ndarray) -> np.ndarray:
        """Boolean keep-mask for ``candidates`` against the recycled prefix.

        Each column is CGS2-projected ("twice is enough") against the
        frozen recycled columns; a column whose residual norm falls below
        ``recycle_tol`` times its original norm is a *hit* — its direction
        was captured at an earlier shift — and is marked for removal from
        the Krylov recursion.  Complex candidates are screened in complex
        arithmetic against the real basis (``v`` lies in the complex span
        of a real ``Q`` iff both its real and imaginary parts lie in the
        real span, and the residual norms agree).

        The candidates themselves are not modified.
        """
        W = candidates if candidates.ndim == 2 else candidates.reshape(-1, 1)
        k = W.shape[1]
        if k == 0:
            return np.zeros(0, dtype=bool)
        Q = self.basis[:, :self._frozen]
        if Q.shape[1] == 0:
            return np.ones(k, dtype=bool)
        orig = np.linalg.norm(W, axis=0)
        R = W.copy()
        for _ in range(2):
            R -= Q @ (Q.T @ R)
        residual = np.linalg.norm(R, axis=0)
        keep = residual > self.recycle_tol * orig
        # Zero candidates carry no direction at all; they are not recycled
        # hits, just degenerate inputs the absorb step will deflate.
        keep |= orig == 0.0
        hits = int(k - np.count_nonzero(keep))
        self.stats.screened += k
        self.stats.hits += hits
        metrics = default_metrics()
        if hits:
            metrics.increment("krylov.recycle", amount=float(hits),
                              result="hit")
        if k - hits:
            metrics.increment("krylov.recycle", amount=float(k - hits),
                              result="miss")
        return keep

    def absorb(self, candidates: np.ndarray, stats: OrthoStats, *,
               deflation_tol: float = DEFAULT_DEFLATION_TOL,
               require_full_rank: bool = False) -> int:
        """Orthonormalise ``candidates`` against the basis and append.

        One :func:`~repro.linalg.orthogonalization.block_orthonormalize`
        call for the whole block.  Complex blocks are split into real and
        imaginary parts first (the workspace basis stays real so
        downstream ROMs stay real — the standard real rational-Arnoldi
        trick).  Returns the number of columns actually added; deflation
        counts accrue to ``stats``.
        """
        W = candidates if candidates.ndim == 2 else candidates.reshape(-1, 1)
        if W.shape[1] == 0:
            return 0
        if np.iscomplexobj(W):
            W = np.hstack([np.real(W), np.imag(W)])
        W = np.asarray(W, dtype=float)
        new_cols, merge_stats = block_orthonormalize(
            W, initial_basis=self.basis if self.size else None,
            deflation_tol=deflation_tol,
            require_full_rank=require_full_rank)
        stats.merge(merge_stats)
        if new_cols.size:
            self.basis = (np.hstack([self.basis, new_cols])
                          if self.size else new_cols)
        return int(new_cols.shape[1])


class ShardBasisCache:
    """Thread-safe fingerprint-keyed reuse of shard projection bases.

    Partitioned reduction keys its :class:`~repro.store.ModelStore`
    entries on the shard *index* (two different subdomains must never
    collide), so content-identical sibling shards — ubiquitous on regular
    grids — still each pay a full Krylov build.  This cache keys on
    content alone: the fingerprints of the shard's ``C, G, B, L`` plus
    every numerically relevant knob.  A hit returns the exact basis the
    identical shard produced, which is sound because a congruence
    projection depends on the shard only through those matrices.

    One instance is shared across the shard thread fan-out and passed
    down the multilevel recursion, so sibling shards *and* child-level
    shards at any depth all draw from the same pool.
    """

    def __init__(self, stats: RecycleStats | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, np.ndarray] = {}
        self.stats = stats if stats is not None else RecycleStats()

    @staticmethod
    def key_for(system, **params) -> tuple:
        """Content key for one shard reduction.

        ``params`` must carry every knob that changes the basis
        (``n_moments``, ``s0``, ``method``, ``deflation_tol``, interface
        description, ...).
        """
        return (
            matrix_fingerprint(system.C),
            matrix_fingerprint(system.G),
            matrix_fingerprint(system.B),
            matrix_fingerprint(system.L),
            tuple(sorted((str(k), repr(v)) for k, v in params.items())),
        )

    def fetch(self, key: tuple) -> np.ndarray | None:
        """Basis for ``key`` or ``None``; counts the hit/miss."""
        with self._lock:
            basis = self._entries.get(key)
            if basis is None:
                self.stats.shard_misses += 1
            else:
                self.stats.shard_hits += 1
        default_metrics().increment(
            "partition.shard_basis_cache", result="miss" if basis is None
            else "hit")
        return basis

    def store(self, key: tuple, basis: np.ndarray) -> None:
        """Record ``basis`` for ``key`` (first writer wins)."""
        with self._lock:
            self._entries.setdefault(key, basis)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def describe(self) -> dict:
        """Hit/miss/entry summary for partition_info records."""
        with self._lock:
            entries = len(self._entries)
        return {"entries": entries,
                "hits": int(self.stats.shard_hits),
                "misses": int(self.stats.shard_misses)}
