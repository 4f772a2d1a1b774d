"""Orthonormalisation kernels with deflation and cost accounting.

The whole cost argument of the BDSM paper (Sec. III-B) is about how many
*long vector-vector products* the orthonormalisation step needs:

* PRIMA orthonormalises all ``m*l`` candidate vectors against each other,
  costing ``m*l*(m*l - 1)/2`` inner products of length-``n`` vectors.
* BDSM clusters the candidates into ``m`` groups of ``l`` vectors and
  orthonormalises each group independently, costing ``m * l*(l-1)/2``.

Two kernels implement that step:

:func:`modified_gram_schmidt`
    The column-at-a-time reference: each candidate is orthogonalised
    against the basis built so far with modified Gram-Schmidt (one BLAS-2
    projection per column, one optional re-orthogonalisation sweep).  This
    is the kernel the paper's operation counts are phrased in, kept as the
    ground truth for parity tests and the cost model.

:func:`block_orthonormalize`
    The blocked BLAS-3 production kernel: the whole candidate block is
    projected against the existing basis with two classical Gram-Schmidt
    sweeps (``Q^H W`` / ``Q S`` GEMMs — CGS2, the "twice is enough" rule),
    then deflated intra-block with an *unpivoted* Householder QR whose
    ``R`` diagonal reveals each candidate's residual in input order
    (pivoting would permute the diagonal and break the per-candidate
    deflation test — see the comment in the implementation).  Deflating
    blocks are handled by a rank-revealing *survivor re-QR*
    (:func:`_rank_revealing_qr`): only the first failing column is
    dropped, and the remaining candidates are re-factored in the tiny
    reduced coordinates of the surviving ``R`` block, so each deflation
    costs one ``k x k``-sized QR instead of a column-wise rerun of the
    whole block.  It spans the same space and makes the same deflation
    decisions as the column-wise kernel (up to roundoff on genuinely
    borderline candidates) but runs entirely inside LAPACK/BLAS-3, which
    is what makes large reductions CPU-bound instead of Python-bound.

To reproduce the paper's argument quantitatively
(``benchmarks/bench_cost_model.py``) every routine counts the *logical*
long-vector operations it performs and returns them in :class:`OrthoStats`;
the blocked kernel reports the same counts the column-wise kernel would
have produced for the same deflation decisions, so Fig. 2 style cost
comparisons read off the same counters regardless of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.exceptions import DeflationError
from repro.obs.health import default_health, health_enabled

__all__ = [
    "OrthoStats",
    "block_orthonormalize",
    "modified_gram_schmidt",
    "orthogonality_loss",
    "orthonormalize_against",
]

#: Default tolerance below which a candidate vector is considered linearly
#: dependent on the existing basis ("deflated" in Krylov terminology).
DEFAULT_DEFLATION_TOL = 1e-12

#: Column cap of the :func:`orthogonality_loss` health probe: the Gram
#: subsample costs ``n * cap^2`` flops per merge, which keeps the
#: monitors-enabled reduce within the ``health_overhead`` 5% budget.
HEALTH_LOSS_COLUMNS = 32

#: Fresh QR factorisations (no ``init`` basis) are probed one-in-N;
#: cross-basis merges are always probed.  See :func:`_should_probe`.
HEALTH_FRESH_PROBE_EVERY = 8

_fresh_probe_count = 0


def orthogonality_loss(basis: np.ndarray, *,
                       max_columns: int = HEALTH_LOSS_COLUMNS) -> float:
    """``||Q^T Q - I||_max`` of (a deterministic subsample of) ``basis``.

    The health monitors' orthogonality probe: for wide bases only an
    evenly spaced subsample of ``max_columns`` columns enters the Gram
    matrix, bounding the probe at ``n * max_columns^2`` flops while still
    catching a basis whose columns have drifted from orthonormality
    (drift from a broken merge contaminates every later column, so a
    spread subsample sees it).
    """
    Q = np.asarray(basis)
    if Q.ndim != 2 or Q.shape[1] == 0:
        return 0.0
    k = Q.shape[1]
    if k > max_columns:
        idx = np.linspace(0, k - 1, max_columns).round().astype(int)
        Q = Q[:, np.unique(idx)]
    gram = Q.conj().T @ Q
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


@dataclass
class OrthoStats:
    """Operation counts accumulated during orthonormalisation.

    Attributes
    ----------
    inner_products:
        Number of long (length-``n``) vector-vector inner products performed.
        This is the quantity the paper's cost comparison is phrased in.
    axpy_updates:
        Number of length-``n`` ``y -= alpha * x`` updates performed.
    normalizations:
        Number of vector normalisations.
    deflations:
        Number of candidate vectors dropped because they were (numerically)
        linearly dependent on the basis built so far.
    """

    inner_products: int = 0
    axpy_updates: int = 0
    normalizations: int = 0
    deflations: int = 0

    def merge(self, other: "OrthoStats") -> None:
        """Accumulate the counts of ``other`` into this object in place."""
        self.inner_products += other.inner_products
        self.axpy_updates += other.axpy_updates
        self.normalizations += other.normalizations
        self.deflations += other.deflations

    def __add__(self, other: "OrthoStats") -> "OrthoStats":
        merged = OrthoStats(
            self.inner_products, self.axpy_updates,
            self.normalizations, self.deflations,
        )
        merged.merge(other)
        return merged


@dataclass
class _Workspace:
    """Internal mutable basis being grown column by column."""

    columns: list[np.ndarray] = field(default_factory=list)

    def matrix(self) -> np.ndarray:
        if not self.columns:
            return np.empty((0, 0))
        return np.column_stack(self.columns)


def orthonormalize_against(
    vector: np.ndarray,
    basis: np.ndarray | None,
    *,
    stats: OrthoStats | None = None,
    deflation_tol: float = DEFAULT_DEFLATION_TOL,
    reorthogonalize: bool = True,
) -> np.ndarray | None:
    """Orthonormalise one vector against an existing orthonormal basis.

    Uses modified Gram-Schmidt with one optional re-orthogonalisation pass
    (classical "twice is enough" rule), which is what a careful PRIMA/BDSM
    implementation does to keep the basis orthonormal to machine precision.

    Parameters
    ----------
    vector:
        Candidate vector of length ``n``.
    basis:
        ``n x k`` matrix with orthonormal columns (or ``None`` / empty for an
        empty basis).
    stats:
        Optional :class:`OrthoStats` accumulator updated in place.
    deflation_tol:
        Relative tolerance under which the remainder is declared deflated.
    reorthogonalize:
        Perform a second MGS sweep for numerical robustness.

    Returns
    -------
    numpy.ndarray or None
        The orthonormalised vector, or ``None`` when the candidate was
        (numerically) linearly dependent on the basis.
    """
    v = np.array(vector, copy=True).reshape(-1)
    if not np.iscomplexobj(v):
        v = v.astype(float)
    original_norm = float(np.linalg.norm(v))
    if stats is None:
        stats = OrthoStats()
    if original_norm == 0.0:
        stats.deflations += 1
        return None

    if basis is None or (hasattr(basis, "size") and basis.size == 0):
        basis_mat = None
    else:
        basis_mat = np.asarray(basis)
        if basis_mat.ndim == 1:
            basis_mat = basis_mat.reshape(-1, 1)

    # The projection is computed against all basis columns at once (a single
    # BLAS-2 call) but the *accounting* stays per column: each basis column
    # contributes one long inner product and one axpy update, which is the
    # quantity the paper's cost comparison counts.
    passes = 2 if (reorthogonalize and basis_mat is not None) else 1
    if basis_mat is not None:
        n_cols = basis_mat.shape[1]
        for _ in range(passes):
            coeffs = basis_mat.conj().T @ v
            v = v - basis_mat @ coeffs
            stats.inner_products += n_cols
            stats.axpy_updates += n_cols

    # Scale by the max-abs entry before the norm: squaring a tiny entry
    # (|v| ~ 1e-161) underflows to a subnormal, and dividing by that
    # inexact norm leaves a column visibly off unit length.
    scale = float(np.max(np.abs(v)))
    if scale > 0.0:
        v = v / scale
    norm = float(np.linalg.norm(v))
    if scale * norm <= deflation_tol * original_norm:
        stats.deflations += 1
        return None
    stats.normalizations += 1
    return v / norm


def modified_gram_schmidt(
    candidates: np.ndarray,
    *,
    initial_basis: np.ndarray | None = None,
    deflation_tol: float = DEFAULT_DEFLATION_TOL,
    reorthogonalize: bool = True,
    require_full_rank: bool = False,
) -> tuple[np.ndarray, OrthoStats]:
    """Orthonormalise the columns of ``candidates`` (optionally against a basis).

    Parameters
    ----------
    candidates:
        ``n x k`` matrix whose columns are to be orthonormalised in order.
    initial_basis:
        Optional ``n x j`` matrix of already-orthonormal columns the new
        vectors must also be orthogonal to.  The returned basis *excludes*
        these initial columns.
    deflation_tol:
        Relative deflation tolerance.
    reorthogonalize:
        Run a second MGS sweep per vector.
    require_full_rank:
        When ``True``, raise :class:`DeflationError` if any candidate deflates
        instead of silently dropping it.

    Returns
    -------
    (numpy.ndarray, OrthoStats)
        The new orthonormal columns (``n x r`` with ``r <= k``) and the
        accumulated operation counts.
    """
    cand = np.asarray(candidates)
    if not np.iscomplexobj(cand):
        cand = cand.astype(float)
    if cand.ndim == 1:
        cand = cand.reshape(-1, 1)
    n, k = cand.shape
    stats = OrthoStats()

    init = None
    n_existing = 0
    if initial_basis is not None and np.asarray(initial_basis).size:
        init = np.asarray(initial_basis)
        if init.ndim == 1:
            init = init.reshape(-1, 1)
        if init.shape[0] != n:
            raise ValueError(
                f"initial basis has {init.shape[0]} rows, candidates have {n}"
            )
        n_existing = init.shape[1]

    # Grow the basis inside one preallocated array so each candidate is
    # orthogonalised against a *view* of the accepted columns (no copies).
    dtype = complex if (np.iscomplexobj(cand)
                        or (init is not None and np.iscomplexobj(init))) \
        else float
    workspace = np.empty((n, n_existing + k), dtype=dtype)
    if init is not None:
        workspace[:, :n_existing] = init
    count = n_existing

    for j in range(k):
        basis_view = workspace[:, :count] if count else None
        q = orthonormalize_against(
            cand[:, j], basis_view,
            stats=stats,
            deflation_tol=deflation_tol,
            reorthogonalize=reorthogonalize,
        )
        if q is None:
            if require_full_rank:
                raise DeflationError(
                    f"candidate column {j} is linearly dependent on the basis"
                )
            continue
        workspace[:, count] = q
        count += 1

    basis = np.array(workspace[:, n_existing:count])
    return basis, stats


def _columnwise_equivalent_stats(orig_norms: np.ndarray,
                                 deflated: np.ndarray,
                                 n_existing: int,
                                 reorthogonalize: bool) -> OrthoStats:
    """The :class:`OrthoStats` the column-wise kernel would have produced.

    Given the per-candidate deflation decisions, the column-wise operation
    counts are pure integer arithmetic: candidate ``j`` (in input order)
    pays ``passes * basis_size`` inner products and axpy updates against
    the ``n_existing + accepted_so_far`` basis columns, except zero
    candidates which deflate before any projection.  Replaying that
    arithmetic keeps the paper's Fig. 2 cost comparison readable off the
    same counters whichever kernel actually ran.
    """
    stats = OrthoStats()
    accepted = 0
    for j in range(orig_norms.shape[0]):
        if orig_norms[j] == 0.0:
            stats.deflations += 1
            continue
        basis_size = n_existing + accepted
        if basis_size:
            passes = 2 if reorthogonalize else 1
            stats.inner_products += passes * basis_size
            stats.axpy_updates += passes * basis_size
        if deflated[j]:
            stats.deflations += 1
        else:
            stats.normalizations += 1
            accepted += 1
    return stats


def _rank_revealing_qr(
    W: np.ndarray,
    orig_norms: np.ndarray,
    deflation_tol: float,
    *,
    require_full_rank: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked rank-revealing orthonormalisation with survivor re-QR.

    Factors the (already basis-projected) candidate block ``W`` with an
    unpivoted Householder QR and replays the column-wise deflation
    decisions in input order: ``|R[j, j]|`` is candidate ``j``'s residual
    against its *predecessors*, so every decision up to the first failing
    diagonal is exactly the column-wise one.  When a column deflates,
    only that column is dropped — the remaining candidates' components
    orthogonal to the accepted span are, by the factorisation itself,
    ``Q[:, j:] @ R[j:, j+1:]``, so the next round re-QRs the *tiny*
    reduced matrix ``R[j:, j+1:]`` (at most ``k x k``) in the coordinate
    frame ``Q[:, j:]`` instead of touching length-``n`` vectors again
    (sharpy's block-Arnoldi idiom).  The deflated column's numerically
    arbitrary residual direction never joins the accepted basis; it
    survives only as a coordinate direction later candidates may still
    have genuine components along — exactly the column-wise semantics,
    where the deflated remainder is discarded but its direction is not
    subtracted from anybody.

    Parameters
    ----------
    W:
        ``n x k`` candidate block, already projected against any initial
        basis (columns need not be normalised).
    orig_norms:
        Per-candidate norms *before* the initial-basis projection — the
        reference scale of the relative deflation test.
    deflation_tol:
        Relative deflation tolerance.
    require_full_rank:
        Raise :class:`DeflationError` (naming the first deflated input
        column) instead of dropping columns.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The ``n x r`` orthonormal basis of the accepted candidates and a
        length-``k`` boolean mask flagging the deflated columns, in input
        order.
    """
    n, k = W.shape
    deflated = np.zeros(k, dtype=bool)
    if k == 0:
        return np.empty((n, 0), dtype=W.dtype), deflated

    # One length-n QR judges the whole block; everything after the first
    # deflation happens in the factorisation's own (<= k-dimensional)
    # coordinates, so extra deflations cost tiny QRs, not vector work.
    Q1, R1 = scipy.linalg.qr(W, mode="economic", check_finite=False)
    j1 = min(n, k)
    diag = np.abs(np.diag(R1))
    failing = np.flatnonzero(diag <= deflation_tol * orig_norms[:j1])
    if failing.size == 0:
        if k > j1:
            # More candidates than rows with the first j1 all accepted:
            # the space is full, the overflow columns deflate exactly.
            if require_full_rank:
                raise DeflationError(
                    f"candidate column {j1} is linearly dependent on "
                    "the basis")
            deflated[j1:] = True
        return np.ascontiguousarray(Q1[:, :j1]), deflated

    first = int(failing[0])
    if require_full_rank:
        raise DeflationError(
            f"candidate column {first} is linearly dependent on the basis")
    # Deflations confirmed this round: the first failing column (all its
    # predecessors just got accepted), plus every later failing column
    # whose residual against the accepted span *alone* — rows first..j1
    # of R, i.e. the component orthogonal to all accepted directions —
    # is already below tolerance.  That subset test is sound (the true
    # accepted-predecessor span is a superset, so the true residual is
    # smaller still) and collapses the common deflation runs into one
    # round instead of one round per deflated column.
    tail = np.linalg.norm(R1[first:j1, :], axis=0)
    certain = failing[tail[failing] <= deflation_tol * orig_norms[failing]]
    deflated[certain] = True
    # Small-coordinate state: the undecided candidates' components
    # orthogonal to the accepted prefix are Q1[:, first:j1] @ M.
    # ``small_frame`` tracks the current reduced frame inside those j1
    # coordinates; accepted later columns are collected in j1
    # coordinates and lifted with one final GEMM.
    prefix = first                      # leading Q1 columns accepted
    small_frame = np.eye(j1, dtype=W.dtype)[:, first:j1]
    keep = np.flatnonzero(~deflated[first:k]) + first
    M = R1[first:j1, keep]
    cols = keep
    small_accepted: list[np.ndarray] = []
    while M.shape[1]:
        r_dim, kk = M.shape
        if r_dim == 0:
            # The ambient space is exhausted: every remaining candidate
            # lies in the accepted span and deflates.
            deflated[cols] = True
            break
        Qs, Rs = scipy.linalg.qr(M, mode="economic", check_finite=False)
        judged = min(r_dim, kk)
        diag = np.abs(np.diag(Rs))
        failing = np.flatnonzero(
            diag <= deflation_tol * orig_norms[cols[:judged]])
        if failing.size == 0:
            small_accepted.append(small_frame @ Qs[:, :judged])
            if kk > judged:
                deflated[cols[judged:]] = True
            break
        f = int(failing[0])
        tail = np.linalg.norm(Rs[f:judged, :], axis=0)
        certain = failing[
            tail[failing] <= deflation_tol * orig_norms[cols[failing]]]
        deflated[cols[f]] = True
        deflated[cols[certain]] = True
        if f:
            small_accepted.append(small_frame @ Qs[:, :f])
        small_frame = small_frame @ Qs[:, f:judged]
        keep_mask = np.ones(kk, dtype=bool)
        keep_mask[:f + 1] = False
        keep_mask[certain] = False
        M = Rs[f:judged, keep_mask]
        cols = cols[keep_mask]

    parts: list[np.ndarray] = []
    if prefix:
        parts.append(Q1[:, :prefix])
    if small_accepted:
        S = (small_accepted[0] if len(small_accepted) == 1
             else np.hstack(small_accepted))
        parts.append(Q1[:, :j1] @ S)
    if not parts:
        return np.empty((n, 0), dtype=W.dtype), deflated
    basis = parts[0] if len(parts) == 1 else np.hstack(parts)
    return np.ascontiguousarray(basis), deflated


def block_orthonormalize(
    candidates: np.ndarray,
    *,
    initial_basis: np.ndarray | None = None,
    deflation_tol: float = DEFAULT_DEFLATION_TOL,
    reorthogonalize: bool = True,
    require_full_rank: bool = False,
) -> tuple[np.ndarray, OrthoStats]:
    """Orthonormalise a whole candidate block with BLAS-3 kernels.

    The blocked counterpart of :func:`modified_gram_schmidt`: the entire
    block is projected against ``initial_basis`` with two classical
    Gram-Schmidt sweeps (each sweep is two GEMMs, ``S = Q^H W`` and
    ``W -= Q S``), then screened for linear dependence with an *unpivoted*
    Householder QR — ``|R[j, j]|`` is candidate ``j``'s residual against
    its predecessors in input order, which is exactly the column-wise
    remainder test (column pivoting must NOT be added here: it would
    permute the diagonal out of input order).  When no diagonal entry
    falls below the deflation floor — the overwhelmingly common case for
    healthy Krylov blocks — the economic ``Q`` *is* the result: same
    decisions, same operation counts, pure LAPACK/BLAS-3 instead of a
    Python loop of BLAS-2 calls.

    When the screen finds a deflation, only the deflated column is
    dropped (:func:`_rank_revealing_qr`): every decision before the first
    failing diagonal is exactly the column-wise one, and a single QR of a
    deflating block cannot be trusted *past* that point — the deflated
    candidate's numerically arbitrary residual direction contaminates
    every later diagonal entry.  So the survivors are re-judged in the
    reduced coordinates the factorisation already provides
    (``R[j:, j+1:]`` in the frame ``Q[:, j:]``): each additional
    deflation costs one at-most-``k x k`` QR, never another pass over
    length-``n`` vectors.  That reproduces the column-wise kernel's
    decisions, deflation counts, spans and ROM sizes (up to roundoff on
    genuinely borderline candidates, the same caveat the deflation-free
    fast path always had) while staying entirely inside LAPACK — the
    deflation-heavy merges of multipoint and partitioned reductions keep
    the blocked speedup instead of falling back to a column-wise rerun.

    Parameters
    ----------
    candidates:
        ``n x k`` matrix whose columns are to be orthonormalised.
    initial_basis:
        Optional ``n x j`` matrix of already-orthonormal columns the new
        vectors must also be orthogonal to.  The returned basis *excludes*
        these columns.
    deflation_tol:
        Relative deflation tolerance (residual vs. original column norm).
    reorthogonalize:
        Run the second CGS sweep against ``initial_basis`` ("twice is
        enough"); the intra-block Householder QR needs no second sweep.
    require_full_rank:
        Raise :class:`DeflationError` if any candidate deflates.

    Returns
    -------
    (numpy.ndarray, OrthoStats)
        The new orthonormal columns (``n x r`` with ``r <= k``) and
        operation counts equivalent to the column-wise kernel's (see
        module docstring).
    """
    cand = np.asarray(candidates)
    if not np.iscomplexobj(cand):
        cand = cand.astype(float)
    if cand.ndim == 1:
        cand = cand.reshape(-1, 1)
    n, k = cand.shape

    init = None
    n_existing = 0
    if initial_basis is not None and np.asarray(initial_basis).size:
        init = np.asarray(initial_basis)
        if init.ndim == 1:
            init = init.reshape(-1, 1)
        if init.shape[0] != n:
            raise ValueError(
                f"initial basis has {init.shape[0]} rows, candidates have {n}"
            )
        n_existing = init.shape[1]

    dtype = complex if (np.iscomplexobj(cand)
                        or (init is not None and np.iscomplexobj(init))) \
        else float
    if k == 0:
        return np.empty((n, 0), dtype=dtype), OrthoStats()

    orig_norms = np.linalg.norm(cand, axis=0)
    if n_existing:
        W = np.array(cand, dtype=dtype)
        passes = 2 if reorthogonalize else 1
        for _ in range(passes):
            W -= init @ (init.conj().T @ W)
    else:
        # No projection to apply: the QR below never mutates its input,
        # so the candidates need no defensive copy.
        W = np.asarray(cand, dtype=dtype)

    basis, deflated = _rank_revealing_qr(
        W, orig_norms, deflation_tol, require_full_rank=require_full_rank)
    stats = _columnwise_equivalent_stats(orig_norms, deflated, n_existing,
                                         reorthogonalize)
    basis = np.asarray(basis, dtype=dtype)
    if health_enabled() and basis.shape[1] and _should_probe(init):
        # Probe the *merged* basis — new columns must stay orthogonal to
        # the initial basis too, which is exactly what a broken CGS2
        # projection loses.  Every blocked merge funnels through here
        # (PRIMA splits, BDSM cluster merges, recycle absorbs), so this
        # one hook covers them all.  Subsample before stacking so wide
        # merges never pay a full-basis copy for the probe.
        total = n_existing + basis.shape[1]
        if init is None:
            merged = basis
        elif total <= HEALTH_LOSS_COLUMNS:
            merged = np.hstack([init, basis])
        else:
            idx = np.unique(np.linspace(0, total - 1, HEALTH_LOSS_COLUMNS)
                            .round().astype(int))
            merged = np.column_stack(
                [init[:, i] if i < n_existing else basis[:, i - n_existing]
                 for i in idx])
        default_health().record(
            "ortho.loss", orthogonality_loss(merged),
            detail=f"n={n} columns={total} "
                   f"deflated={stats.deflations}")
    return basis, stats


def _should_probe(init) -> bool:
    """Sampling policy of the ortho.loss probe (monitors enabled only).

    Merges against an existing basis (``init`` given) are always probed:
    cross-basis CGS2 is where orthogonality actually breaks, and those
    merges are few (multipoint points, recycle absorptions).  Fresh QR
    factorisations (``init is None`` — e.g. one per BDSM port cluster)
    rarely drift, so only every :data:`HEALTH_FRESH_PROBE_EVERY`-th is
    probed; this is what keeps the monitors-enabled reduce inside the
    ``health_overhead`` 5% budget on cluster-heavy reduces.
    """
    if init is not None:
        return True
    global _fresh_probe_count
    _fresh_probe_count += 1
    return (_fresh_probe_count - 1) % HEALTH_FRESH_PROBE_EVERY == 0


def theoretical_inner_products(m: int, l: int, *, clustered: bool) -> int:
    """Long-vector inner-product count predicted by the paper (Sec. III-B).

    Parameters
    ----------
    m:
        Number of input ports.
    l:
        Number of matched moments (Krylov order).
    clustered:
        ``True`` for the BDSM clustered orthonormalisation
        (``m * l * (l - 1) / 2``), ``False`` for PRIMA's global
        orthonormalisation (``m * l * (m * l - 1) / 2``).

    Notes
    -----
    The counts ignore re-orthogonalisation sweeps; the measured counts in
    :class:`OrthoStats` are therefore roughly twice these values when
    re-orthogonalisation is enabled.  The *ratio* between PRIMA and BDSM,
    which is the paper's claim, is unaffected.
    """
    if m < 0 or l < 0:
        raise ValueError("m and l must be non-negative")
    if clustered:
        return m * (l * (l - 1)) // 2
    q = m * l
    return (q * (q - 1)) // 2
