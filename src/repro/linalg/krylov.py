"""(Block) Krylov subspace construction for descriptor systems.

All moment-matching reducers in this library (PRIMA, EKS, BDSM) build bases
of the Krylov subspace

    K_l(A, R) = span{R, A R, A^2 R, ..., A^{l-1} R},
    A = (s0*C - G)^{-1} C,     R = (s0*C - G)^{-1} B,

around an expansion point ``s0``.  The expensive pieces — one sparse LU of
``(s0*C - G)`` and repeated triangular solves — are shared here through
:class:`ShiftedOperator` so the reducers differ only in *how the candidate
vectors are orthonormalised* (globally for PRIMA, clustered per input column
for BDSM), which is exactly the distinction the paper draws in Fig. 2.

There is one driver per scheme, :func:`block_krylov_basis` and
:func:`column_clustered_krylov_bases`.  Each accumulates its basis in a
:class:`~repro.linalg.recycle.RecycleWorkspace`: a fresh one by default,
or a caller's workspace carried across expansion points.  Every Krylov
step first screens the candidates against the workspace's frozen
(recycled) prefix — a no-op for a fresh workspace — so already-captured
directions leave the recursion before their shifted solves are spent; the
survivors are absorbed with the blocked BLAS-3 kernel, complex candidates
split into real and imaginary parts so every basis is real.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DeflationError, ReductionError
from repro.obs.tracing import trace_span
from repro.linalg.backends import (
    FactorizationCache,
    SolverOptions,
    get_solver,
    matrix_fingerprint,
)
from repro.linalg.orthogonalization import DEFAULT_DEFLATION_TOL, OrthoStats
from repro.linalg.recycle import RecycleWorkspace
from repro.linalg.sparse_utils import to_csr

__all__ = [
    "ShiftedOperator",
    "KrylovResult",
    "block_krylov_basis",
    "column_clustered_krylov_bases",
    "krylov_candidate_blocks",
]


class ShiftedOperator:
    """Applies ``(s0*C - G)^{-1}`` and ``(s0*C - G)^{-1} C`` efficiently.

    Parameters
    ----------
    C, G:
        The descriptor matrices (sparse or dense, ``n x n``).
    s0:
        Expansion point.  Real non-negative values are typical for power-grid
        reduction (the paper uses a single real point); complex values are
        supported for multipoint/rational extensions.
    solver:
        Optional :class:`~repro.linalg.backends.SolverOptions` choosing the
        backend used for the pencil (auto-selected by default).
    cache:
        Optional explicit :class:`~repro.linalg.backends.FactorizationCache`;
        by default the process-wide cache is consulted, keyed on
        ``(pencil fingerprint, s0)``, so operators built repeatedly on the
        same pencil (multipoint sweeps, repeated reductions, IR-drop after a
        reduction) share one factorisation.

    Notes
    -----
    The shifted pencil is prepared once through the backend registry
    (sparse LU for a generic pencil, Cholesky-style for SPD RC pencils,
    dense LAPACK for tiny reduced pencils, CG/GMRES above the iterative
    threshold).  ``solve`` then handles whole right-hand-side blocks at
    once, matching Algorithm 1 step 2/4.1 of the paper.
    """

    def __init__(self, C, G, s0: complex = 0.0, *,
                 solver: SolverOptions | None = None,
                 cache: FactorizationCache | None = None) -> None:
        self.C = to_csr(C)
        self.G = to_csr(G)
        if self.C.shape != self.G.shape:
            raise ReductionError(
                f"C and G must have identical shapes, got {self.C.shape} "
                f"and {self.G.shape}"
            )
        if self.C.shape[0] != self.C.shape[1]:
            raise ReductionError("C and G must be square")
        self.s0 = complex(s0)
        self.n = self.C.shape[0]
        self._real = self.s0.imag == 0.0
        if self._real:
            pencil = (self.s0.real * self.C - self.G).tocsc()
        else:
            pencil = (self.s0 * self.C.astype(complex)
                      - self.G.astype(complex)).tocsc()
        self.solver_options = solver or SolverOptions()
        self._solver = get_solver(
            pencil, options=self.solver_options, cache=cache,
            key=(matrix_fingerprint(pencil), self.s0))
        self._solve_count = 0
        # Port chunks fanned over a thread pool share one operator per
        # shift; the lock keeps the solve tally exact under that fan-out.
        self._count_lock = threading.Lock()

    @property
    def solve_count(self) -> int:
        """Number of right-hand-side columns solved so far."""
        return self._solve_count

    @property
    def backend_name(self) -> str:
        """Registry name of the backend solving this pencil."""
        return self._solver.name

    def solve(self, rhs) -> np.ndarray:
        """Solve ``(s0*C - G) X = rhs`` for a vector or a whole block.

        The backend handles densification and dtype casting; only the row
        check happens here so shape mistakes keep raising the library's
        :class:`ReductionError`.
        """
        if not hasattr(rhs, "shape"):
            rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ReductionError(
                f"right-hand side has {rhs.shape[0]} rows, expected {self.n}"
            )
        with trace_span("linalg.solve", backend=self._solver.name,
                        columns=1 if rhs.ndim == 1 else rhs.shape[1]):
            out = self._solver.solve(rhs)
        with self._count_lock:
            self._solve_count += 1 if out.ndim == 1 else out.shape[1]
        return out

    def apply(self, X) -> np.ndarray:
        """Apply the Krylov operator ``A = (s0*C - G)^{-1} C`` to ``X``."""
        product = self.C @ (X.toarray() if sp.issparse(X) else np.asarray(X))
        return self.solve(product)

    def starting_block(self, B) -> np.ndarray:
        """Return the normalised starting block ``(s0*C - G)^{-1} B``."""
        return self.solve(B)


@dataclass
class KrylovResult:
    """Result of a Krylov basis construction.

    Attributes
    ----------
    basis:
        ``n x q`` real matrix with orthonormal columns: the columns this
        build added to its workspace (the whole subspace unless a
        workspace carried over from earlier shifts was passed).
    stats:
        Orthonormalisation operation counts (see :class:`OrthoStats`).
    moments_requested:
        Krylov order ``l`` that was requested.
    deflated:
        ``True`` when at least one candidate vector was dropped.
    per_block_sizes:
        For clustered construction, the number of columns retained per input
        column; for block construction, a single-element list.
    """

    basis: np.ndarray
    stats: OrthoStats
    moments_requested: int
    deflated: bool = False
    per_block_sizes: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of columns in the basis (the eventual ROM order share)."""
        return int(self.basis.shape[1])


def krylov_candidate_blocks(operator: ShiftedOperator, B, order: int,
                            ) -> list[np.ndarray]:
    """Return the raw candidate blocks ``M_j`` of Fig. 2 (unorthogonalised).

    ``M_1 = (s0 C - G)^{-1} B`` and ``M_{j+1} = (s0 C - G)^{-1} C M_j``.
    Mostly useful for tests and for illustrating the clustering step.
    """
    if order < 1:
        raise ValueError("Krylov order must be >= 1")
    blocks = [np.asarray(operator.starting_block(B))]
    for _ in range(order - 1):
        blocks.append(np.asarray(operator.apply(blocks[-1])))
    return blocks


def _as_block(X) -> np.ndarray:
    X = np.asarray(X)
    return X.reshape(-1, 1) if X.ndim == 1 else X


def block_krylov_basis(
    operator: ShiftedOperator,
    B,
    order: int,
    *,
    deflation_tol: float = DEFAULT_DEFLATION_TOL,
    require_full_rank: bool = False,
    workspace: RecycleWorkspace | None = None,
) -> KrylovResult:
    """Construct an orthonormal basis of the block Krylov subspace (PRIMA-style).

    All candidate vectors are orthonormalised against *every* previously
    accepted vector, which is the global (unclustered) scheme whose cost the
    paper attributes to PRIMA.  Each step block goes through one BLAS-3
    :func:`~repro.linalg.orthogonalization.block_orthonormalize` call, and
    the operator is applied to the *raw* candidates of the step.

    Parameters
    ----------
    operator:
        Pre-factorised :class:`ShiftedOperator`.
    B:
        ``n x m`` input matrix (dense or sparse).
    order:
        Number of moments ``l`` to match.
    deflation_tol:
        Relative tolerance for dropping linearly dependent candidates.
    require_full_rank:
        Raise :class:`DeflationError` instead of dropping candidates.
    workspace:
        Optional :class:`~repro.linalg.recycle.RecycleWorkspace` carried
        across expansion points (call its ``begin_shift`` before each
        shift).  Every step block is screened against its frozen prefix
        first; a hit leaves the recursion, saving ``order - 1 - step``
        shifted solves.  By default a fresh workspace is used, so nothing
        screens and the build is the from-scratch one.
    """
    if order < 1:
        raise ValueError("Krylov order must be >= 1")
    ws = workspace if workspace is not None else RecycleWorkspace(operator.n)
    start = ws.size
    stats = OrthoStats()
    hit = False
    current = _as_block(operator.starting_block(B))
    for step in range(order):
        keep = ws.screen(current)
        if not keep.all():
            hit = True
            ws.stats.solves_skipped += (
                int(keep.size - np.count_nonzero(keep)) * (order - 1 - step))
            current = current[:, keep]
        ws.absorb(current, stats, deflation_tol=deflation_tol,
                  require_full_rank=require_full_rank)
        if step == order - 1 or not current.shape[1]:
            break
        if not ws.size:
            raise DeflationError(
                "Krylov construction produced an empty basis; the input "
                "matrix B is (numerically) zero"
            )
        current = _as_block(operator.apply(current))

    if not ws.size:
        raise DeflationError("block Krylov basis is empty")
    basis = ws.basis[:, start:]
    return KrylovResult(
        basis=basis,
        stats=stats,
        moments_requested=order,
        deflated=hit or stats.deflations > 0,
        per_block_sizes=[int(basis.shape[1])],
    )


def column_clustered_krylov_bases(
    operator: ShiftedOperator,
    B,
    order: int,
    *,
    deflation_tol: float = DEFAULT_DEFLATION_TOL,
    columns: list[int] | None = None,
    workspaces: list[RecycleWorkspace] | None = None,
) -> tuple[list[np.ndarray], OrthoStats, bool]:
    """Construct one thin Krylov basis per input column (BDSM clustering).

    This is the "cluster vectors, then orthonormalise each group" flow of
    Fig. 2 and Algorithm 1: the candidate blocks ``M_j`` are computed for the
    whole input matrix at once (sharing the sparse solves), but column ``i``
    of every ``M_j`` is orthonormalised only against the previous vectors of
    *its own* group ``V^(i)``.  Each group's candidates are gathered into one
    ``n x l`` block and absorbed with a single BLAS-3 call.  All candidate
    blocks are held at once (``n x len(columns) x l`` floats) — chunk the
    columns (as :func:`~repro.core.bdsm.bdsm_reduce` does) to bound memory
    on very wide systems.

    Parameters
    ----------
    operator:
        Pre-factorised :class:`ShiftedOperator`.
    B:
        ``n x m`` input matrix.
    order:
        Number of moments ``l`` per column.
    deflation_tol:
        Relative deflation tolerance inside each group.
    columns:
        Optional subset of column indices to build bases for (default: all).
    workspaces:
        Optional per-column :class:`~repro.linalg.recycle.RecycleWorkspace`
        list, carried across expansion points (call ``begin_shift`` on
        each before each shift).  Every step screens each column against
        its own workspace's frozen prefix; a hit drops that column out of
        the shared recursion, so one captured port does not stall the
        others.  By default fresh workspaces are used and nothing screens.

    Returns
    -------
    (bases, stats, deflated)
        ``bases[i]`` is the ``n x l_i`` real orthonormal basis this build
        added for the selected column ``i`` (``l_i <= order`` at a real
        shift if deflation occurred, ``<= 2 * order`` at a complex one),
        ``stats`` aggregates the orthonormalisation counts over all groups,
        and ``deflated`` flags whether any group lost a vector.
    """
    if order < 1:
        raise ValueError("Krylov order must be >= 1")
    B_dense = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    if B_dense.ndim == 1:
        B_dense = B_dense.reshape(-1, 1)
    m = B_dense.shape[1]
    selected = list(range(m)) if columns is None else list(columns)
    for i in selected:
        if not 0 <= i < m:
            raise ValueError(f"column index {i} out of range for m={m}")
    if workspaces is None:
        workspaces = [RecycleWorkspace(operator.n) for _ in selected]
    elif len(workspaces) != len(selected):
        raise ValueError("need exactly one workspace per selected column")

    starts = [ws.size for ws in workspaces]
    stats = OrthoStats()
    hit = False
    groups: list[list[np.ndarray]] = [[] for _ in selected]
    # Shared candidate recursion over all selected columns at once: this is
    # what makes BDSM no more expensive than PRIMA in solves (Algorithm 1).
    # ``active`` maps each column of ``current`` to its group.
    active = list(range(len(selected)))
    current = _as_block(operator.starting_block(B_dense[:, selected]))
    for step in range(order):
        survivors: list[int] = []
        for pos, group in enumerate(active):
            ws = workspaces[group]
            if ws.screen(current[:, pos])[0]:
                groups[group].append(current[:, pos])
                survivors.append(pos)
            else:
                # Recycled hit: this port's direction is already captured,
                # so its remaining moments' solves are skipped.
                hit = True
                ws.stats.solves_skipped += order - 1 - step
        if step == order - 1 or not survivors:
            break
        if len(survivors) < len(active):
            active = [active[pos] for pos in survivors]
            current = current[:, survivors]
        current = _as_block(operator.apply(current))

    for group, ws in enumerate(workspaces):
        if groups[group]:
            ws.absorb(np.column_stack(groups[group]), stats,
                      deflation_tol=deflation_tol)
        if not ws.size:
            raise DeflationError(
                f"input column {selected[group]} produced an empty Krylov "
                "basis (zero column in B?)"
            )
    bases = [ws.basis[:, start:] for ws, start in zip(workspaces, starts)]
    return bases, stats, hit or stats.deflations > 0
