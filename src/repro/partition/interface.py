"""Interface (separator) reduction for partitioned descriptor systems.

PR 5's partitioned macromodel keeps every separator state exactly, so the
interface block grows with the cut instead of the accuracy target — on a
128x128 multi-domain grid the exact interface alone is ~400 states and
every shard drags ~90 promoted interface inputs through its Krylov
recursion and merge-orthonormalisation.  This module reduces the interface
the same way the shards are reduced: with a moment-matched Krylov basis.

The basis is *Schur-complement aware*.  The global Krylov recursion around
``s0``

.. code-block:: text

    x^(0) = A^{-1} B,    x^(j+1) = A^{-1} C x^(j),    A = s0*C - G

is evaluated blockwise on the bordered block-diagonal (arrowhead)
permutation of the pencil, eliminating each subdomain against the
interface Schur complement

.. code-block:: text

    S = A_ss - sum_i A_si A_ii^{-1} A_is

so the *interface components* ``x_s^(j)`` of the exact global moments come
out of per-shard solves (sharing the shard LU the reducers use anyway, via
the process-wide factorisation cache) plus one dense ``n_s x n_s``
factorisation.  The SVD-truncated span of those components is the
orthonormal interface basis ``W``.  Congruence-projecting the separator
blocks with ``W`` and compressing every shard's promoted interface inputs
from raw coupling columns to ``G_is W`` / ``C_is W``
(:func:`compress_subdomain`) is what turns the partitioned driver from a
correctness demonstration into a scaling tool: shard bases shrink by the
boundary-to-rank ratio and the assembled interface by ``n_s / r_s``.

With ``W`` spanning the interface components of the first ``l_s`` global
moments and each shard basis matched to ``l`` moments of its compressed
inputs, the assembled macromodel matches ``min(l, l_s)`` block moments of
the coupled response (the PRIMA containment argument applies blockwise to
``blkdiag(V_1, ..., V_k, W)``); ``interface_order=None`` keeps the PR 5
exact-interface path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.circuit.mna import DescriptorSystem
from repro.exceptions import PartitionError
from repro.linalg.krylov import ShiftedOperator
from repro.obs.health import health_enabled, record_health
from repro.partition.extract import SeparatorBlock, Subdomain

__all__ = [
    "PartitionedOptions",
    "InterfaceBasis",
    "interface_krylov_basis",
    "compress_subdomain",
]

#: Default relative SVD truncation tolerance of the interface basis.
DEFAULT_INTERFACE_TOL = 1e-8

#: Port blocks wider than this are sketched down before the interface
#: moment recursion (see :func:`interface_krylov_basis`).  The floor is
#: sized so that recursive (multilevel) calls — whose shards see the full
#: port block of the parent — keep enough sketch columns to hold the
#: partitioned-vs-monolithic TF error inside the default 5e-2 budget on
#: grids up to ~256x256 with a few thousand ports; 96 columns lose an
#: order of magnitude of accuracy at that scale.
INTERFACE_SKETCH_COLUMNS = 256

#: Deterministic seed of the sketch mixing matrix — fixed so identical
#: inputs always produce identical bases (and therefore stable store keys).
_SKETCH_SEED = 20110314


@dataclass(frozen=True)
class PartitionedOptions:
    """Partition-layer accuracy knobs (the interface error budget).

    Attributes
    ----------
    interface_order:
        Number of global block moments whose interface components the
        separator basis must span (``l_s``).  ``None`` (default) preserves
        the interface exactly — the PR 5 behaviour.  The assembled
        macromodel matches ``min(n_moments, interface_order)`` coupled
        moments, so matching the shard order is the natural choice.
    interface_tol:
        Relative SVD truncation tolerance splitting the error budget:
        singular directions of the stacked (per-moment normalised)
        interface components below ``interface_tol * sigma_max`` are
        dropped.  Tighter keeps more interface states; ``0`` keeps every
        numerically independent direction.
    """

    interface_order: int | None = None
    interface_tol: float = DEFAULT_INTERFACE_TOL

    def __post_init__(self) -> None:
        if self.interface_order is not None and self.interface_order < 1:
            raise PartitionError(
                "interface_order must be >= 1 (or None for an exact "
                "interface)")
        if not 0.0 <= float(self.interface_tol) < 1.0:
            raise PartitionError(
                "interface_tol must be in [0, 1)")

    @property
    def reduces_interface(self) -> bool:
        """True when these options actually reduce the separator."""
        return self.interface_order is not None

    def describe(self) -> dict[str, object]:
        """Canonical JSON-ready record (also used in store keys)."""
        return {
            "interface_order": (None if self.interface_order is None
                                else int(self.interface_order)),
            "interface_tol": float(self.interface_tol),
        }


@dataclass(frozen=True)
class InterfaceBasis:
    """Orthonormal separator basis plus construction diagnostics.

    Attributes
    ----------
    W:
        ``n_s x r_s`` orthonormal basis of the interface components of the
        global Krylov moments.
    order:
        Number of global moments spanned (``l_s``).
    tol:
        Relative SVD truncation tolerance that produced ``W``.
    candidates:
        Stacked candidate columns before truncation (``l_s * m``).
    singular_values:
        Singular values of the normalised candidate stack (diagnostic —
        their decay shows how compressible the interface is).
    """

    W: np.ndarray
    order: int
    tol: float
    candidates: int
    singular_values: np.ndarray

    @property
    def n_s(self) -> int:
        """Original separator size."""
        return int(self.W.shape[0])

    @property
    def size(self) -> int:
        """Retained interface order ``r_s``."""
        return int(self.W.shape[1])


def interface_krylov_basis(subdomains: list[Subdomain],
                           separator: SeparatorBlock, order: int, *,
                           s0: complex = 0.0,
                           tol: float = DEFAULT_INTERFACE_TOL,
                           ) -> InterfaceBasis:
    """Schur-complement-aware Krylov basis on the separator states.

    Computes the interface components ``x_s^(j)`` of the first ``order``
    *global* block Krylov moments by block elimination on the arrowhead
    permutation — per-shard sparse solves (through the same cached
    :class:`~repro.linalg.krylov.ShiftedOperator` factorisations the shard
    reducers use) coupled by one dense interface Schur complement — then
    orthonormalises their span with an SVD truncated at relative ``tol``.

    Each moment block is Frobenius-normalised before stacking: raw moment
    magnitudes grow geometrically with the grid's time constants, and an
    unnormalised SVD would drown the DC directions that dominate the
    response.

    Parameters
    ----------
    subdomains, separator:
        The extraction of one partition level
        (:func:`~repro.partition.extract.extract_subdomains`).
    order:
        Number of global moments to span (``>= 1``).
    s0:
        Expansion point (must match the shard reductions).
    tol:
        Relative SVD truncation tolerance.
    """
    if order < 1:
        raise PartitionError("interface basis order must be >= 1")
    n_s = separator.size
    m = int(separator.B.shape[1])
    if n_s == 0:
        return InterfaceBasis(W=np.zeros((0, 0)), order=order,
                              tol=float(tol), candidates=0,
                              singular_values=np.zeros(0))

    complex_point = complex(s0).imag != 0.0
    dtype = complex if complex_point else float

    # Per-shard pieces of the arrowhead elimination.  The off-diagonal
    # pencil blocks only touch each shard's boundary columns, so the
    # eliminated coupling X_E_i = A_ii^{-1} A_is is stored on that slice.
    operators: list[ShiftedOperator] = []
    X_E: list[np.ndarray] = []
    A_si: list[sp.csr_matrix] = []
    boundaries: list[np.ndarray] = []
    shift = complex(s0) if complex_point else complex(s0).real
    S = (shift * separator.C - separator.G).toarray().astype(dtype)
    for sub in subdomains:
        op = ShiftedOperator(sub.system.C, sub.system.G, s0=s0)
        operators.append(op)
        boundary = np.asarray(sub.boundary, dtype=np.int64)
        boundaries.append(boundary)
        coupling = (shift * sub.C_si - sub.G_si).tocsr()
        A_si.append(coupling)
        if boundary.size:
            A_is = shift * sub.C_is - sub.G_is
            X = np.asarray(op.solve(A_is[:, boundary].toarray()))
            if X.ndim == 1:
                X = X.reshape(-1, 1)
            X_E.append(X)
            S[:, boundary] -= np.asarray(coupling @ X)
        else:
            X_E.append(np.zeros((sub.size, 0), dtype=dtype))
    try:
        schur_lu = sla.lu_factor(S)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise PartitionError(
            f"interface Schur complement is singular at s0={s0}: {exc}"
        ) from exc

    def eliminate(y_blocks: list[np.ndarray], y_s: np.ndarray,
                  ) -> tuple[list[np.ndarray], np.ndarray]:
        """One global solve ``A x = y`` in arrowhead block form."""
        t_blocks = [np.asarray(op.solve(y_i))
                    for op, y_i in zip(operators, y_blocks)]
        r_s = y_s.astype(dtype, copy=True)
        for coupling, t_i in zip(A_si, t_blocks):
            r_s -= np.asarray(coupling @ t_i)
        try:
            x_s = sla.lu_solve(schur_lu, r_s)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise PartitionError(
                f"interface Schur solve failed at s0={s0}: {exc}") from exc
        x_blocks = []
        for t_i, X_Ei, boundary in zip(t_blocks, X_E, boundaries):
            x_i = t_i
            if boundary.size:
                x_i = t_i - X_Ei @ x_s[boundary]
            x_blocks.append(x_i)
        return x_blocks, x_s

    # Global moment recursion, interface components recorded per moment.
    # Wide port blocks are first sketched down to ``p`` deterministic
    # Gaussian mixtures: the basis only needs the *range* of the interface
    # moment components, not one recursion column per port, and every
    # shard pays one backsolve per RHS column per moment.  The sketch
    # width tracks the separator (the rank can never exceed ``n_s``), so
    # the randomized range-finder oversampling stays generous.
    p = min(m, max(INTERFACE_SKETCH_COLUMNS, min(2 * INTERFACE_SKETCH_COLUMNS,
                                                 n_s // 4)))
    omega = None
    if p < m:
        rng = np.random.default_rng(_SKETCH_SEED)
        omega = rng.standard_normal((m, p)) / np.sqrt(float(p))

    def port_block(block: sp.spmatrix) -> np.ndarray:
        dense = block.toarray() if sp.issparse(block) else np.asarray(block)
        mixed = dense if omega is None else dense @ omega
        return np.asarray(mixed, dtype=float)

    y_blocks = [port_block(sub.B_rows) for sub in subdomains]
    y_s = port_block(separator.B)
    moment_blocks: list[np.ndarray] = []
    for j in range(order):
        x_blocks, x_s = eliminate(y_blocks, y_s)
        moment_blocks.append(x_s)
        if j == order - 1:
            break
        # Next right-hand side: C x^(j), again in arrowhead block form.
        y_blocks = [
            np.asarray(sub.system.C @ x_i) + np.asarray(sub.C_is @ x_s)
            for sub, x_i in zip(subdomains, x_blocks)
        ]
        y_s = np.asarray(separator.C @ x_s)
        for sub, x_i in zip(subdomains, x_blocks):
            y_s = y_s + np.asarray(sub.C_si @ x_i)

    # Per-moment Frobenius normalisation before the rank-revealing SVD:
    # moment magnitudes scale like (1/tau)^j, so without it the later
    # moments (or the DC block, depending on tau) vanish numerically.
    normalised = []
    for block in moment_blocks:
        norm = float(np.linalg.norm(block))
        if norm > 0.0:
            normalised.append(block / norm)
    if not normalised:
        # The inputs never reach the separator (disconnected islands):
        # an empty basis drops the unreachable interface states, which
        # contribute nothing to any transfer entry.
        return InterfaceBasis(W=np.zeros((n_s, 0)), order=order,
                              tol=float(tol), candidates=order * p,
                              singular_values=np.zeros(0))
    stack = np.hstack(normalised)
    try:
        U, sv, _ = np.linalg.svd(stack, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise PartitionError(
            f"interface candidate SVD failed: {exc}") from exc
    if sv.size and sv[0] > 0.0:
        rank = int(np.count_nonzero(sv > float(tol) * sv[0]))
    else:
        rank = 0
    rank = max(rank, 1) if sv.size else 0
    W = np.ascontiguousarray(U[:, :rank])
    if health_enabled() and sv.size:
        total = float(np.sum(sv * sv))
        tail = (float(np.sqrt(np.sum(sv[rank:] ** 2) / total))
                if total > 0.0 else 0.0)
        record_health(
            "interface.svd_tail", tail,
            warn_at=10.0 * float(tol), fail_at=100.0 * float(tol),
            detail=f"rank={rank} candidates={stack.shape[1]} "
                   f"order={order}")
    return InterfaceBasis(W=W, order=order, tol=float(tol),
                          candidates=int(stack.shape[1]),
                          singular_values=sv)


def compress_subdomain(subdomain: Subdomain, basis: InterfaceBasis,
                       ) -> Subdomain:
    """Replace a shard's promoted interface inputs with their ``W`` images.

    The exact extraction promotes every structurally non-zero column of
    ``G[int, sep]`` / ``C[int, sep]`` to a shard input; once the assembled
    interface only carries ``r_s`` reduced coordinates, the shard is only
    ever driven through ``G_is W`` and ``C_is W`` — ``r_s`` columns each
    instead of one per boundary state.  The shard reducers then build
    Krylov bases for exactly the injections the reduced interface can
    produce, which is both cheaper (basis width scales with ``r_s``) and
    sufficient for the blockwise moment-matching argument.

    Own load ports are kept verbatim; the coupling blocks and input rows
    on the returned :class:`~repro.partition.extract.Subdomain` stay
    *unreduced* so the assembly stage can project them against ``W``
    directly.
    """
    system = subdomain.system
    n_own = subdomain.n_own_ports
    blocks: list[np.ndarray | sp.spmatrix] = []
    if n_own:
        blocks.append(system.B[:, :n_own])
    W = basis.W
    if subdomain.boundary.size and W.shape[1]:
        if subdomain.G_is.nnz:
            blocks.append(np.asarray(subdomain.G_is @ W))
        if subdomain.C_is.nnz:
            blocks.append(np.asarray(subdomain.C_is @ W))
    if not blocks:
        raise PartitionError(
            f"subdomain {subdomain.index} has no load ports and its "
            "interface couplings vanish under the reduced separator "
            "basis; loosen interface_tol or raise interface_order")
    B_shard = sp.hstack([sp.csr_matrix(b) for b in blocks], format="csr")
    n_iface = B_shard.shape[1] - n_own
    port_names = list(system.port_names[:n_own])
    iface_names = [f"{system.name}.wif{j}" for j in range(n_iface)]
    compressed = DescriptorSystem(
        C=system.C, G=system.G, B=B_shard, L=system.L,
        port_names=port_names + iface_names,
        output_names=list(system.output_names or []),
        name=system.name,
    )
    return replace(subdomain, system=compressed)
