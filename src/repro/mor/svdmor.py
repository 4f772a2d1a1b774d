"""SVDMOR: terminal reduction by SVD, then PRIMA on the thin system.

Implements the terminal-reduction baseline of the paper's Table I/II
(reference [11], Feldmann).  The idea: when the port responses are strongly
correlated, the ``p x m`` transfer matrix is approximately low rank, so one
can compress the terminals first,

    H(s) ~= U_l * Hhat(s) * U_r^T,     Hhat(s) in C^{phat x mhat},

with ``phat = round(alpha * p)`` and ``mhat = round(alpha * m)`` (``alpha``
is the port-compression ratio, 0.6 in the paper's experiments), and then
reduce the much thinner system ``(C, G, B U_r, U_l^T L)`` with PRIMA.

The correlation basis ``U_l, U_r`` is taken from the SVD of the DC moment
``M0 = L (s0 C - G)^{-1} B``, which is the standard SVDMOR choice.  Because
only the *approximated* transfer matrix's moments are matched, terminal
reduction is error-prone — exactly the inaccuracy Fig. 5(b) shows and that
BDSM avoids.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ReductionError
from repro.linalg.backends import SolverOptions
from repro.linalg.krylov import ShiftedOperator, block_krylov_basis
from repro.linalg.orthogonalization import DEFAULT_DEFLATION_TOL
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ReducedSystem, ResourceBudget
from repro.mor.prima import congruence_project

__all__ = ["svdmor_reduce", "terminal_compression_basis"]


def terminal_compression_basis(system, alpha: float, *, s0: complex = 0.0,
                               solver: SolverOptions | None = None,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Compute the terminal-compression bases ``(U_l, U_r)`` from ``M0``.

    Parameters
    ----------
    system:
        Descriptor model exposing ``C, G, B, L``.
    alpha:
        Port compression ratio in ``(0, 1]``; the compressed port counts are
        ``max(1, round(alpha * p))`` and ``max(1, round(alpha * m))``.
    s0:
        Expansion point at which the correlation moment is evaluated.

    Returns
    -------
    (U_l, U_r)
        Column-orthonormal bases of sizes ``p x phat`` and ``m x mhat``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ReductionError(f"alpha must lie in (0, 1], got {alpha}")
    operator = ShiftedOperator(system.C, system.G, s0=s0, solver=solver)
    B = to_csr(system.B)
    L = to_csr(system.L)
    X = np.asarray(operator.solve(B.toarray()), dtype=float)
    M0 = np.asarray(L @ X, dtype=float)
    p, m = M0.shape
    phat = max(1, int(round(alpha * p)))
    mhat = max(1, int(round(alpha * m)))
    U, _sigma, Vt = np.linalg.svd(M0, full_matrices=False)
    rank = _sigma.shape[0]
    phat = min(phat, rank)
    mhat = min(mhat, rank)
    return U[:, :phat], Vt[:mhat, :].T


def svdmor_reduce(system, n_moments: int, *, alpha: float = 0.6,
                  s0: complex = 0.0,
                  budget: ResourceBudget | None = None,
                  keep_projection: bool = False,
                  deflation_tol: float = DEFAULT_DEFLATION_TOL,
                  solver: SolverOptions | None = None):
    """Reduce ``system`` with SVDMOR at port-compression ratio ``alpha``.

    The returned :class:`~repro.mor.base.ReducedSystem` is expressed back in
    the *original* terminal space (its ``B_r`` has ``m`` columns and its
    ``L_r`` has ``p`` rows) so that its transfer matrix can be compared
    entrywise against the full model and the other ROMs.  Its state dimension
    is ``mhat * n_moments`` as in Table II's "ROM size" column.

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
        The ROM, the orthonormalisation counts of the inner PRIMA run, and
        the wall-clock build time (including the correlation SVD).
    """
    if n_moments < 1:
        raise ReductionError("n_moments must be >= 1")
    budget = budget or ResourceBudget.unlimited()
    n = system.C.shape[0]
    m = system.B.shape[1]
    p = system.L.shape[0]
    mhat_estimate = max(1, int(round(alpha * m)))
    q_expected = mhat_estimate * n_moments
    budget.check_dense(n, q_expected, what="SVDMOR projection basis")
    budget.check_dense(q_expected, 2 * q_expected, what="SVDMOR dense ROM")
    budget.check_dense(n, m, what="SVDMOR correlation moment solve")

    start = time.perf_counter()
    U_l, U_r = terminal_compression_basis(system, alpha, s0=s0,
                                          solver=solver)

    B_thin = to_csr(system.B).toarray() @ U_r
    L_thin = U_l.T @ to_csr(system.L).toarray()

    class _ThinSystem:
        """Descriptor view with compressed terminals (internal helper)."""

        C = system.C
        G = system.G
        B = B_thin
        L = L_thin
        const_input = getattr(system, "const_input", None)
        name = getattr(system, "name", "system")

    operator = ShiftedOperator(system.C, system.G, s0=s0, solver=solver)
    krylov = block_krylov_basis(operator, B_thin, n_moments,
                                deflation_tol=deflation_tol)
    thin_rom = congruence_project(
        _ThinSystem(), krylov.basis, method="SVDMOR", s0=s0,
        n_moments=n_moments, reusable=True, keep_projection=keep_projection)

    # Map the thin ROM back to the original terminals:
    # H(s) ~= U_l * Hhat_r(s) * U_r^T.
    rom = ReducedSystem(
        C=thin_rom.C, G=thin_rom.G,
        B=thin_rom.B @ U_r.T,
        L=U_l @ thin_rom.L,
        projection=thin_rom.projection if keep_projection else None,
        method="SVDMOR", s0=s0, n_moments=n_moments, reusable=True,
        original_size=n, original_ports=m,
        name=f"{getattr(system, 'name', 'system')}-SVDMOR",
    )
    rom.terminal_bases = (U_l, U_r)  # type: ignore[attr-defined]
    elapsed = time.perf_counter() - start
    return rom, krylov.stats, elapsed
