"""PRIMA: passive reduced-order interconnect macromodeling algorithm.

The classic block-Arnoldi congruence projection of Odabasioglu, Celik and
Pileggi (the paper's reference [5]) and the main baseline BDSM is compared
against.  Given the descriptor model ``(C, G, B, L)`` and an expansion point
``s0``, PRIMA builds one orthonormal basis of the *block* Krylov subspace

    V = K_l( (s0 C - G)^{-1} C, (s0 C - G)^{-1} B )

and projects congruently: ``C_r = V^T C V`` etc.  The resulting size-``m*l``
ROM matches the first ``l`` block moments of ``H(s)`` but its matrices are
fully dense — the storage and simulation cost the paper's Table I/II and
Fig. 4 quantify.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ReductionError
from repro.linalg.backends import SolverOptions
from repro.linalg.krylov import ShiftedOperator, block_krylov_basis
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ReducedSystem, ResourceBudget
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import traced
from repro.perf.timers import scoped_timer

__all__ = ["prima_reduce", "prima_store_options", "congruence_project"]

#: Single source of the default deflation tolerance, shared by
#: :func:`prima_reduce` and :func:`prima_store_options` so the store key
#: the CLI predicts can never drift from the one the reducer uses.
_DEFAULT_DEFLATION_TOL = 1e-12


def congruence_project(system, V: np.ndarray, *, method: str,
                       s0: complex, n_moments: int,
                       reusable: bool = True,
                       keep_projection: bool = True) -> ReducedSystem:
    """Apply the congruence transform ``(V^T C V, V^T G V, V^T B, L V)``.

    Shared by PRIMA, SVDMOR (on the thin system), EKS and the multipoint
    reducer; BDSM uses its own block-wise variant.
    """
    V = np.asarray(V)
    if np.iscomplexobj(V):
        raise ReductionError(
            "congruence_project needs a real basis; span the real and "
            "imaginary parts of a complex basis first (the real "
            "rational-Arnoldi trick the Krylov drivers apply)")
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ReductionError("projection basis must be a 2-D array")
    C = to_csr(system.C)
    G = to_csr(system.G)
    B = to_csr(system.B)
    L = to_csr(system.L)
    if V.shape[0] != C.shape[0]:
        raise ReductionError(
            f"projection basis has {V.shape[0]} rows, system has "
            f"{C.shape[0]} states")
    Cr = V.T @ (C @ V)
    Gr = V.T @ (G @ V)
    # (B^T V)^T keeps B sparse through the product instead of densifying
    # the full n x m input block just to feed a GEMM.
    Br = np.asarray(B.T @ V).T
    Lr = (L @ V)
    Lr = Lr if isinstance(Lr, np.ndarray) else np.asarray(Lr)
    const = getattr(system, "const_input", None)
    const_r = None if const is None else V.T @ np.asarray(const).reshape(-1)
    return ReducedSystem(
        C=Cr, G=Gr, B=Br, L=Lr,
        projection=V if keep_projection else None,
        method=method, s0=s0, n_moments=n_moments, reusable=reusable,
        original_size=int(C.shape[0]), original_ports=int(B.shape[1]),
        name=f"{getattr(system, 'name', 'system')}-{method}",
        const_input=const_r,
    )


def prima_store_options(n_moments: int, *, s0: complex = 0.0,
                        deflation_tol: float = _DEFAULT_DEFLATION_TOL,
                        keep_projection: bool = False) -> dict:
    """The options record :func:`prima_reduce` memoizes under in a
    :class:`~repro.store.ModelStore` — the one true key builder, so CLI
    pre-checks (``--from-store``, ``query``) agree with the reducer."""
    return {"n_moments": int(n_moments), "s0": complex(s0),
            "deflation_tol": float(deflation_tol),
            "keep_projection": bool(keep_projection)}


@traced("prima.reduce")
def prima_reduce(system, n_moments: int, *, s0: complex = 0.0,
                 budget: ResourceBudget | None = None,
                 keep_projection: bool = False,
                 deflation_tol: float = _DEFAULT_DEFLATION_TOL,
                 solver: SolverOptions | None = None,
                 store=None):
    """Reduce ``system`` with PRIMA, matching ``n_moments`` block moments.

    Parameters
    ----------
    system:
        Object exposing ``C, G, B, L`` in the paper's convention.
    n_moments:
        Number of (block) moments ``l`` to match at ``s0``.
    s0:
        Real or complex expansion point (0 matches DC-centred moments).
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`; when the dense
        ``n x (m*l)`` basis or the dense ``(m*l) x (m*l)`` ROM would exceed
        it, :class:`~repro.exceptions.ResourceBudgetExceeded` is raised —
        this reproduces the "break down" rows of Table II.
    keep_projection:
        Store the (large, dense) projection basis on the ROM.
    deflation_tol:
        Relative tolerance for dropping linearly dependent Krylov vectors.
    solver:
        Optional :class:`~repro.linalg.backends.SolverOptions` for the
        shifted-pencil solves (backend choice, caching, iterative
        parameters).
    store:
        Optional :class:`~repro.store.ModelStore` memoizing the reduction
        across processes, keyed on the system content and ``(n_moments,
        s0, deflation_tol, keep_projection)``.  On a store hit the ROM is
        loaded instead of rebuilt (empty stats, load time returned).

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
        The ROM, the orthonormalisation operation counts, and the wall-clock
        build time in seconds.
    """
    if n_moments < 1:
        raise ReductionError("n_moments must be >= 1")
    budget = budget or ResourceBudget.unlimited()

    store_key = None
    store_options = None
    if store is not None:
        store_options = prima_store_options(
            n_moments, s0=s0, deflation_tol=deflation_tol,
            keep_projection=keep_projection)
        store_key = store.key_for(system, "PRIMA", store_options)
        load_start = time.perf_counter()
        cached = store.fetch_key(store_key)
        if cached is not None:
            return cached, OrthoStats(), time.perf_counter() - load_start

    n = system.C.shape[0]
    m = system.B.shape[1]
    q_expected = m * n_moments
    budget.check_dense(n, q_expected, what="PRIMA projection basis")
    budget.check_dense(q_expected, 2 * q_expected, what="PRIMA dense ROM")

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    operator = ShiftedOperator(system.C, system.G, s0=s0, solver=solver)
    with scoped_timer("prima.krylov"):
        krylov = block_krylov_basis(operator, system.B, n_moments,
                                    deflation_tol=deflation_tol)
    stats = krylov.stats
    with scoped_timer("prima.project"):
        rom = congruence_project(
            system, krylov.basis, method="PRIMA", s0=s0, n_moments=n_moments,
            reusable=True, keep_projection=keep_projection)
    finish_reduce_health(health_mark, rom, stats, method="PRIMA")
    elapsed = time.perf_counter() - start
    if store is not None:
        store.put(store_key, rom, method="PRIMA", options=store_options,
                  system_name=getattr(system, "name", None))
    return rom, stats, elapsed
