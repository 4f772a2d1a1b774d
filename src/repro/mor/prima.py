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

The paper notes that "if the input signals are distributed in a wide
frequency band, multi-point Krylov-subspace projection may be used" and
that PRIMA extends straightforwardly: :func:`multipoint_prima_reduce` (a
block rational Arnoldi in the spirit of Elfadel & Ling, the paper's
reference [15]) is the one implementation and :func:`prima_reduce` its
one-point case.  The per-point block Krylov builds all absorb into one
:class:`~repro.linalg.recycle.RecycleWorkspace`, so the basis is the union
of the single-point Krylov subspaces, orthonormalised globally.  With
``recycle=True`` the workspace is frozen at every new point, so directions
already captured at earlier shifts leave the Krylov recursion before their
remaining shifted solves are spent.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ReductionError
from repro.linalg.krylov import ShiftedOperator, block_krylov_basis
from repro.linalg.orthogonalization import DEFAULT_DEFLATION_TOL, OrthoStats
from repro.linalg.recycle import (
    DEFAULT_RECYCLE_TOL,
    RecycleStats,
    RecycleWorkspace,
)
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import (
    ReducedSystem,
    ResourceBudget,
    expansion_point_options,
    expansion_points_checked,
    memoized_reduce,
    real_columns_per_input,
)
from repro.obs.health import reduce_with_health
from repro.obs.tracing import trace_span, traced

__all__ = ["congruence_project", "multipoint_prima_reduce", "prima_reduce",
           "prima_store_options"]


def congruence_project(system, V: np.ndarray, *, method: str,
                       s0: complex, n_moments: int,
                       reusable: bool = True,
                       keep_projection: bool = True) -> ReducedSystem:
    """Apply the congruence transform ``(V^T C V, V^T G V, V^T B, L V)``.

    Shared by PRIMA, SVDMOR (on the thin system) and EKS; BDSM uses its
    own block-wise variant.
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


def prima_store_options(n_moments: int, expansion_points=(0.0,), *,
                        deflation_tol: float = DEFAULT_DEFLATION_TOL,
                        keep_projection: bool = False,
                        recycle: bool = False,
                        recycle_tol: float = DEFAULT_RECYCLE_TOL) -> dict:
    """The options record :func:`multipoint_prima_reduce` (and so
    :func:`prima_reduce`) memoizes under in a
    :class:`~repro.store.ModelStore` — the one true key builder, so CLI
    pre-checks (``--from-store``, ``query``) agree with the reducer.  One
    point records ``s0``; several record ``expansion_points`` (see
    :func:`~repro.mor.base.expansion_point_options`)."""
    return {**expansion_point_options(n_moments, expansion_points,
                                      recycle=recycle,
                                      recycle_tol=recycle_tol),
            "deflation_tol": float(deflation_tol),
            "keep_projection": bool(keep_projection)}


def prima_reduce(system, n_moments: int, *, s0: complex = 0.0,
                 budget: ResourceBudget | None = None,
                 keep_projection: bool = False,
                 deflation_tol: float = DEFAULT_DEFLATION_TOL,
                 store=None):
    """Reduce ``system`` with PRIMA at one expansion point ``s0``, matching
    ``n_moments`` block moments — the one-point case of
    :func:`multipoint_prima_reduce` (see there for the parameters and the
    return value).
    """
    return multipoint_prima_reduce(
        system, n_moments, [s0], budget=budget,
        keep_projection=keep_projection, deflation_tol=deflation_tol,
        store=store)


@traced("prima.reduce")
def multipoint_prima_reduce(system, moments_per_point: int,
                            expansion_points: Sequence[complex], *,
                            budget: ResourceBudget | None = None,
                            keep_projection: bool = False,
                            deflation_tol: float = DEFAULT_DEFLATION_TOL,
                            recycle: bool = False,
                            recycle_tol: float = DEFAULT_RECYCLE_TOL,
                            store=None):
    """Reduce ``system`` with PRIMA at one or more expansion points.

    Parameters
    ----------
    system:
        Object exposing ``C, G, B, L`` in the paper's convention.
    moments_per_point:
        Number of (block) moments ``l`` matched at *each* expansion point.
    expansion_points:
        The points ``s0^(1), ..., s0^(k)`` (``[0.0]`` matches DC-centred
        moments).  Purely real points keep the projection (and hence the
        ROM) real; complex points contribute the real and imaginary parts
        of their basis vectors so the ROM stays real — the standard trick
        for real rational Arnoldi.
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`; when the dense
        projection basis or the dense ROM would exceed it,
        :class:`~repro.exceptions.ResourceBudgetExceeded` is raised —
        this reproduces the "break down" rows of Table II.
    keep_projection:
        Store the (large, dense) projection basis on the ROM.
    deflation_tol:
        Relative tolerance for dropping linearly dependent Krylov vectors.
    recycle:
        Carry the accumulated basis from each expansion point into the
        next and skip the shifted solves of directions it already
        captures.  Spans the same subspace up to ``recycle_tol``; leave
        off for exact moment matching at every point.
    recycle_tol:
        Relative residual below which a candidate at a new shift counts
        as captured by the recycled basis.
    store:
        Optional :class:`~repro.store.ModelStore` memoizing the reduction
        across processes, keyed on the system content and
        :func:`prima_store_options`.  On a store hit the ROM is loaded
        instead of rebuilt (empty stats, load time returned).

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
        The ROM, the orthonormalisation operation counts, and the wall-clock
        build time in seconds.  With several points the ROM carries
        ``rom.expansion_points``; a fresh build also ``rom.solve_counts``
        (shifted-solve columns per point) and, with ``recycle``,
        ``rom.recycle_stats``.
    """
    points = expansion_points_checked(moments_per_point, expansion_points)
    budget = budget or ResourceBudget.unlimited()
    method = "PRIMA" if len(points) == 1 else "multipoint-PRIMA"
    # The budget is checked before the store lookup, so a budgeted call
    # fails the same way whether or not the store already holds the ROM.
    n, m = system.B.shape
    q_upper = m * real_columns_per_input(moments_per_point, points)
    budget.check_dense(n, q_upper, what="PRIMA projection basis")
    budget.check_dense(q_upper, 2 * q_upper, what="PRIMA dense ROM")

    def build():
        return _build(system, moments_per_point, points, keep_projection,
                      deflation_tol, recycle, recycle_tol, method)

    rom, stats, seconds = memoized_reduce(
        store, system, "PRIMA",
        prima_store_options(moments_per_point, points,
                            deflation_tol=deflation_tol,
                            keep_projection=keep_projection,
                            recycle=recycle, recycle_tol=recycle_tol),
        lambda: reduce_with_health(build, method=method))
    if len(points) > 1:
        rom.expansion_points = points  # type: ignore[attr-defined]
    return rom, stats, seconds


def _build(system, moments_per_point: int, points: list,
           keep_projection: bool, deflation_tol: float, recycle: bool,
           recycle_tol: float, method: str):
    """One fresh PRIMA reduce; see :func:`multipoint_prima_reduce`."""
    n = system.C.shape[0]
    start = time.perf_counter()
    stats = OrthoStats()
    recycle_stats = RecycleStats() if recycle else None
    workspace = RecycleWorkspace(n, recycle_tol=recycle_tol,
                                 stats=recycle_stats)
    solve_counts: list[int] = []
    for point in points:
        operator = ShiftedOperator(system.C, system.G, s0=point)
        if recycle:
            workspace.begin_shift()
        with trace_span("prima.krylov", point=str(point)):
            krylov = block_krylov_basis(operator, system.B,
                                        moments_per_point,
                                        deflation_tol=deflation_tol,
                                        workspace=workspace)
        stats.merge(krylov.stats)
        solve_counts.append(operator.solve_count)

    with trace_span("prima.project"):
        rom = congruence_project(
            system, workspace.basis, method=method, s0=points[0],
            n_moments=moments_per_point, reusable=True,
            keep_projection=keep_projection)
    rom.solve_counts = solve_counts  # type: ignore[attr-defined]
    if recycle_stats is not None:
        rom.recycle_stats = recycle_stats  # type: ignore[attr-defined]
    return rom, stats, time.perf_counter() - start
