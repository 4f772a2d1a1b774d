"""Multi-point (rational Krylov) projection.

The paper notes that "if the input signals are distributed in a wide
frequency band, multi-point Krylov-subspace projection may be used to
improve the accuracy" and that both PRIMA and BDSM extend straightforwardly
to several expansion points.  This module provides the PRIMA-side extension
(a block rational Arnoldi in the spirit of Elfadel & Ling, the paper's
reference [15]); the BDSM-side extension lives in
:mod:`repro.core.multipoint`.

The per-point block Krylov builds all absorb into one
:class:`~repro.linalg.recycle.RecycleWorkspace`, so the basis is the union
of the single-point Krylov subspaces, orthonormalised globally; the
congruence transform then matches the prescribed number of moments at each
point (up to deflation).

With ``recycle=True`` the workspace is frozen at every new point:
candidates at shift ``s_{j+1}`` are screened against the basis accumulated
at ``s_1 .. s_j`` first, and already-captured directions leave the Krylov
recursion before their remaining shifted solves are spent.  The ROM then
carries ``rom.recycle_stats`` / ``rom.solve_counts`` so callers can audit
the skipped work.  Recycling off (the default) never freezes, so nothing
screens.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.exceptions import ReductionError
from repro.linalg.backends import SolverOptions
from repro.linalg.krylov import ShiftedOperator, block_krylov_basis
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import (
    DEFAULT_RECYCLE_TOL,
    RecycleStats,
    RecycleWorkspace,
)
from repro.mor.base import ResourceBudget
from repro.mor.prima import congruence_project
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import trace_span, traced

__all__ = ["multipoint_prima_reduce"]


@traced("prima.multipoint_reduce")
def multipoint_prima_reduce(system, moments_per_point: int,
                            expansion_points: Sequence[complex], *,
                            budget: ResourceBudget | None = None,
                            keep_projection: bool = False,
                            deflation_tol: float = 1e-12,
                            solver: SolverOptions | None = None,
                            recycle: bool = False,
                            recycle_tol: float = DEFAULT_RECYCLE_TOL):
    """PRIMA-style congruence projection with several expansion points.

    Parameters
    ----------
    system:
        Descriptor model exposing ``C, G, B, L``.
    moments_per_point:
        Block moments matched at *each* expansion point.
    expansion_points:
        The points ``s0^(1), ..., s0^(k)``.  Purely real points keep the
        projection (and hence the ROM) real; complex points are accepted and
        contribute the real and imaginary parts of their basis vectors so the
        ROM stays real — the standard trick for real rational Arnoldi.
    budget:
        Optional resource guard.
    keep_projection:
        Store the combined projection basis on the ROM.
    deflation_tol:
        Relative deflation tolerance of the global orthonormalisation.
    solver:
        Optional :class:`~repro.linalg.backends.SolverOptions` for the
        per-point shifted-pencil solves.
    recycle:
        Carry the accumulated basis from each expansion point into the
        next and skip the shifted solves of directions it already
        captures.  Spans the same subspace up to ``recycle_tol``; leave
        off for exact moment matching at every point.
    recycle_tol:
        Relative residual below which a candidate at a new shift counts
        as captured by the recycled basis.

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
    """
    points = list(expansion_points)
    if not points:
        raise ReductionError("need at least one expansion point")
    if moments_per_point < 1:
        raise ReductionError("moments_per_point must be >= 1")
    budget = budget or ResourceBudget.unlimited()
    n = system.C.shape[0]
    m = system.B.shape[1]
    q_upper = m * moments_per_point * len(points) * 2
    budget.check_dense(n, q_upper, what="multipoint PRIMA projection basis")

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    stats = OrthoStats()
    recycle_stats = RecycleStats() if recycle else None
    workspace = RecycleWorkspace(n, recycle_tol=recycle_tol,
                                 stats=recycle_stats)
    solve_counts: list[int] = []
    for point in points:
        operator = ShiftedOperator(system.C, system.G, s0=point,
                                   solver=solver)
        if recycle:
            workspace.begin_shift()
        with trace_span("multipoint.krylov", point=str(point),
                        recycle=recycle) as span:
            krylov = block_krylov_basis(operator, system.B,
                                        moments_per_point,
                                        deflation_tol=deflation_tol,
                                        workspace=workspace)
            span.set_tag("columns_added", krylov.size)
        stats.merge(krylov.stats)
        solve_counts.append(operator.solve_count)

    rom = congruence_project(
        system, workspace.basis, method="multipoint-PRIMA",
        s0=points[0], n_moments=moments_per_point, reusable=True,
        keep_projection=keep_projection)
    rom.expansion_points = list(points)  # type: ignore[attr-defined]
    rom.solve_counts = solve_counts  # type: ignore[attr-defined]
    if recycle_stats is not None:
        rom.recycle_stats = recycle_stats  # type: ignore[attr-defined]
    finish_reduce_health(health_mark, rom, stats,
                         method="multipoint-PRIMA",
                         recycle_stats=recycle_stats)
    elapsed = time.perf_counter() - start
    return rom, stats, elapsed
