"""Multi-point BDSM.

The paper develops BDSM at a single expansion point and notes that "the
multi-point projection follows analogously".  This module implements that
extension: every input column ``i`` keeps one
:class:`~repro.linalg.recycle.RecycleWorkspace` across the expansion points,
and the clustered Krylov driver absorbs each point's candidates into it
*within the group*, so the per-port block grows to (at most) ``l * k`` for
``k`` points but the global ROM stays block-diagonal.  Real and imaginary
parts of complex-point candidates are split so the ROM remains real.

With ``recycle=True`` each workspace is frozen at every new point: a port
whose candidate at a new shift is already captured by its accumulated
group basis drops out of the shared solve recursion, skipping its
remaining shifted solves at that point.  ``rom.recycle_stats`` /
``rom.solve_counts`` record the hits and the per-point solve columns.
Recycling off (the default) never freezes, so nothing screens.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.bdsm import BDSMOptions
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import ReductionError
from repro.linalg.krylov import ShiftedOperator, column_clustered_krylov_bases
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import (
    DEFAULT_RECYCLE_TOL,
    RecycleStats,
    RecycleWorkspace,
)
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import trace_span, traced

__all__ = ["multipoint_bdsm_reduce"]


@traced("bdsm.multipoint_reduce")
def multipoint_bdsm_reduce(system, moments_per_point: int,
                           expansion_points: Sequence[complex], *,
                           options: BDSMOptions | None = None,
                           budget: ResourceBudget | None = None,
                           recycle: bool = False,
                           recycle_tol: float = DEFAULT_RECYCLE_TOL):
    """BDSM with several expansion points.

    Parameters
    ----------
    system:
        Descriptor model exposing ``C, G, B, L``.
    moments_per_point:
        Moments matched per column at *each* expansion point.
    expansion_points:
        The expansion points; real points contribute ``l`` basis vectors per
        port, complex points up to ``2 l`` (real + imaginary parts).
    options:
        Optional :class:`~repro.core.bdsm.BDSMOptions` (chunking, deflation,
        basis retention, solver).  There is no chunk fan-out here, so an
        ``engine`` or ``n_workers > 1`` raises :class:`ReductionError`
        rather than being ignored.
    budget:
        Optional resource guard.
    recycle:
        Carry each port's accumulated group basis from one expansion
        point into the next and skip the shifted solves of directions it
        already captures.  Spans the same per-port subspaces up to
        ``recycle_tol``; leave off for exact moment matching.
    recycle_tol:
        Relative residual below which a port's candidate at a new shift
        counts as captured by its recycled group basis.

    Returns
    -------
    tuple(BlockDiagonalROM, OrthoStats, float)
    """
    points = list(expansion_points)
    if not points:
        raise ReductionError("need at least one expansion point")
    if moments_per_point < 1:
        raise ReductionError("moments_per_point must be >= 1")
    opts = options or BDSMOptions()
    if opts.n_workers < 1:
        raise ReductionError("n_workers must be >= 1")
    if opts.engine is not None or opts.n_workers > 1:
        raise ReductionError(
            "multipoint BDSM has no chunk fan-out; drop BDSMOptions.engine "
            "and n_workers")
    budget = budget or ResourceBudget.unlimited()

    C = to_csr(system.C)
    G = to_csr(system.G)
    B = to_csr(system.B)
    L = to_csr(system.L)
    n, m = B.shape
    p = L.shape[0]
    chunk = m if opts.port_chunk_size is None else int(opts.port_chunk_size)
    if chunk < 1:
        raise ReductionError("port_chunk_size must be >= 1")
    budget.check_dense(
        n, min(chunk, m) * moments_per_point * len(points) * 2,
        what="multipoint BDSM chunked projection bases")

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    stats = OrthoStats()
    recycle_stats = RecycleStats() if recycle else None
    operators = [ShiftedOperator(C, G, s0=point, solver=opts.solver)
                 for point in points]
    # Densify the input matrix once for the whole reduce; every per-point
    # basis construction and per-port projection below slices this one
    # array instead of re-densifying B per (chunk x point).
    B_dense = np.asarray(B.toarray(), dtype=float)

    blocks: list[ROMBlock] = []
    for chunk_start in range(0, m, chunk):
        chunk_columns = list(range(chunk_start, min(chunk_start + chunk, m)))
        workspaces = [RecycleWorkspace(n, recycle_tol=recycle_tol,
                                       stats=recycle_stats)
                      for _ in chunk_columns]
        for operator, point in zip(operators, points):
            if recycle:
                for workspace in workspaces:
                    workspace.begin_shift()
            with trace_span("multipoint.krylov", point=str(point),
                            recycle=recycle):
                _, point_stats, _ = column_clustered_krylov_bases(
                    operator, B_dense, moments_per_point,
                    deflation_tol=opts.deflation_tol,
                    columns=chunk_columns, workspaces=workspaces)
            stats.merge(point_stats)

        for workspace, port in zip(workspaces, chunk_columns):
            combined = workspace.basis
            b_i = B_dense[:, port]
            blocks.append(ROMBlock(
                index=port,
                C=combined.T @ (C @ combined),
                G=combined.T @ (G @ combined),
                b=combined.T @ b_i,
                L=np.asarray(L @ combined),
                basis=combined if opts.keep_projection else None))

    rom = BlockDiagonalROM(
        blocks, n_outputs=p, s0=list(points),
        n_moments=moments_per_point,
        original_size=n, original_ports=m,
        name=f"{getattr(system, 'system', getattr(system, 'name', 'system'))}"
             f"-BDSM-mp")
    rom.solve_counts = [op.solve_count  # type: ignore[attr-defined]
                        for op in operators]
    if recycle_stats is not None:
        rom.recycle_stats = recycle_stats  # type: ignore[attr-defined]
    finish_reduce_health(health_mark, rom, stats, method="BDSM-mp",
                         recycle_stats=recycle_stats)
    elapsed = time.perf_counter() - start
    return rom, stats, elapsed
