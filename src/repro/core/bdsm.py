"""BDSM: block-diagonal structured model order reduction (Algorithm 1).

The reduction proceeds exactly as the paper's Algorithm 1:

1.  factorise the shifted pencil ``(s0 C - G)`` once (sparse LU);
2.  compute the candidate blocks ``M_j = A^{j-1} (s0 C - G)^{-1} B`` for
    ``j = 1..l`` with shared solves;
3.  *cluster* the candidate vectors by input column and orthonormalise each
    group separately, producing the thin bases ``V(i) in R^{n x l}``;
4.  congruence-project each split system:
    ``C_ir = V(i)^T C V(i)``, ``G_ir = V(i)^T G V(i)``,
    ``b_ir = V(i)^T b_i``, ``L_ir = L V(i)``;
5.  assemble the block-diagonal ROM of Eq. (14).

The paper notes that "the multi-point projection follows analogously":
:func:`multipoint_bdsm_reduce` is the one implementation, and
:func:`bdsm_reduce` its one-point case.  Every input column ``i`` keeps one
:class:`~repro.linalg.recycle.RecycleWorkspace` across the expansion
points and the clustered Krylov driver absorbs each point's candidates into
it *within the group*, so the per-port block grows to (at most) ``l * k``
for ``k`` points but the ROM stays block-diagonal.  With ``recycle=True``
each workspace is frozen at every new point, so a port whose candidate at
a new shift is already captured drops out of the shared solve recursion.

The implementation adds two practical features on top of the paper:

* ports are processed in chunks (``port_chunk_size``) — because the groups
  are orthonormalised independently anyway, chunking changes nothing
  numerically, but it bounds the peak memory at ``n * chunk * l`` floats
  per point instead of ``n * m * l``, which is what lets BDSM run on the
  largest benchmarks where the dense methods break down;
* chunks can be fanned across a :class:`~repro.analysis.engine.SweepEngine`
  worker pool (``BDSMOptions.engine``, or a transient thread engine built
  from ``n_workers``) — the paper points out that the block-diagonal
  structure "allows for parallel calculations"; every chunk shares the
  cached pencil factorisation of each point and owns its workspaces, and
  the per-chunk work (sparse solves + BLAS projections) releases the GIL,
  so threads give a real speedup on multi-core machines without changing
  the result.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import SweepEngine
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import ReductionError
from repro.linalg.backends import SolverOptions
from repro.linalg.krylov import ShiftedOperator, column_clustered_krylov_bases
from repro.linalg.orthogonalization import DEFAULT_DEFLATION_TOL, OrthoStats
from repro.linalg.recycle import (
    DEFAULT_RECYCLE_TOL,
    RecycleStats,
    RecycleWorkspace,
)
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import (
    ResourceBudget,
    expansion_point_options,
    expansion_points_checked,
    real_columns_per_input,
)
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import trace_span, traced

__all__ = ["BDSMOptions", "bdsm_reduce", "bdsm_store_options",
           "multipoint_bdsm_reduce"]


@dataclass(frozen=True)
class BDSMOptions:
    """Tuning knobs of :func:`multipoint_bdsm_reduce` / :func:`bdsm_reduce`.

    Attributes
    ----------
    port_chunk_size:
        Number of input ports whose Krylov bases are built simultaneously.
        ``None`` processes all ports at once when running serially
        (fastest, most memory) and auto-chunks to roughly two chunks per
        worker when a pool is in play (``engine`` set or ``n_workers >
        1``); small explicit values bound memory on very wide systems.
    keep_projection:
        Store each per-port basis ``V(i)`` on its block (needed for state
        reconstruction; costs ``n*l`` floats per port).
    deflation_tol:
        Relative tolerance for dropping linearly dependent vectors inside a
        group; deflated blocks simply end up smaller than ``l``.
    n_workers:
        Number of workers processing port chunks concurrently. ``1``
        (default) is sequential; above 1 the ports are auto-chunked (see
        ``port_chunk_size``) and fanned over a transient thread pool.
    solver:
        Optional :class:`~repro.linalg.backends.SolverOptions` for the
        shifted-pencil solves (backend choice, caching, iterative
        parameters).  With caching on, repeated reductions of the same grid
        at the same ``s0`` — and analyses at the same shift — reuse the
        pencil factorisation.
    engine:
        Optional :class:`~repro.analysis.engine.SweepEngine` whose worker
        pool processes the independent port chunks (all sharing the
        cached pencil factorisation of each expansion point).  Takes
        precedence over ``n_workers``; when only ``n_workers > 1`` is set,
        a transient thread-pool engine is created for the reduction.
    """

    port_chunk_size: int | None = None
    keep_projection: bool = False
    deflation_tol: float = DEFAULT_DEFLATION_TOL
    n_workers: int = 1
    solver: SolverOptions | None = None
    engine: SweepEngine | None = field(default=None, compare=False)


def bdsm_store_options(n_moments: int, expansion_points=(0.0,), *,
                       options: BDSMOptions | None = None,
                       recycle: bool = False,
                       recycle_tol: float = DEFAULT_RECYCLE_TOL) -> dict:
    """The options record :func:`multipoint_bdsm_reduce` (and so
    :func:`bdsm_reduce`) memoizes under in a :class:`~repro.store.ModelStore`
    — the one true key builder, so CLI pre-checks (``--from-store``,
    ``query``) agree with the reducer.

    Only knobs that change the ROM numerically enter the key; chunking and
    worker counts do not (chunked processing is numerically identical).
    One point records ``s0``; several record ``expansion_points`` (see
    :func:`~repro.mor.base.expansion_point_options`).
    """
    opts = options or BDSMOptions()
    return {**expansion_point_options(n_moments, expansion_points,
                                      recycle=recycle,
                                      recycle_tol=recycle_tol),
            "deflation_tol": float(opts.deflation_tol),
            "keep_projection": bool(opts.keep_projection)}


def bdsm_reduce(system, n_moments: int, *, s0: complex = 0.0,
                options: BDSMOptions | None = None,
                budget: ResourceBudget | None = None,
                store=None):
    """Reduce ``system`` with BDSM at one expansion point ``s0``, matching
    ``n_moments`` per input column — Algorithm 1 of the paper, the
    one-point case of :func:`multipoint_bdsm_reduce` (see there for the
    parameters and the return value).
    """
    return multipoint_bdsm_reduce(system, n_moments, [s0], options=options,
                                  budget=budget, store=store)


@traced("bdsm.reduce")
def multipoint_bdsm_reduce(system, moments_per_point: int,
                           expansion_points: Sequence[complex], *,
                           options: BDSMOptions | None = None,
                           budget: ResourceBudget | None = None,
                           recycle: bool = False,
                           recycle_tol: float = DEFAULT_RECYCLE_TOL,
                           store=None):
    """Reduce ``system`` with BDSM at one or more expansion points.

    Parameters
    ----------
    system:
        Object exposing sparse ``C, G, B, L`` in the paper's convention
        (``C dx/dt = G x + B u``).
    moments_per_point:
        Number of moments ``l`` matched for every column of the transfer
        matrix at *each* expansion point (the ROM order is ``m * l`` per
        real point barring deflation).
    expansion_points:
        The expansion points (``[0.0]`` gives Algorithm 1's DC-centred
        moments; any point where ``s0 C - G`` is non-singular works).  Real
        points contribute ``l`` basis vectors per port, complex points up
        to ``2 l`` (real + imaginary parts, so the blocks stay real).
    options:
        Optional :class:`BDSMOptions` (chunking, fan-out, deflation, basis
        retention, solver).
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`; BDSM's working set
        is ``n x chunk x l`` per point (times the workers) so it stays far
        below the dense methods' needs, but the guard is honoured for
        fairness in the Table II harness.
    recycle:
        Carry each port's accumulated group basis from one expansion
        point into the next and skip the shifted solves of directions it
        already captures.  Spans the same per-port subspaces up to
        ``recycle_tol``; leave off for exact moment matching.
    recycle_tol:
        Relative residual below which a port's candidate at a new shift
        counts as captured by its recycled group basis.
    store:
        Optional :class:`~repro.store.ModelStore`.  The reduction is then
        memoized *across processes* under :func:`bdsm_store_options`: if
        the store holds a ROM for this exact system content and key, it is
        loaded instead of re-reduced (a store hit; the returned stats are
        empty and the time is the load time); otherwise the freshly-built
        ROM is saved.  Chunking and worker-count knobs do not enter the
        key — they change nothing numerically.

    Returns
    -------
    tuple(BlockDiagonalROM, OrthoStats, float)
        The structured ROM, the orthonormalisation operation counts
        (``m * l * (l-1) / 2`` inner products per real point up to
        re-orthogonalisation), and the wall-clock build time in seconds.
        A fresh build also carries ``rom.solve_counts`` (shifted-solve
        columns per point) and, with ``recycle``, ``rom.recycle_stats``.
    """
    points = expansion_points_checked(moments_per_point, expansion_points)
    opts = options or BDSMOptions()
    budget = budget or ResourceBudget.unlimited()
    single = len(points) == 1
    s0 = points[0] if single else points

    store_key = None
    store_options = None
    if store is not None:
        store_options = bdsm_store_options(
            moments_per_point, points, options=opts, recycle=recycle,
            recycle_tol=recycle_tol)
        store_key = store.key_for(system, "BDSM", store_options)
        load_start = time.perf_counter()
        cached = store.fetch_key(store_key)
        if cached is not None:
            return cached, OrthoStats(), time.perf_counter() - load_start

    C = to_csr(system.C)
    G = to_csr(system.G)
    B = to_csr(system.B)
    L = to_csr(system.L)
    n, m = B.shape
    p = L.shape[0]
    if opts.n_workers < 1:
        raise ReductionError("n_workers must be >= 1")
    workers = (opts.engine.resolved_jobs() if opts.engine is not None
               else opts.n_workers)
    if opts.port_chunk_size is None:
        # Serial: one chunk of all ports. Pooled: ~2 chunks per worker so
        # the pool stays busy even when chunks finish unevenly — the one
        # place this heuristic lives (the CLI and bench workloads just
        # hand over an engine).
        chunk = m if workers <= 1 else max(1, -(-m // (2 * workers)))
    else:
        chunk = int(opts.port_chunk_size)
    if chunk < 1:
        raise ReductionError("port_chunk_size must be >= 1")
    budget.check_dense(
        n, min(chunk, m) * real_columns_per_input(moments_per_point, points)
        * max(workers, 1), what="BDSM chunked projection bases")

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    operators = [ShiftedOperator(C, G, s0=point, solver=opts.solver)
                 for point in points]

    def process_chunk(columns: range) -> tuple[list[ROMBlock], OrthoStats,
                                                RecycleStats]:
        # Everything mutable is chunk-local (workspaces, stats), so chunks
        # fanned over a thread pool only share the read-only operators.
        chunk_stats = OrthoStats()
        chunk_recycle = RecycleStats()
        B_chunk = np.asarray(B[:, columns.start:columns.stop].toarray(),
                             dtype=float)
        workspaces = [RecycleWorkspace(n, recycle_tol=recycle_tol,
                                       stats=chunk_recycle)
                      for _ in columns]
        for operator, point in zip(operators, points):
            if recycle:
                for workspace in workspaces:
                    workspace.begin_shift()
            with trace_span("bdsm.cluster_bases", point=str(point)):
                _, point_stats, _ = column_clustered_krylov_bases(
                    operator, B_chunk, moments_per_point,
                    deflation_tol=opts.deflation_tol, workspaces=workspaces)
            chunk_stats.merge(point_stats)
        chunk_blocks: list[ROMBlock] = []
        with trace_span("bdsm.project"):
            for local_idx, port in enumerate(columns):
                V_i = workspaces[local_idx].basis
                chunk_blocks.append(ROMBlock(
                    index=port,
                    C=V_i.T @ (C @ V_i),
                    G=V_i.T @ (G @ V_i),
                    b=V_i.T @ B_chunk[:, local_idx],
                    L=np.asarray(L @ V_i),
                    basis=V_i if opts.keep_projection else None))
        return chunk_blocks, chunk_stats, chunk_recycle

    chunk_ranges = [range(s, min(s + chunk, m)) for s in range(0, m, chunk)]
    # The per-cluster chunks are independent (that is the paper's "allows
    # for parallel calculations" remark) and all share the pencil
    # factorisations held by ``operators``, so they fan out over a
    # SweepEngine pool: the caller's engine if provided, else a transient
    # thread-pool engine sized by ``n_workers``.
    engine = opts.engine
    transient_engine = None
    if engine is None and opts.n_workers > 1 and len(chunk_ranges) > 1:
        engine = transient_engine = SweepEngine(jobs=opts.n_workers)
    try:
        if engine is not None and len(chunk_ranges) > 1:
            results = engine.map_scenarios(process_chunk, chunk_ranges)
        else:
            results = [process_chunk(cols) for cols in chunk_ranges]
    finally:
        if transient_engine is not None:
            transient_engine.close()
    blocks: list[ROMBlock] = []
    stats = OrthoStats()
    recycle_stats = RecycleStats() if recycle else None
    for chunk_blocks, chunk_stats, chunk_recycle in results:
        blocks.extend(chunk_blocks)
        stats.merge(chunk_stats)
        if recycle_stats is not None:
            recycle_stats.merge(chunk_recycle)

    label = "BDSM" if single else "BDSM-mp"
    rom = BlockDiagonalROM(
        blocks, n_outputs=p, s0=s0, n_moments=moments_per_point,
        original_size=n, original_ports=m,
        name=f"{getattr(system, 'name', 'system')}-{label}")
    rom.solve_counts = [op.solve_count  # type: ignore[attr-defined]
                        for op in operators]
    if recycle_stats is not None:
        rom.recycle_stats = recycle_stats  # type: ignore[attr-defined]
    finish_reduce_health(health_mark, rom, stats, method=label,
                         recycle_stats=recycle_stats)
    elapsed = time.perf_counter() - start
    if store is not None:
        store.put(store_key, rom, method="BDSM", options=store_options,
                  system_name=getattr(system, "name", None))
    return rom, stats, elapsed
