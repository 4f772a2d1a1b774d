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

* ports are processed in chunks — the groups are orthonormalised
  independently anyway, so a chunk holds ``n * chunk * l`` floats per
  point instead of ``n * m * l``, which is what lets BDSM run on the
  largest benchmarks where the dense methods break down.  The chunking is
  a pure function of the problem (:func:`port_chunks`: ``n``, ``m`` and
  the solve columns per port), never of the worker count.  That matters
  because chunking is *not* free of roundoff: the shared solves and BLAS
  projections see blocks of a different width, so on ckt2-laptop
  (``l = 10``) chunks of 54, 27 and 1 ports change 3, 8 and 81 of the 108
  blocks against one chunk, by up to 3.7e-12 absolute.  Fixed chunks make
  the ROM bit-identical on 1, 2 or N cores;
* the chunks fan out over one process-wide thread pool
  (:func:`~repro.analysis.engine.shared_engine`, one worker per CPU this
  process may run on) unless ``BDSMOptions.engine`` names another
  (``SweepEngine(jobs=1)`` forces serial) — the paper points out that the
  block-diagonal structure "allows for parallel calculations".  Every
  chunk shares the cached pencil factorisation of each point and owns its
  workspaces, and the per-chunk work (sparse solves + BLAS projections)
  releases the GIL.  With several points the per-point factorisations are
  built on the same pool.  A problem below one chunk's worth of solve work
  (:data:`MIN_CHUNK_SOLVE_WORK`) is one chunk and runs inline, as does a
  reduce already running on a pool thread (a partitioned shard under a
  pool), so tiny GIL-bound reduces never pay thread hand-offs.

The ``bdsm.reduce`` span carries ``chunks``, ``workers`` and ``inline``.
Under fan-out the per-phase spans (``bdsm.cluster_bases``,
``bdsm.project``, ``linalg.solve``) of different chunks overlap, so their
sums are thread time, not wall time, and can exceed the reduce's own span.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import SweepEngine, shared_engine
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import ReductionError
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
    memoized_reduce,
    real_columns_per_input,
)
from repro.obs.health import reduce_with_health
from repro.obs.tracing import current_span, trace_span, traced

__all__ = ["BDSMOptions", "MIN_CHUNK_SOLVE_WORK", "bdsm_reduce",
           "bdsm_store_options", "multipoint_bdsm_reduce", "port_chunks"]

#: Fewest ports in one chunk of a split reduce.  Each chunk repeats the
#: per-point Python work of the clustered Krylov driver, so narrow chunks
#: cost time of their own: one thread ran ckt2-laptop (l = 10) in 0.51 s
#: as one chunk and in 0.62 s as 8-port chunks.
MIN_CHUNK_PORTS = 16

#: Most chunks one reduce is split into — enough to keep eight workers
#: busy.  On two workers 6 and 8 chunks ran ckt2-laptop and the
#: multipoint ckt3-laptop reduce as fast as 2 or 4 did (within noise).
MAX_PORT_CHUNKS = 8

#: Least shifted-solve work, in states x solve columns
#: (``n * ports * columns per port``), that one chunk must carry.  A
#: problem below it is one chunk, and it stays off the shared pool even
#: with an explicit ``port_chunk_size`` (a caller's own engine is always
#: used).  Measured on a 2-vCPU
#: box with single-threaded BLAS, one chunk inline against two chunks on
#: two threads: 1.3e5 per chunk (ckt1-laptop, l = 2) ran 12% slower
#: pooled, 2.6e5 (l = 4) broke even and 5.2e5 (ckt1-laptop l = 8,
#: ckt2-laptop l = 2) ran 25% faster; the smoke grids (2e4 and less) ran
#: 1.5-3.3x slower pooled, as did the 70-state shards of the multilevel
#: partitioned reduce, whose work is GIL-bound Python.
MIN_CHUNK_SOLVE_WORK = 500_000


def port_chunks(n: int, m: int, columns_per_port: int) -> list[range]:
    """The port chunks of a BDSM reduce of ``n`` states, ``m`` ports and
    ``columns_per_port`` solve columns per port — a pure function of the
    problem, so the ROM does not depend on the worker count.

    Splits the ports evenly into as many chunks as allowed by
    :data:`MAX_PORT_CHUNKS`, :data:`MIN_CHUNK_PORTS` and
    :data:`MIN_CHUNK_SOLVE_WORK` (at least one).
    """
    work = n * m * columns_per_port
    k = max(1, min(MAX_PORT_CHUNKS, m // MIN_CHUNK_PORTS,
                   work // MIN_CHUNK_SOLVE_WORK))
    bounds = np.linspace(0, m, k + 1).astype(int)
    return [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class BDSMOptions:
    """Tuning knobs of :func:`multipoint_bdsm_reduce` / :func:`bdsm_reduce`.

    Attributes
    ----------
    port_chunk_size:
        Number of input ports whose Krylov bases are built simultaneously.
        ``None`` (default) takes the problem's own chunking
        (:func:`port_chunks`); small explicit values bound memory on very
        wide systems.  Any chunking changes the ROM at roundoff level
        (see the module docstring), and the store key ignores it.
    keep_projection:
        Store each per-port basis ``V(i)`` on its block (needed for state
        reconstruction; costs ``n*l`` floats per port).
    deflation_tol:
        Relative tolerance for dropping linearly dependent vectors inside a
        group; deflated blocks simply end up smaller than ``l``.
    engine:
        The :class:`~repro.analysis.engine.SweepEngine` whose worker pool
        processes the independent port chunks (all sharing the cached
        pencil factorisation of each expansion point).  ``None`` (default)
        uses the process-wide :func:`~repro.analysis.engine.shared_engine`;
        ``SweepEngine(jobs=1)`` runs the same chunks serially, to the same
        bits.

    The shifted pencils are factored through the process-wide cache, so
    repeated reductions of the same grid at the same ``s0`` — and analyses
    at the same shift — reuse the pencil factorisation.
    """

    port_chunk_size: int | None = None
    keep_projection: bool = False
    deflation_tol: float = DEFAULT_DEFLATION_TOL
    engine: SweepEngine | None = field(default=None, compare=False)


def bdsm_store_options(n_moments: int, expansion_points=(0.0,), *,
                       options: BDSMOptions | None = None,
                       recycle: bool = False,
                       recycle_tol: float = DEFAULT_RECYCLE_TOL) -> dict:
    """The options record :func:`multipoint_bdsm_reduce` (and so
    :func:`bdsm_reduce`) memoizes under in a :class:`~repro.store.ModelStore`
    — the one true key builder, so CLI pre-checks (``--from-store``,
    ``query``) agree with the reducer.

    Only knobs that change the ROM numerically enter the key.  Worker
    counts do not (the ROM is bit-identical across them), and neither does
    an explicit ``port_chunk_size`` (it changes the ROM at roundoff level
    only, up to 3.7e-12 on ckt2-laptop).
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
        Optional :class:`BDSMOptions` (chunking, fan-out engine, deflation,
        basis retention).
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`; BDSM's working set
        is ``n x chunk x l`` per point (times the busy workers) so it stays far
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
        ROM is saved.  The engine does not enter the key (it changes
        nothing), nor does ``port_chunk_size`` (roundoff only).

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
    label = "BDSM" if len(points) == 1 else "BDSM-mp"
    # The budget is checked before the store lookup, so a budgeted call
    # fails the same way whether or not the store already holds the ROM.
    n, m = system.B.shape
    columns_per_port = real_columns_per_input(moments_per_point, points)
    chunk_ranges, engine, workers = _chunk_plan(n, m, columns_per_port, opts)
    budget.check_dense(
        n, max(map(len, chunk_ranges), default=0) * columns_per_port
        * workers, what="BDSM chunked projection bases")

    def build():
        return _build(system, moments_per_point, points, opts,
                      (chunk_ranges, engine, workers), recycle, recycle_tol,
                      label)

    return memoized_reduce(
        store, system, "BDSM",
        bdsm_store_options(moments_per_point, points, options=opts,
                           recycle=recycle, recycle_tol=recycle_tol),
        lambda: reduce_with_health(build, method=label))


def _chunk_plan(n: int, m: int, columns_per_port: int, opts: BDSMOptions):
    """``(chunk_ranges, engine, workers)`` of a BDSM reduce.

    The per-cluster chunks are independent (that is the paper's "allows
    for parallel calculations" remark) and all share the pencil
    factorisations of one reduce.
    """
    if opts.port_chunk_size is None:
        chunk_ranges = port_chunks(n, m, columns_per_port)
    else:
        chunk = int(opts.port_chunk_size)
        if chunk < 1:
            raise ReductionError("port_chunk_size must be >= 1")
        chunk_ranges = [range(first, min(first + chunk, m))
                        for first in range(0, m, chunk)]
    engine = opts.engine if opts.engine is not None else shared_engine()
    workers = engine.workers_for(len(chunk_ranges))
    if (opts.engine is None
            and n * m * columns_per_port < MIN_CHUNK_SOLVE_WORK):
        workers = 1  # small problems stay off the shared pool
    return chunk_ranges, engine, workers


def _build(system, moments_per_point: int, points: list,
           opts: BDSMOptions, plan: tuple, recycle: bool,
           recycle_tol: float, label: str):
    """One fresh BDSM reduce over the chunk ``plan`` of
    :func:`_chunk_plan`; see :func:`multipoint_bdsm_reduce`."""
    chunk_ranges, engine, workers = plan
    single = len(points) == 1
    s0 = points[0] if single else points
    C = to_csr(system.C)
    G = to_csr(system.G)
    B = to_csr(system.B)
    L = to_csr(system.L)
    n, m = B.shape
    p = L.shape[0]
    span = current_span()
    if span is not None and span.name == "bdsm.reduce":
        span.set_tag("chunks", len(chunk_ranges))
        span.set_tag("workers", workers)
        span.set_tag("inline", workers == 1)

    def fan_out(fn, items: list) -> list:
        if workers == 1:
            return [fn(item) for item in items]
        return engine.map_scenarios(fn, items)

    start = time.perf_counter()
    operators = fan_out(
        lambda point: ShiftedOperator(C, G, s0=point), points)

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

    results = fan_out(process_chunk, chunk_ranges)
    blocks: list[ROMBlock] = []
    stats = OrthoStats()
    recycle_stats = RecycleStats() if recycle else None
    for chunk_blocks, chunk_stats, chunk_recycle in results:
        blocks.extend(chunk_blocks)
        stats.merge(chunk_stats)
        if recycle_stats is not None:
            recycle_stats.merge(chunk_recycle)

    rom = BlockDiagonalROM(
        blocks, n_outputs=p, s0=s0, n_moments=moments_per_point,
        original_size=n, original_ports=m,
        name=f"{getattr(system, 'name', 'system')}-{label}")
    rom.solve_counts = [op.solve_count  # type: ignore[attr-defined]
                        for op in operators]
    if recycle_stats is not None:
        rom.recycle_stats = recycle_stats  # type: ignore[attr-defined]
    return rom, stats, time.perf_counter() - start
