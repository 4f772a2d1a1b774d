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

The implementation adds two practical features on top of the paper:

* ports are processed in chunks (``port_chunk_size``) — because the groups
  are orthonormalised independently anyway, chunking changes nothing
  numerically, but it bounds the peak memory at ``n * chunk * l`` floats
  instead of ``n * m * l``, which is what lets BDSM run on the largest
  benchmarks where the dense methods break down;
* chunks can be fanned across a :class:`~repro.analysis.engine.SweepEngine`
  worker pool (``BDSMOptions.engine``, or a transient thread engine built
  from ``n_workers``) — the paper points out that the block-diagonal
  structure "allows for parallel calculations"; every chunk shares the one
  cached pencil factorisation and the per-chunk work (sparse solves + BLAS
  projections) releases the GIL, so threads give a real speedup on
  multi-core machines without changing the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import SweepEngine
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import ReductionError
from repro.linalg.backends import SolverOptions
from repro.linalg.krylov import ShiftedOperator, column_clustered_krylov_bases
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import traced
from repro.perf.timers import scoped_timer

__all__ = ["BDSMOptions", "bdsm_reduce", "bdsm_store_options"]


@dataclass(frozen=True)
class BDSMOptions:
    """Tuning knobs of :func:`bdsm_reduce`.

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
        (default) is sequential; values above 1 only make sense together
        with ``port_chunk_size`` so there is more than one chunk.
    solver:
        Optional :class:`~repro.linalg.backends.SolverOptions` for the
        shifted-pencil solves (backend choice, caching, iterative
        parameters).  With caching on, repeated reductions of the same grid
        at the same ``s0`` — and analyses at the same shift — reuse the
        pencil factorisation.
    engine:
        Optional :class:`~repro.analysis.engine.SweepEngine` whose worker
        pool processes the independent port chunks (all sharing the one
        cached pencil factorisation).  Takes precedence over
        ``n_workers``; when only ``n_workers > 1`` is set, a transient
        thread-pool engine is created for the reduction.
    """

    port_chunk_size: int | None = None
    keep_projection: bool = False
    deflation_tol: float = 1e-12
    n_workers: int = 1
    solver: SolverOptions | None = None
    engine: SweepEngine | None = field(default=None, compare=False)


def bdsm_store_options(n_moments: int, *, s0: complex = 0.0,
                       options: BDSMOptions | None = None) -> dict:
    """The options record :func:`bdsm_reduce` memoizes under in a
    :class:`~repro.store.ModelStore` — the one true key builder, so CLI
    pre-checks (``--from-store``, ``query``) agree with the reducer.

    Only knobs that change the ROM numerically enter the key; chunking and
    worker counts do not (chunked processing is numerically identical).
    """
    opts = options or BDSMOptions()
    return {"n_moments": int(n_moments), "s0": complex(s0),
            "deflation_tol": float(opts.deflation_tol),
            "keep_projection": bool(opts.keep_projection)}


@traced("bdsm.reduce")
def bdsm_reduce(system, n_moments: int, *, s0: complex = 0.0,
                options: BDSMOptions | None = None,
                budget: ResourceBudget | None = None,
                store=None):
    """Reduce ``system`` with BDSM, matching ``n_moments`` per input column.

    Parameters
    ----------
    system:
        Object exposing sparse ``C, G, B, L`` in the paper's convention
        (``C dx/dt = G x + B u``).
    n_moments:
        Number of moments ``l`` matched for every column of the transfer
        matrix (the ROM order is ``m * l`` barring deflation).
    s0:
        Expansion point (0 gives DC-centred moments; any point where
        ``s0 C - G`` is non-singular works).
    options:
        Optional :class:`BDSMOptions`.
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`; BDSM's working set
        is ``n x chunk x l`` so it stays far below the dense methods' needs,
        but the guard is honoured for fairness in the Table II harness.
    store:
        Optional :class:`~repro.store.ModelStore`.  The reduction is then
        memoized *across processes*: if the store holds a ROM for this
        exact system content, ``(n_moments, s0, deflation_tol,
        keep_projection)`` and method, it is loaded instead of re-reduced
        (a store hit; the returned stats are empty and the time is the
        load time); otherwise the freshly-built ROM is saved.  Chunking
        and worker-count knobs do not enter the key — they change nothing
        numerically.

    Returns
    -------
    tuple(BlockDiagonalROM, OrthoStats, float)
        The structured ROM, the orthonormalisation operation counts
        (``m * l * (l-1) / 2`` inner products up to re-orthogonalisation),
        and the wall-clock build time in seconds.
    """
    if n_moments < 1:
        raise ReductionError("n_moments must be >= 1")
    opts = options or BDSMOptions()
    budget = budget or ResourceBudget.unlimited()

    store_key = None
    store_options = None
    if store is not None:
        store_options = bdsm_store_options(n_moments, s0=s0, options=opts)
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
    if opts.engine is not None and opts.engine.executor != "thread":
        raise ReductionError(
            "BDSM chunk fan-out needs a thread-pool SweepEngine: the "
            "chunks share one in-process pencil factorisation")
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
    budget.check_dense(n, min(chunk, m) * n_moments * max(workers, 1),
                       what="BDSM chunked projection bases")

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    operator = ShiftedOperator(C, G, s0=s0, solver=opts.solver)
    stats = OrthoStats()

    def process_chunk(chunk_columns: list[int],
                      ) -> tuple[list[ROMBlock], OrthoStats]:
        with scoped_timer("bdsm.cluster_bases"):
            bases, chunk_stats, _deflated = column_clustered_krylov_bases(
                operator, B, n_moments,
                deflation_tol=opts.deflation_tol,
                columns=chunk_columns)
        chunk_blocks: list[ROMBlock] = []
        with scoped_timer("bdsm.project"):
            for local_idx, port in enumerate(chunk_columns):
                V_i = bases[local_idx]
                b_i = B[:, port].toarray().reshape(-1)
                chunk_blocks.append(ROMBlock(
                    index=port,
                    C=V_i.T @ (C @ V_i),
                    G=V_i.T @ (G @ V_i),
                    b=V_i.T @ b_i,
                    L=np.asarray(L @ V_i),
                    basis=V_i if opts.keep_projection else None))
        return chunk_blocks, chunk_stats

    chunk_lists = [list(range(s, min(s + chunk, m)))
                   for s in range(0, m, chunk)]
    blocks: list[ROMBlock] = []
    # The per-cluster chunks are independent (that is the paper's "allows
    # for parallel calculations" remark) and all share the one pencil
    # factorisation held by ``operator``, so they fan out over a
    # SweepEngine pool: the caller's engine if provided, else a transient
    # thread-pool engine sized by ``n_workers``.
    engine = opts.engine
    transient_engine = None
    if engine is None and opts.n_workers > 1 and len(chunk_lists) > 1:
        engine = transient_engine = SweepEngine(jobs=opts.n_workers)
    try:
        if engine is not None and len(chunk_lists) > 1:
            results = engine.map_scenarios(process_chunk, chunk_lists)
        else:
            results = [process_chunk(cols) for cols in chunk_lists]
    finally:
        if transient_engine is not None:
            transient_engine.close()
    for chunk_blocks, chunk_stats in results:
        blocks.extend(chunk_blocks)
        stats.merge(chunk_stats)

    rom = BlockDiagonalROM(
        blocks, n_outputs=p, s0=s0, n_moments=n_moments,
        original_size=n, original_ports=m,
        name=f"{getattr(system, 'name', 'system')}-BDSM")
    finish_reduce_health(health_mark, rom, stats, method="BDSM")
    elapsed = time.perf_counter() - start
    if store is not None:
        store.put(store_key, rom, method="BDSM", options=store_options,
                  system_name=getattr(system, "name", None))
    return rom, stats, elapsed
