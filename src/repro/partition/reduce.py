"""Partitioned hierarchical reduction driver.

:func:`partitioned_reduce` is the partitioned counterpart of
:func:`~repro.core.bdsm.bdsm_reduce`: it shards the grid with a
:class:`~repro.partition.graph.GridPartitioner`, reduces every subdomain
independently with one of the existing reducers (BDSM per-cluster bases or
a PRIMA block basis), optionally fanning the per-shard reductions over a
:class:`~repro.analysis.engine.SweepEngine` worker pool, and reassembles
the reduced pieces into a coupled
:class:`~repro.partition.assemble.PartitionedROM`.

Per-shard reductions can be memoized through a
:class:`~repro.store.ModelStore`: the store key combines the shard's
*content* fingerprint with partition-aware canonical options
(:func:`partitioned_store_options`), so re-running the same partitioned
reduction — in any process — loads every shard ROM off disk, while any
change to the partition layout, the method or a numerically relevant knob
produces fresh keys.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.analysis.engine import SweepEngine
from repro.core.bdsm import BDSMOptions, bdsm_reduce, bdsm_store_options
from repro.exceptions import PartitionError
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import ShardBasisCache
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.mor.prima import prima_reduce, prima_store_options
from repro.partition.assemble import PartitionedROM, ReducedSubdomain
from repro.partition.extract import Subdomain, extract_subdomains
from repro.partition.graph import GridPartitioner, PartitionResult
from repro.partition.interface import (
    InterfaceBasis,
    PartitionedOptions,
    compress_subdomain,
    interface_krylov_basis,
)
from repro.obs.health import begin_reduce_health, finish_reduce_health
from repro.obs.tracing import trace_span, traced

__all__ = ["partitioned_reduce", "partitioned_store_options"]

#: Shard reducers accepted by :func:`partitioned_reduce`.
_METHODS = ("bdsm", "prima")


def partitioned_store_options(n_moments: int, *, s0: complex = 0.0,
                              method: str = "bdsm",
                              options: BDSMOptions | None = None,
                              partition: PartitionResult | None = None,
                              subdomain: Subdomain | None = None,
                              interface: PartitionedOptions | None = None,
                              ) -> dict:
    """Partition-aware canonical store options for one shard reduction.

    Extends the shard reducer's own canonical options
    (:func:`~repro.core.bdsm.bdsm_store_options` /
    :func:`~repro.mor.prima.prima_store_options`, with the projection
    basis forced on — assembly needs it) with a ``partition`` record:
    the layout ``(k, strategy)``, the shard index and its interface
    footprint.  Together with the shard's content fingerprint this
    guarantees that any change to the partition layout yields fresh keys
    while identical re-runs hit.
    """
    method = method.lower()
    opts = options or BDSMOptions()
    if method == "bdsm":
        base = bdsm_store_options(
            n_moments, [s0],
            options=BDSMOptions(keep_projection=True,
                                deflation_tol=opts.deflation_tol))
    elif method == "prima":
        base = prima_store_options(n_moments, [s0],
                                   deflation_tol=opts.deflation_tol,
                                   keep_projection=True)
    else:
        raise PartitionError(
            f"unknown partitioned method {method!r}; choose from {_METHODS}")
    record = {"scheme": "partitioned"}
    if partition is not None:
        record.update(k=int(partition.k), strategy=str(partition.strategy),
                      interface=int(partition.interface_size))
    if subdomain is not None:
        record.update(subdomain=int(subdomain.index),
                      size=int(subdomain.size),
                      boundary=int(subdomain.boundary.shape[0]))
    # Interface-reduction knobs are numerically relevant: the separator
    # basis changes every shard's promoted inputs, so different interface
    # options must produce fresh keys even for an identical layout.
    record["interface_reduction"] = (interface or
                                     PartitionedOptions()).describe()
    return {**base, "partition": record}


def _shard_cache_key(subdomain: Subdomain, n_moments: int, s0: complex,
                     method: str, opts: BDSMOptions,
                     interface: PartitionedOptions | None) -> tuple:
    """Content key for one shard basis (see :class:`ShardBasisCache`).

    Keys on the shard's matrices plus every knob that changes the basis;
    deliberately *excludes* the shard index, which is what lets
    content-identical siblings (and child-level shards) share one build.
    """
    return ShardBasisCache.key_for(
        subdomain.system, n_moments=n_moments, s0=complex(s0),
        method=method, deflation_tol=opts.deflation_tol,
        interface=(interface or PartitionedOptions()).describe())


def _shard_basis(method: str, subdomain: Subdomain, n_moments: int,
                 s0: complex, opts: BDSMOptions, budget: ResourceBudget,
                 store, partition: PartitionResult,
                 interface: PartitionedOptions | None = None,
                 basis_cache: ShardBasisCache | None = None,
                 ) -> tuple[np.ndarray, OrthoStats]:
    """Reduce one shard with ``method`` and return its projection basis.

    BDSM's per-cluster block bases are merged into one; PRIMA's global
    block basis is used as is.  Both reductions keep their projection
    (assembly needs it) and are memoized in ``store`` under
    :func:`partitioned_store_options` and in ``basis_cache`` by content.
    """
    if basis_cache is not None:
        cache_key = _shard_cache_key(subdomain, n_moments, s0, method,
                                     opts, interface)
        cached = basis_cache.fetch(cache_key)
        if cached is not None:
            return cached, OrthoStats()
    stats = OrthoStats()

    def build():
        if method == "bdsm":
            rom, rom_stats, _ = bdsm_reduce(
                subdomain.system, n_moments, s0=s0, budget=budget,
                options=BDSMOptions(keep_projection=True,
                                    deflation_tol=opts.deflation_tol,
                                    solver=opts.solver))
        else:
            rom, rom_stats, _ = prima_reduce(
                subdomain.system, n_moments, s0=s0, solver=opts.solver,
                keep_projection=True, budget=budget,
                deflation_tol=opts.deflation_tol)
        stats.merge(rom_stats)
        return rom

    if store is not None:
        options = partitioned_store_options(
            n_moments, s0=s0, method=method, options=opts,
            partition=partition, subdomain=subdomain, interface=interface)
        rom, _ = store.get_or_reduce(subdomain.system, method.upper(),
                                     options, build)
    else:
        rom = build()
    if method == "bdsm":
        columns = [block.basis for block in rom.blocks
                   if block.basis is not None and block.basis.shape[1]]
        if not columns:
            raise PartitionError(
                f"subdomain {subdomain.index}: every Krylov candidate "
                "deflated; the shard basis is empty")
        basis, merge_stats = _merge_cluster_bases(columns,
                                                  opts.deflation_tol)
        stats.merge(merge_stats)
    else:
        if rom.projection is None or rom.projection.shape[1] == 0:
            raise PartitionError(
                f"subdomain {subdomain.index}: PRIMA returned no "
                "projection basis")
        basis = np.asarray(rom.projection)
    if basis_cache is not None:
        basis_cache.store(cache_key, basis)
    return basis, stats


def _merge_cluster_bases(columns: list[np.ndarray], deflation_tol: float,
                         ) -> tuple[np.ndarray, OrthoStats]:
    """Merge per-cluster orthonormal blocks into one orthonormal shard basis.

    The cluster bases coming out of a shard BDSM reduction are each
    orthonormal, but their spans overlap — heavily so once interface
    compression funnels every cluster through the same reduced separator
    inputs.  The column-wise deflation fallback of
    :func:`~repro.linalg.orthogonalization.block_orthonormalize` would
    therefore fire on nearly every merge and crawl through thousands of
    BLAS-2 projections.  Assembly only ever uses the merged basis inside a
    congruence projection, whose transfer function is invariant to the
    choice of orthonormal basis *within the same span* — so the merge
    needs span-accurate rank revelation, not column-by-column decision
    parity.  One column-pivoted Householder QR of the concatenated blocks
    delivers exactly that in blocked LAPACK kernels: pivoting makes
    ``|R[j, j]|`` non-increasing, so thresholding the diagonal against
    ``deflation_tol * |R[0, 0]|`` bounds the residual of every dropped
    candidate (each input column has unit norm, so the scales are
    comparable to the column-wise test) and ``Q[:, :rank]`` is an exactly
    orthonormal basis of the retained span.
    """
    candidates = columns[0] if len(columns) == 1 else np.hstack(columns)
    stats = OrthoStats()
    k = candidates.shape[1]
    if len(columns) == 1:
        # A single cluster basis is already orthonormal; nothing to merge.
        stats.normalizations += k
        return np.asarray(candidates), stats
    Q, R, _ = scipy.linalg.qr(candidates, mode="economic", pivoting=True,
                              check_finite=False)
    residuals = np.abs(np.diag(R))
    rank = 0
    if residuals.size and residuals[0] > 0.0:
        rank = int(np.count_nonzero(residuals >
                                    deflation_tol * residuals[0]))
        rank = max(rank, 1)
    stats.normalizations += rank
    stats.deflations += k - rank
    # The factorisation projects every candidate against every kept
    # direction once; count one inner product + update per (candidate,
    # direction) pair so the partitioned cost reports stay comparable.
    stats.inner_products += k * rank
    stats.axpy_updates += k * rank
    return np.ascontiguousarray(Q[:, :rank]), stats


def _project_subdomain(subdomain: Subdomain, basis: np.ndarray,
                       interface_basis: InterfaceBasis | None = None,
                       ) -> ReducedSubdomain:
    """Congruence-project one shard and its interface couplings.

    Works entirely from the blocks sliced once at extraction (the shard
    pencil on ``subdomain.system``, the coupling blocks and input rows on
    the :class:`~repro.partition.extract.Subdomain` record) — nothing
    touches the full matrices here, which keeps the per-shard work
    proportional to the shard.

    With a reduced separator basis ``W`` the couplings are projected on
    both sides (``V^T C[int, sep] W`` etc.), completing the global
    congruence with ``blkdiag(V_1, ..., V_k, W)``.
    """
    V = basis
    q = V.shape[1]
    if interface_basis is None:
        n_s = subdomain.C_is.shape[1]
        return ReducedSubdomain(
            index=subdomain.index,
            C=V.T @ (subdomain.system.C @ V),
            G=V.T @ (subdomain.system.G @ V),
            Ec=(subdomain.C_is.T @ V).T if n_s else np.zeros((q, 0)),
            Eg=(subdomain.G_is.T @ V).T if n_s else np.zeros((q, 0)),
            Fc=subdomain.C_si @ V if n_s else np.zeros((0, q)),
            Fg=subdomain.G_si @ V if n_s else np.zeros((0, q)),
            B=(subdomain.B_rows.T @ V).T,
            L=subdomain.system.L @ V,
        )
    W = interface_basis.W
    r_s = W.shape[1]

    def dense(product) -> np.ndarray:
        # Multilevel shard bases are sparse, so coupling products can come
        # out sparse; the two-sided projection below needs ndarrays.
        return (product.toarray() if sp.issparse(product)
                else np.asarray(product))

    return ReducedSubdomain(
        index=subdomain.index,
        C=V.T @ (subdomain.system.C @ V),
        G=V.T @ (subdomain.system.G @ V),
        Ec=(dense(V.T @ (subdomain.C_is @ W)) if r_s
            else np.zeros((q, 0))),
        Eg=(dense(V.T @ (subdomain.G_is @ W)) if r_s
            else np.zeros((q, 0))),
        Fc=(W.T @ dense(subdomain.C_si @ V) if r_s
            else np.zeros((0, q))),
        Fg=(W.T @ dense(subdomain.G_si @ V) if r_s
            else np.zeros((0, q))),
        B=(subdomain.B_rows.T @ V).T,
        L=subdomain.system.L @ V,
    )


@traced("partition.reduce")
def partitioned_reduce(system, n_moments: int, *, s0: complex = 0.0,
                       n_parts: int = 4, partitioner: str = "bfs",
                       method: str = "bdsm",
                       options: BDSMOptions | None = None,
                       interface: PartitionedOptions | None = None,
                       engine: SweepEngine | None = None,
                       n_workers: int = 1,
                       budget: ResourceBudget | None = None,
                       store=None, keep_projection: bool = False,
                       recycle: bool = False,
                       basis_cache: ShardBasisCache | None = None,
                       ) -> tuple[PartitionedROM, OrthoStats, float]:
    """Shard, reduce the subdomains (optionally in parallel), reassemble.

    Parameters
    ----------
    system:
        Object exposing sparse ``C, G, B, L`` in the paper's convention.
    n_moments:
        Moments matched per input column of each shard (original ports and
        promoted interface inputs alike).
    s0:
        Expansion point of the per-shard reductions.
    n_parts:
        Number of subdomains ``k``.
    partitioner:
        Registered partition strategy (see
        :func:`~repro.partition.graph.available_partitioners`).
    method:
        Per-shard reducer: ``"bdsm"`` (per-cluster bases, merged) or
        ``"prima"`` (one block basis per shard).
    options:
        Optional :class:`~repro.core.bdsm.BDSMOptions`; ``deflation_tol``
        and ``solver`` apply to both methods.
    interface:
        Optional :class:`~repro.partition.interface.PartitionedOptions`.
        With ``interface_order`` set, the separator is reduced too: a
        Schur-complement-aware Krylov basis ``W`` spanning the interface
        components of the first ``interface_order`` global moments
        (truncated at ``interface_tol``) replaces the exact interface
        block, and every shard's promoted inputs are compressed to their
        ``W`` images before reduction.  Default/``None`` preserves the
        interface exactly (the original behaviour).
    engine:
        Optional thread-pool :class:`~repro.analysis.engine.SweepEngine`
        whose workers reduce the shards concurrently (shards are
        independent once extracted).  Takes precedence over ``n_workers``.
    n_workers:
        Convenience worker count; values above 1 create a transient
        thread-pool engine for the shard fan-out.
    budget:
        Optional :class:`~repro.mor.base.ResourceBudget`, forwarded to the
        per-shard reducers.
    store:
        Optional :class:`~repro.store.ModelStore`; shard reductions are
        then memoized across processes under partition-aware keys (see
        :func:`partitioned_store_options`).
    keep_projection:
        Keep each shard's merged basis on its
        :class:`~repro.partition.assemble.ReducedSubdomain` record.
    recycle:
        Share shard projection bases between content-identical shards
        through a :class:`~repro.linalg.recycle.ShardBasisCache`:
        sibling shards with the same pencil, ports and interface
        footprint (ubiquitous on regular grids) reuse one Krylov build.
        Hit/miss counts land in ``rom.partition_info["shard_basis_cache"]``.
    basis_cache:
        Explicit shard-basis cache to draw from (implies ``recycle``);
        pass one cache to several reductions to share bases across them.

    Returns
    -------
    tuple(PartitionedROM, OrthoStats, float)
        The coupled macromodel, aggregated orthonormalisation counts
        across all shards, and the wall-clock build time in seconds.
    """
    if n_moments < 1:
        raise PartitionError("n_moments must be >= 1")
    method = str(method).lower()
    if method not in _METHODS:
        raise PartitionError(
            f"unknown partitioned method {method!r}; choose from {_METHODS}")
    if n_workers < 1:
        raise PartitionError("n_workers must be >= 1")
    if engine is not None and engine.executor != "thread":
        raise PartitionError(
            "partitioned shard fan-out needs a thread-pool SweepEngine: "
            "the shards share the in-process store and solver caches")
    opts = options or BDSMOptions()
    budget = budget or ResourceBudget.unlimited()
    if basis_cache is None and recycle:
        basis_cache = ShardBasisCache()

    iface_opts = interface or PartitionedOptions()

    start = time.perf_counter()
    health_mark = begin_reduce_health()
    with trace_span("partition.partition"):
        result = GridPartitioner(k=n_parts,
                                 strategy=partitioner).partition(system)
    with trace_span("partition.extract"):
        subdomains, separator = extract_subdomains(system, result)

    interface_basis: InterfaceBasis | None = None
    if iface_opts.reduces_interface and separator.size:
        with trace_span("partition.interface_basis"):
            interface_basis = interface_krylov_basis(
                subdomains, separator, iface_opts.interface_order,
                s0=s0, tol=iface_opts.interface_tol, solver=opts.solver)
            subdomains = [compress_subdomain(sub, interface_basis)
                          for sub in subdomains]

    def process(subdomain: Subdomain,
                ) -> tuple[ReducedSubdomain, OrthoStats]:
        with trace_span("partition.shard_reduce"):
            basis, stats = _shard_basis(method, subdomain, n_moments, s0,
                                        opts, budget, store, result,
                                        interface=iface_opts,
                                        basis_cache=basis_cache)
        with trace_span("partition.project"):
            reduced = _project_subdomain(subdomain, basis,
                                         interface_basis)
        if keep_projection:
            reduced.basis = basis
        return reduced, stats

    transient_engine = None
    if engine is None and n_workers > 1 and len(subdomains) > 1:
        engine = transient_engine = SweepEngine(jobs=n_workers)
    try:
        if engine is not None and len(subdomains) > 1:
            outcomes = engine.map_scenarios(process, subdomains)
        else:
            outcomes = [process(sub) for sub in subdomains]
    finally:
        if transient_engine is not None:
            transient_engine.close()

    stats = OrthoStats()
    reduced_subdomains: list[ReducedSubdomain] = []
    for reduced, shard_stats in outcomes:
        reduced_subdomains.append(reduced)
        stats.merge(shard_stats)

    info = result.describe()
    if basis_cache is not None:
        info["shard_basis_cache"] = basis_cache.describe()
    if interface_basis is None:
        C_ss, G_ss = separator.C, separator.G
        B_s, L_s = separator.B, separator.L
    else:
        W = interface_basis.W
        C_ss = W.T @ np.asarray(separator.C @ W)
        G_ss = W.T @ np.asarray(separator.G @ W)
        B_s = np.asarray((separator.B.T @ W)).T
        L_s = np.asarray(separator.L @ W)
        info.update(interface_reduced=interface_basis.size,
                    interface_order=interface_basis.order,
                    interface_tol=interface_basis.tol)

    with trace_span("partition.assemble"):
        rom = PartitionedROM(
            reduced_subdomains,
            C_ss=C_ss, G_ss=G_ss, B_s=B_s, L_s=L_s,
            s0=s0, n_moments=n_moments, method=method.upper(),
            partition_info=info,
            original_size=int(to_csr(system.C).shape[0]),
            original_ports=int(to_csr(system.B).shape[1]),
            name=f"{getattr(system, 'name', 'system')}-P{method.upper()}",
            output_names=list(getattr(system, "output_names", []) or []),
            internal_indices=[sub.internal for sub in subdomains],
            interface_indices=separator.indices,
            interface_basis=(None if interface_basis is None
                             else interface_basis.W),
        )
    finish_reduce_health(health_mark, rom, stats,
                         method=f"partitioned-{method.upper()}")
    return rom, stats, time.perf_counter() - start
