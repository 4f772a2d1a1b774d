"""Multilevel (nested-dissection-style) partitioned reduction.

One level of partitioned reduction splits the grid into ``k`` subdomains
around a separator; :func:`multilevel_reduce` applies that construction
*recursively*: each level-``j`` shard is itself partitioned, reduced and
reassembled, and the child macromodel's global congruence basis
(:meth:`~repro.partition.assemble.PartitionedROM.global_basis`,
``blkdiag(V_1, ..., V_k, W)`` scattered back to shard coordinates) becomes
the parent's projection basis for that shard.  Because every level is a
congruence projection with an orthonormal (block-diagonal, hence globally
orthonormal) basis, the composition is again a congruence projection of
the full pencil — the assembled macromodel keeps the structure-preserving
properties of the single-level driver at every depth.

This is the hierarchy the paper's block-structure argument points at: at
scale, a single level's shards are still large enough that their own
reductions dominate, so the recursion re-applies the same
divide-and-conquer until the pieces are small.  Shards below
``min_states`` stop recursing and are reduced directly — partitioning a
tiny shard would drown it in separator states.

Entry point: :func:`multilevel_reduce`, or the CLI's
``repro reduce --partitions K --levels L``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.analysis.engine import SweepEngine
from repro.core.bdsm import BDSMOptions
from repro.exceptions import PartitionError
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import ShardBasisCache
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.partition.assemble import PartitionedROM, ReducedSubdomain
from repro.partition.extract import Subdomain, extract_subdomains
from repro.partition.graph import GridPartitioner
from repro.partition.interface import (
    InterfaceBasis,
    PartitionedOptions,
    compress_subdomain,
    interface_krylov_basis,
)
from repro.partition.reduce import (
    _METHODS,
    _project_subdomain,
    _shard_basis,
    partitioned_reduce,
)
from repro.obs.tracing import trace_span, traced

__all__ = ["multilevel_reduce"]

#: Shards smaller than this stop recursing and are reduced directly: the
#: separator of a tiny shard would swallow a large fraction of its states.
MIN_RECURSION_STATES = 256


def _project_recursive(subdomain: Subdomain, child_rom: PartitionedROM,
                       V: sp.spmatrix,
                       interface_basis: InterfaceBasis | None,
                       ) -> ReducedSubdomain:
    """Parent-level blocks of a recursively reduced shard.

    The child macromodel *is* a congruence projection of the shard pencil
    with ``V = child_rom.global_basis()``: its assembled sparse ``C``/``G``
    already equal ``V^T C_ii V`` / ``V^T G_ii V`` block for block.
    Re-projecting the shard pencil with the (wide, dense-blocked) child
    basis — what :func:`~repro.partition.reduce._project_subdomain` would
    do — redoes the two most expensive products of the whole level in
    non-BLAS sparse kernels.  Here only the thin coupling, input and
    output blocks are formed; every product is sparse-times-thin.
    """
    q = child_rom.size

    def dense(product) -> np.ndarray:
        return (product.toarray() if sp.issparse(product)
                else np.asarray(product))

    if interface_basis is None:
        n_s = subdomain.C_is.shape[1]
        Ec = dense(subdomain.C_is.T @ V).T if n_s else np.zeros((q, 0))
        Eg = dense(subdomain.G_is.T @ V).T if n_s else np.zeros((q, 0))
        Fc = dense(subdomain.C_si @ V) if n_s else np.zeros((0, q))
        Fg = dense(subdomain.G_si @ V) if n_s else np.zeros((0, q))
    else:
        W = interface_basis.W
        r_s = W.shape[1]
        Ec = (dense(V.T @ (subdomain.C_is @ W)) if r_s
              else np.zeros((q, 0)))
        Eg = (dense(V.T @ (subdomain.G_is @ W)) if r_s
              else np.zeros((q, 0)))
        Fc = (W.T @ dense(subdomain.C_si @ V) if r_s
              else np.zeros((0, q)))
        Fg = (W.T @ dense(subdomain.G_si @ V) if r_s
              else np.zeros((0, q)))
    return ReducedSubdomain(
        index=subdomain.index,
        C=child_rom.C,
        G=child_rom.G,
        Ec=Ec, Eg=Eg, Fc=Fc, Fg=Fg,
        B=dense(subdomain.B_rows.T @ V).T,
        L=dense(subdomain.system.L @ V),
    )


@traced("partition.multilevel_reduce")
def multilevel_reduce(system, n_moments: int, *, levels: int = 1,
                      s0: complex = 0.0, n_parts: int = 4,
                      partitioner: str = "bfs", method: str = "bdsm",
                      options: BDSMOptions | None = None,
                      interface: PartitionedOptions | None = None,
                      engine: SweepEngine | None = None,
                      n_workers: int = 1,
                      budget: ResourceBudget | None = None,
                      store=None, keep_projection: bool = False,
                      min_states: int = MIN_RECURSION_STATES,
                      recycle: bool = False,
                      basis_cache: ShardBasisCache | None = None,
                      ) -> tuple[PartitionedROM, OrthoStats, float]:
    """Recursively partitioned reduction, ``levels`` deep.

    ``levels=1`` is exactly :func:`~repro.partition.reduce.\
partitioned_reduce`.  For ``levels > 1`` the system is partitioned into
    ``n_parts`` subdomains and each shard large enough to be worth
    splitting (``>= min_states`` states) is reduced by a recursive call
    one level shallower; its macromodel's
    :meth:`~repro.partition.assemble.PartitionedROM.global_basis` is the
    shard's projection basis at this level.  Small shards fall back to the
    direct per-shard reducers.

    All accuracy knobs (``n_moments``, ``s0``, ``interface``) apply at
    *every* level; the worker fan-out (``engine`` / ``n_workers``) applies
    to the top level only — recursive calls run serially inside their
    worker so the pool is never oversubscribed.

    Returns the same ``(rom, stats, seconds)`` triple as the single-level
    driver; ``rom.partition_info`` carries ``levels`` and one summary per
    child.

    With ``recycle=True`` one :class:`~repro.linalg.recycle.ShardBasisCache`
    is shared by the whole hierarchy — sibling shards at this level and
    every shard of every recursive call below it — so content-identical
    shards anywhere in the tree pay for one Krylov build.
    """
    if levels < 1:
        raise PartitionError("levels must be >= 1")
    if min_states < 1:
        raise PartitionError("min_states must be >= 1")
    if basis_cache is None and recycle:
        basis_cache = ShardBasisCache()
    if levels == 1:
        return partitioned_reduce(
            system, n_moments, s0=s0, n_parts=n_parts,
            partitioner=partitioner, method=method, options=options,
            interface=interface, engine=engine, n_workers=n_workers,
            budget=budget, store=store, keep_projection=keep_projection,
            basis_cache=basis_cache)

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
    iface_opts = interface or PartitionedOptions()

    start = time.perf_counter()
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

    children: list[dict | None] = [None] * len(subdomains)

    def process(subdomain: Subdomain,
                ) -> tuple[ReducedSubdomain, OrthoStats]:
        if subdomain.size >= max(min_states, 2 * n_parts):
            try:
                child_rom, child_stats, _ = multilevel_reduce(
                    subdomain.system, n_moments, levels=levels - 1, s0=s0,
                    n_parts=n_parts, partitioner=partitioner,
                    method=method, options=options, interface=interface,
                    budget=budget, store=store, keep_projection=True,
                    min_states=min_states, basis_cache=basis_cache)
            except PartitionError:
                # The shard is too small/irregular to split again (e.g. a
                # part swallowed whole by its separator): degrade to a
                # direct reduction instead of failing the whole hierarchy.
                child_rom = None
            if child_rom is not None:
                basis = child_rom.global_basis()
                children[subdomain.index] = dict(child_rom.partition_info,
                                                 size=child_rom.size)
                with trace_span("partition.project"):
                    reduced = _project_recursive(subdomain, child_rom,
                                                 basis, interface_basis)
                if keep_projection:
                    reduced.basis = basis
                return reduced, child_stats
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
    info["levels"] = int(levels)
    info["children"] = [child for child in children if child is not None]
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
            name=(f"{getattr(system, 'name', 'system')}"
                  f"-ML{levels}{method.upper()}"),
            output_names=list(getattr(system, "output_names", []) or []),
            internal_indices=[sub.internal for sub in subdomains],
            interface_indices=separator.indices,
            interface_basis=(None if interface_basis is None
                             else interface_basis.W),
        )
    return rom, stats, time.perf_counter() - start
