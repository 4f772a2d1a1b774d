"""Partitioned hierarchical reduction: shard, reduce in parallel, reassemble.

The paper's block-diagonal structure argument makes *reduction* scale with
the port count; this subsystem makes it scale with the *node* count too.
A huge grid is split into ``k`` balanced subdomains
(:class:`~repro.partition.graph.GridPartitioner`, ``bfs`` or ``natural``),
each subdomain becomes a valid descriptor system with its interface
couplings promoted to preserved ports
(:func:`~repro.partition.extract.extract_subdomains`), the shards are
reduced independently — optionally fanned over a
:class:`~repro.analysis.engine.SweepEngine` pool with per-shard
:class:`~repro.store.ModelStore` memoization — and the reduced pieces are
reassembled into a coupled
:class:`~repro.partition.assemble.PartitionedROM` whose interface states
are preserved exactly.  The macromodel is a
:class:`~repro.mor.base.StructuredROM` with a border, so it answers every
ROM query (transfer function, frequency sweeps, transient, IR drop) — the
transfer samples through the interface Schur complement — and downstream
analyses never notice the sharding.

Entry points: :func:`~repro.partition.reduce.partitioned_reduce` and its
recursive generalisation :func:`~repro.partition.reduce.multilevel_reduce`
(one driver body; ``partitioned_reduce`` is the ``levels=1`` case), or the
CLI's ``repro reduce --partitions K --partitioner NAME [--levels L]``.
"""

from repro.partition.assemble import PartitionedROM, ReducedSubdomain
from repro.partition.extract import (
    SeparatorBlock,
    Subdomain,
    extract_subdomains,
)
from repro.partition.graph import (
    GridPartitioner,
    PartitionResult,
    available_partitioners,
    structure_adjacency,
)
from repro.partition.interface import (
    DEFAULT_INTERFACE_TOL,
    InterfaceBasis,
    PartitionedOptions,
    compress_subdomain,
    interface_krylov_basis,
)
from repro.partition.reduce import (
    multilevel_reduce,
    partitioned_reduce,
    partitioned_store_options,
)

__all__ = [
    "DEFAULT_INTERFACE_TOL",
    "GridPartitioner",
    "InterfaceBasis",
    "PartitionResult",
    "PartitionedOptions",
    "PartitionedROM",
    "ReducedSubdomain",
    "SeparatorBlock",
    "Subdomain",
    "available_partitioners",
    "compress_subdomain",
    "extract_subdomains",
    "interface_krylov_basis",
    "multilevel_reduce",
    "partitioned_reduce",
    "partitioned_store_options",
    "structure_adjacency",
]
