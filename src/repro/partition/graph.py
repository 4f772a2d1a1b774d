"""Node-graph partitioning for domain-decomposed reduction.

The paper's whole argument is that block structure makes reduction scale;
this module supplies the *graph* side of that story.  A descriptor system's
states form a graph whose edges are the off-diagonal non-zeros of ``C`` and
``G`` (rail resistors, capacitive coupling, branch incidences).  A
:class:`GridPartitioner` splits that graph into ``k`` balanced subdomains
and identifies the *interface separator*: every endpoint of an edge whose
two ends landed in different subdomains.  Removing the separator leaves the
subdomains mutually decoupled — permuting states to
``[internal_1, ..., internal_k, interface]`` puts the pencil in bordered
block-diagonal (arrowhead) form, which is what the extraction and assembly
stages of :mod:`repro.partition` rely on.

Two partition *strategies* are available:

``bfs`` (default)
    Graph-growing: each subdomain is grown breadth-first from a
    low-degree (peripheral) seed until it reaches its balanced target
    size.  Deterministic, topology-aware, and O(edges).
``natural``
    Contiguous index ranges.  MNA orders mesh nodes row-major, so this
    yields horizontal slabs on grid benchmarks — the cheapest possible
    strategy and a useful baseline for interface-size comparisons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitionError
from repro.linalg.sparse_utils import to_csr

__all__ = [
    "GridPartitioner",
    "PartitionResult",
    "available_partitioners",
    "structure_adjacency",
]


def structure_adjacency(system) -> sp.csr_matrix:
    """Symmetric boolean adjacency of a descriptor system's state graph.

    Two states are adjacent when either ``C`` or ``G`` couples them (an
    off-diagonal structural non-zero in either direction).  Accepts any
    object exposing ``C`` and ``G`` or a single square sparse matrix.
    """
    if sp.issparse(system) or isinstance(system, np.ndarray):
        pattern = to_csr(system).astype(bool)
    else:
        pattern = (to_csr(system.C).astype(bool)
                   + to_csr(system.G).astype(bool))
    n = pattern.shape[0]
    if pattern.shape != (n, n):
        raise PartitionError(
            f"adjacency needs a square structure, got {pattern.shape}")
    coo = (pattern + pattern.T).tocoo()
    off_diag = coo.row != coo.col
    adj = sp.csr_matrix(
        (np.ones(int(off_diag.sum()), dtype=bool),
         (coo.row[off_diag], coo.col[off_diag])), shape=(n, n))
    adj.sum_duplicates()
    return adj


def _natural_labels(adj: sp.csr_matrix, k: int) -> np.ndarray:
    """Contiguous index ranges (row-major slabs on mesh benchmarks)."""
    n = adj.shape[0]
    labels = np.empty(n, dtype=np.int64)
    bounds = np.linspace(0, n, k + 1).astype(int)
    for part, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        labels[lo:hi] = part
    return labels


def _bfs_labels(adj: sp.csr_matrix, k: int) -> np.ndarray:
    """Balanced graph-growing BFS from peripheral (low-degree) seeds.

    Each subdomain grows breadth-first from the lowest-degree unassigned
    node until it reaches ``ceil(remaining / parts_left)`` states, so the
    parts stay balanced even on irregular graphs (blockage voids, package
    trees).  A part whose frontier dries up (disconnected component) is
    re-seeded from the next unassigned node, so every state is always
    assigned.
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    degrees = np.diff(indptr)
    labels = np.full(n, -1, dtype=np.int64)
    # Peripheral seeds first: sort once by (degree, index) for determinism.
    seed_order = np.lexsort((np.arange(n), degrees))
    seed_cursor = 0
    assigned = 0
    for part in range(k):
        target = -(-(n - assigned) // (k - part))  # ceil of the remainder
        grown = 0
        queue: deque[int] = deque()
        while grown < target:
            if not queue:
                while (seed_cursor < n
                       and labels[seed_order[seed_cursor]] >= 0):
                    seed_cursor += 1
                if seed_cursor >= n:
                    break
                seed = int(seed_order[seed_cursor])
                labels[seed] = part
                grown += 1
                queue.append(seed)
                continue
            node = queue.popleft()
            for nb in indices[indptr[node]:indptr[node + 1]]:
                if labels[nb] < 0 and grown < target:
                    labels[nb] = part
                    grown += 1
                    queue.append(int(nb))
        assigned += grown
    return labels


#: name -> fn(adj: csr, k: int) -> labels (length-n int array in [0, k)).
_STRATEGIES = {"bfs": _bfs_labels, "natural": _natural_labels}


def available_partitioners() -> list[str]:
    """Names of the partition strategies."""
    return sorted(_STRATEGIES)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of partitioning one state graph into ``k`` subdomains.

    Attributes
    ----------
    labels:
        Length-``n`` subdomain label per state (separator states keep the
        label of the part they were grown into).
    parts:
        Per-subdomain sorted arrays of *internal* state indices (separator
        states excluded).
    interface:
        Sorted array of separator state indices — every endpoint of an
        edge crossing a subdomain boundary.  Promoting these to preserved
        ports decouples the subdomains.
    k:
        Number of subdomains.
    strategy:
        Name of the strategy that produced the labels.
    """

    labels: np.ndarray
    parts: tuple = field(default=())
    interface: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    k: int = 0
    strategy: str = ""

    @property
    def n_states(self) -> int:
        """Total number of partitioned states."""
        return int(self.labels.shape[0])

    @property
    def sizes(self) -> list[int]:
        """Internal state count per subdomain."""
        return [int(part.shape[0]) for part in self.parts]

    @property
    def interface_size(self) -> int:
        """Number of separator (interface) states."""
        return int(self.interface.shape[0])

    @property
    def interface_fraction(self) -> float:
        """Separator share of all states — the sharding overhead metric."""
        return self.interface_size / max(self.n_states, 1)

    @property
    def balance(self) -> float:
        """Largest over smallest internal subdomain size (1.0 = perfect)."""
        sizes = self.sizes
        return max(sizes) / max(min(sizes), 1)

    def describe(self) -> dict[str, object]:
        """Summary record for reports and CLI output."""
        return {
            "k": self.k,
            "strategy": self.strategy,
            "sizes": self.sizes,
            "interface": self.interface_size,
            "interface_fraction": round(self.interface_fraction, 4),
            "balance": round(self.balance, 3),
        }


@dataclass(frozen=True)
class GridPartitioner:
    """Splits a descriptor system's state graph into balanced subdomains.

    Parameters
    ----------
    k:
        Number of subdomains (``>= 1``).
    strategy:
        Registered strategy name (see :func:`available_partitioners`).

    Examples
    --------
    >>> from repro import make_benchmark
    >>> from repro.partition import GridPartitioner
    >>> system = make_benchmark("ckt1", scale="smoke")
    >>> result = GridPartitioner(k=4).partition(system)
    >>> result.k, len(result.parts)
    (4, 4)
    """

    k: int
    strategy: str = "bfs"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PartitionError("k must be >= 1")
        if self.strategy not in _STRATEGIES:
            raise PartitionError(
                f"unknown partition strategy {self.strategy!r}; "
                f"available: {available_partitioners()}")

    def partition(self, system) -> PartitionResult:
        """Partition ``system`` (or an adjacency matrix) into ``k`` parts.

        Accepts a :class:`~repro.circuit.mna.DescriptorSystem` (or any
        object exposing ``C``/``G``), a :class:`~repro.circuit.netlist.\
Netlist` (stamped on the fly), or a square sparse adjacency matrix.
        """
        system = _as_partitionable(system)
        adj = structure_adjacency(system)
        n = adj.shape[0]
        if self.k > n:
            raise PartitionError(
                f"cannot split {n} states into {self.k} subdomains")
        labels = _STRATEGIES[self.strategy](adj, self.k)
        interface_mask = _separator_mask(adj, labels)
        parts = []
        for part in range(self.k):
            internal = np.flatnonzero((labels == part) & ~interface_mask)
            if internal.size == 0 and self.k > 1:
                raise PartitionError(
                    f"subdomain {part} was swallowed whole by the "
                    f"interface separator; reduce k (currently {self.k}) "
                    "or use a coarser strategy")
            parts.append(internal)
        return PartitionResult(
            labels=labels, parts=tuple(parts),
            interface=np.flatnonzero(interface_mask),
            k=self.k, strategy=self.strategy)


def _as_partitionable(system):
    """Stamp netlists on the fly; pass everything else through."""
    # Imported lazily: circuit -> linalg is the package's dependency
    # direction, and partition sits beside core.
    from repro.circuit.mna import assemble_mna
    from repro.circuit.netlist import Netlist

    if isinstance(system, Netlist):
        return assemble_mna(system)
    return system


def _separator_mask(adj: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of states incident to a cross-subdomain edge."""
    n = adj.shape[0]
    row_labels = np.repeat(labels, np.diff(adj.indptr))
    col_labels = labels[adj.indices]
    cross = row_labels != col_labels
    mask = np.zeros(n, dtype=bool)
    mask[adj.indices[cross]] = True
    mask[np.repeat(np.arange(n), np.diff(adj.indptr))[cross]] = True
    return mask
