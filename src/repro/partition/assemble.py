"""The coupled partitioned macromodel (bordered block-diagonal ROM).

A partitioned reduction replaces each subdomain's internal states with a
reduced coordinate ``z_i = V_i^T x_i`` while keeping the interface states
``x_s`` exactly — or, with interface reduction on
(:mod:`repro.partition.interface`), replacing them too with ``z_s = W^T
x_s`` for a separator Krylov basis ``W``.  Either way it is a congruence
projection of the full pencil with the global block-diagonal basis
``blkdiag(V_1, ..., V_k, I_s or W)``, so the
macromodel inherits the structure-preserving properties of the PRIMA/BDSM
projection framework (passivity-friendly congruence, exact DC match for
``s0 = 0`` bases) while its pencil stays *bordered block-diagonal*:

.. code-block:: text

    [ A_1          E_1(s) ] [z_1]   [B_1]
    [      ...      ...   ] [...] = [...] u,   A_i(s) = s C_i - G_i
    [          A_k E_k(s) ] [z_k]   [B_k]
    [F_1(s) ... F_k(s) A_s] [x_s]   [B_s]

:class:`PartitionedROM` is the :class:`~repro.mor.base.StructuredROM`
with one block per shard plus that border, so queries run through the
shared evaluator: each transfer sample eliminates the subdomain blocks
with small dense solves and couples them through the interface Schur
complement ``A_s - sum_i F_i A_i^{-1} E_i`` — never materialising
anything larger than the interface.  The assembled global sparse
matrices are available (cached) through ``C``/``G``/``B``/``L``, so the
generic analyses (:class:`~repro.analysis.frequency.FrequencyAnalysis`
sweeps, :class:`~repro.analysis.transient.TransientAnalysis`, IR drop)
run on a partitioned macromodel exactly as they do on any other model.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitionError
from repro.mor.base import ROMBlock, StructuredROM

__all__ = ["ReducedSubdomain", "PartitionedROM"]

#: One shard's reduced blocks: a :class:`~repro.mor.base.ROMBlock` with a
#: border (``Ec``/``Eg`` ``q_i x n_s``, ``Fc``/``Fg`` ``n_s x q_i``).
ReducedSubdomain = ROMBlock


class PartitionedROM(StructuredROM):
    """Coupled macromodel of a partitioned reduction.

    Parameters
    ----------
    subdomains:
        One bordered :class:`~repro.mor.base.ROMBlock` per shard, in
        subdomain order, each driven by every port.
    C_ss, G_ss:
        Preserved interface descriptor blocks (``n_s x n_s``, sparse).
    B_s:
        Interface rows of the input matrix (``n_s x m``, sparse).
    L_s:
        Interface columns of the output matrix (``p x n_s``, sparse).
    s0, n_moments:
        Expansion point and per-column moment count of the subdomain
        reductions.
    method:
        Reduction method used per shard (``"BDSM"``/``"PRIMA"``).
    partition_info:
        Summary of the partition (``PartitionResult.describe()``).
    original_size, original_ports, name, output_names:
        Bookkeeping mirrored from the full model.
    internal_indices, interface_indices:
        Optional global state indices of each subdomain's internals and of
        the separator — the row maps :meth:`global_basis` needs to place
        the per-shard bases back into full-model coordinates.
    interface_basis:
        Optional ``n_s x r_s`` separator basis ``W`` when the interface
        was reduced (``None`` = interface preserved exactly).
    """

    _extras = ("partition_info", "internal_indices", "interface_indices",
               "interface_basis")

    def __init__(self, subdomains: list[ROMBlock], *,
                 C_ss, G_ss, B_s, L_s, s0: complex = 0.0,
                 n_moments: int = 0, method: str = "BDSM",
                 partition_info: dict | None = None,
                 original_size: int = 0, original_ports: int = 0,
                 name: str = "partitioned-rom",
                 output_names: list[str] | None = None,
                 internal_indices: list[np.ndarray] | None = None,
                 interface_indices: np.ndarray | None = None,
                 interface_basis: np.ndarray | None = None) -> None:
        method = str(method).upper()
        super().__init__(
            subdomains, n_ports=B_s.shape[1], n_outputs=L_s.shape[0],
            interface=(C_ss, G_ss, B_s, L_s),
            method=method if method.startswith("P-") else f"P-{method}",
            s0=s0, n_moments=n_moments, original_size=original_size,
            original_ports=original_ports, name=name,
            output_names=output_names)
        self.partition_info = dict(partition_info or {})
        self.interface_basis = (None if interface_basis is None
                                else np.atleast_2d(
                                    np.asarray(interface_basis)))
        self.internal_indices = (
            None if internal_indices is None
            else [np.asarray(idx, dtype=np.int64)
                  for idx in internal_indices])
        self.interface_indices = (
            None if interface_indices is None
            else np.asarray(interface_indices, dtype=np.int64))
        if self.interface_basis is not None \
                and self.interface_basis.shape[1] != self.interface_size:
            raise PartitionError(
                f"interface basis retains {self.interface_basis.shape[1]} "
                f"separator states but the interface blocks have "
                f"{self.interface_size}")

    @property
    def subdomains(self) -> list[ROMBlock]:
        """The reduced shards (the diagonal blocks)."""
        return self.blocks

    @property
    def n_subdomains(self) -> int:
        """Number of reduced subdomains ``k``."""
        return self.n_blocks

    @property
    def interface_size(self) -> int:
        """Interface block order: ``n_s`` exact states, or ``r_s`` reduced
        separator coordinates when an interface basis was applied."""
        return self.interface_order

    @property
    def is_interface_reduced(self) -> bool:
        """True when the separator was reduced (not preserved exactly)."""
        return self.interface_basis is not None

    def global_basis(self) -> sp.csr_matrix:
        """The global congruence basis ``blkdiag(V_1, ..., V_k, W)``.

        Returns the sparse ``n x q`` matrix whose columns are the
        macromodel's reduced coordinates expressed in full-model states:
        each subdomain's projection basis scattered to its internal rows,
        followed by the separator basis ``W`` (or the identity, when the
        interface is exact) on the interface rows.  Its columns are
        orthonormal because the blocks occupy disjoint rows.

        This is what lets a macromodel act as a *shard of the next level*
        in :func:`~repro.partition.reduce.multilevel_reduce`: the
        parent projects the shard's couplings, inputs and outputs with
        this basis, as it would with a directly computed shard basis,
        and takes the shard's reduced ``C``/``G`` from this macromodel.

        Requires the reduction to have been run with
        ``keep_projection=True`` (per-shard bases) and the index maps the
        driver records.
        """
        if self.internal_indices is None or self.interface_indices is None:
            raise PartitionError(
                "global_basis() needs the partition index maps; this "
                "macromodel was assembled without them")
        if len(self.internal_indices) != self.n_subdomains:
            raise PartitionError(
                f"{len(self.internal_indices)} index maps for "
                f"{self.n_subdomains} subdomains")
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        offset = 0
        complex_any = False
        for sub, internal in zip(self.subdomains, self.internal_indices):
            if sub.basis is None:
                raise PartitionError(
                    f"subdomain {sub.index} kept no projection basis; "
                    "rerun the reduction with keep_projection=True")
            V = (sub.basis.toarray() if sp.issparse(sub.basis)
                 else np.atleast_2d(np.asarray(sub.basis)))
            if V.shape != (internal.shape[0], sub.order):
                raise PartitionError(
                    f"subdomain {sub.index}: basis shape {V.shape} does "
                    f"not match {internal.shape[0]} states x "
                    f"{sub.order} reduced coordinates")
            q_i = V.shape[1]
            rows.append(np.repeat(internal, q_i))
            cols.append(np.tile(np.arange(offset, offset + q_i),
                                internal.shape[0]))
            data.append(V.ravel())
            complex_any = complex_any or np.iscomplexobj(V)
            offset += q_i
        n_s = self.interface_indices.shape[0]
        if self.interface_basis is not None:
            W = self.interface_basis
            r_s = W.shape[1]
            rows.append(np.repeat(self.interface_indices, r_s))
            cols.append(np.tile(np.arange(offset, offset + r_s), n_s))
            data.append(W.ravel())
            complex_any = complex_any or np.iscomplexobj(W)
            offset += r_s
        elif n_s:
            rows.append(self.interface_indices)
            cols.append(np.arange(offset, offset + n_s))
            data.append(np.ones(n_s))
            offset += n_s
        if offset != self.size:
            raise PartitionError(
                f"global basis spans {offset} columns but the macromodel "
                f"has {self.size} states")
        dtype = complex if complex_any else float
        n = self.original_size
        return sp.csr_matrix(
            (np.concatenate([d.astype(dtype) for d in data])
             if data else np.zeros(0, dtype=dtype),
             (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64),
              np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64))),
            shape=(n, offset))
