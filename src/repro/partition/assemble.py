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

:class:`PartitionedROM` stores exactly those blocks and evaluates queries
hierarchically: each transfer sample eliminates the subdomain blocks with
small dense solves and couples them through the interface Schur complement
``A_s - sum_i F_i A_i^{-1} E_i`` — never materialising anything larger
than the interface.  The assembled global sparse matrices are still
available (cached) through ``C``/``G``/``B``/``L``, so the generic
analyses (:class:`~repro.analysis.frequency.FrequencyAnalysis` sweeps,
:class:`~repro.analysis.transient.TransientAnalysis`, IR drop) run on a
partitioned macromodel exactly as they do on any other model — downstream
code is oblivious to the sharding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitionError
from repro.linalg.sparse_utils import nnz_density
from repro.mor.base import ReducedSystem, ReductionSummary

__all__ = ["ReducedSubdomain", "PartitionedROM"]


def _dense_block(matrix) -> np.ndarray:
    """Densify a reduced block preserving complexness (ints become float).

    The float-coercing ``np.asarray(..., dtype=float)`` pattern silently
    drops the imaginary part of complex systems (e.g. a grid observed
    through a complex output matrix) — the same bug class
    :meth:`~repro.mor.base.ReducedSystem._dense` fixed for the monolithic
    ROMs.
    """
    if sp.issparse(matrix):
        return np.atleast_2d(matrix.toarray())
    arr = np.atleast_2d(np.asarray(matrix))
    if np.iscomplexobj(arr):
        return arr.astype(complex, copy=False)
    return arr.astype(float, copy=False)


@dataclass
class ReducedSubdomain:
    """One subdomain's reduced blocks inside a :class:`PartitionedROM`.

    Attributes
    ----------
    index:
        Subdomain number in ``[0, k)``.
    C, G:
        ``q_i x q_i`` reduced internal descriptor blocks
        (``V_i^T C_ii V_i`` etc.).
    Ec, Eg:
        ``q_i x n_s`` reduced internal-to-interface couplings
        (``V_i^T C[int, sep]`` and ``V_i^T G[int, sep]``).
    Fc, Fg:
        ``n_s x q_i`` interface-to-internal couplings
        (``C[sep, int] V_i`` and ``G[sep, int] V_i``).
    B:
        ``q_i x m`` reduced input block ``V_i^T B[int, :]``.
    L:
        ``p x q_i`` reduced output slice ``L[:, int] V_i``.
    basis:
        Optional ``n_i x q_i`` projection basis (kept only on request).
    """

    index: int
    C: np.ndarray
    G: np.ndarray
    Ec: np.ndarray
    Eg: np.ndarray
    Fc: np.ndarray
    Fg: np.ndarray
    B: np.ndarray
    L: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.C = _dense_block(self.C)
        self.G = _dense_block(self.G)
        q = self.C.shape[0]
        if self.C.shape != (q, q) or self.G.shape != (q, q):
            raise PartitionError(
                f"subdomain {self.index}: C and G must be square and "
                "equal-sized")
        for name in ("Ec", "Eg", "Fc", "Fg", "B", "L"):
            setattr(self, name, _dense_block(getattr(self, name)))
        n_s = self.Ec.shape[1]
        if self.Eg.shape != (q, n_s) or self.Ec.shape != (q, n_s):
            raise PartitionError(
                f"subdomain {self.index}: interface couplings E have "
                "inconsistent shapes")
        if self.Fc.shape != (n_s, q) or self.Fg.shape != (n_s, q):
            raise PartitionError(
                f"subdomain {self.index}: interface couplings F have "
                "inconsistent shapes")
        if self.B.shape[0] != q or self.L.shape[1] != q:
            raise PartitionError(
                f"subdomain {self.index}: B/L dimensions are inconsistent")

    @property
    def order(self) -> int:
        """Reduced size ``q_i`` of this subdomain."""
        return int(self.C.shape[0])


class PartitionedROM:
    """Coupled macromodel of a partitioned reduction.

    Parameters
    ----------
    subdomains:
        One :class:`ReducedSubdomain` per shard, in subdomain order.
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

    def __init__(self, subdomains: list[ReducedSubdomain], *,
                 C_ss, G_ss, B_s, L_s, s0: complex = 0.0,
                 n_moments: int = 0, method: str = "BDSM",
                 partition_info: dict | None = None,
                 original_size: int = 0, original_ports: int = 0,
                 name: str = "partitioned-rom",
                 output_names: list[str] | None = None,
                 internal_indices: list[np.ndarray] | None = None,
                 interface_indices: np.ndarray | None = None,
                 interface_basis: np.ndarray | None = None) -> None:
        if not subdomains:
            raise PartitionError(
                "a PartitionedROM needs at least one subdomain")
        self.subdomains = list(subdomains)
        self.C_ss = sp.csr_matrix(C_ss)
        self.G_ss = sp.csr_matrix(G_ss)
        self.B_s = sp.csr_matrix(B_s)
        self.L_s = sp.csr_matrix(L_s)
        n_s = self.C_ss.shape[0]
        if self.C_ss.shape != (n_s, n_s) or self.G_ss.shape != (n_s, n_s):
            raise PartitionError("interface blocks must be square")
        if self.B_s.shape[0] != n_s or self.L_s.shape[1] != n_s:
            raise PartitionError("interface B/L dimensions are inconsistent")
        for sub in self.subdomains:
            if sub.Ec.shape[1] != n_s:
                raise PartitionError(
                    f"subdomain {sub.index} couples to {sub.Ec.shape[1]} "
                    f"interface states, expected {n_s}")
            if sub.B.shape[1] != self.B_s.shape[1]:
                raise PartitionError(
                    f"subdomain {sub.index} sees {sub.B.shape[1]} ports, "
                    f"expected {self.B_s.shape[1]}")
            if sub.L.shape[0] != self.L_s.shape[0]:
                raise PartitionError(
                    f"subdomain {sub.index} has {sub.L.shape[0]} output "
                    f"rows, expected {self.L_s.shape[0]}")
        self.s0 = s0
        self.n_moments = int(n_moments)
        method = str(method).upper()
        self.method = method if method.startswith("P-") else f"P-{method}"
        self.partition_info = dict(partition_info or {})
        self.original_size = int(original_size)
        self.original_ports = int(original_ports)
        self.name = name
        self.output_names = list(output_names or [])
        self.reusable = True
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
                and self.interface_basis.shape[1] != n_s:
            raise PartitionError(
                f"interface basis retains {self.interface_basis.shape[1]} "
                f"separator states but the interface blocks have {n_s}")
        self._cache: dict[str, sp.spmatrix] = {}
        self._dense_interface: tuple[np.ndarray, ...] | None = None
        self._reduced_system: ReducedSystem | None = None

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def n_subdomains(self) -> int:
        """Number of reduced subdomains ``k``."""
        return len(self.subdomains)

    @property
    def interface_size(self) -> int:
        """Interface block order: ``n_s`` exact states, or ``r_s`` reduced
        separator coordinates when an interface basis was applied."""
        return int(self.C_ss.shape[0])

    @property
    def is_interface_reduced(self) -> bool:
        """True when the separator was reduced (not preserved exactly)."""
        return self.interface_basis is not None

    @property
    def size(self) -> int:
        """Total macromodel order: reduced subdomains plus interface."""
        return sum(sub.order for sub in self.subdomains) \
            + self.interface_size

    @property
    def n_ports(self) -> int:
        """Number of input ports ``m`` (unchanged by partitioning)."""
        return int(self.B_s.shape[1])

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p``."""
        return int(self.L_s.shape[0])

    # ------------------------------------------------------------------ #
    # Assembled global matrices (sparse, bordered block-diagonal), cached
    # ------------------------------------------------------------------ #
    def _assemble(self, internal: str, coupling_e: str, coupling_f: str,
                  corner: sp.spmatrix) -> sp.csr_matrix:
        k = self.n_subdomains
        grid: list[list[object]] = [[None] * (k + 1) for _ in range(k + 1)]
        for pos, sub in enumerate(self.subdomains):
            grid[pos][pos] = getattr(sub, internal)
            grid[pos][k] = getattr(sub, coupling_e)
            grid[k][pos] = getattr(sub, coupling_f)
        grid[k][k] = corner
        return sp.bmat(grid, format="csr")

    @property
    def C(self) -> sp.csr_matrix:
        """Global bordered block-diagonal ``C_r`` (sparse CSR)."""
        if "C" not in self._cache:
            self._cache["C"] = self._assemble("C", "Ec", "Fc", self.C_ss)
        return self._cache["C"]

    @property
    def G(self) -> sp.csr_matrix:
        """Global bordered block-diagonal ``G_r`` (sparse CSR)."""
        if "G" not in self._cache:
            self._cache["G"] = self._assemble("G", "Eg", "Fg", self.G_ss)
        return self._cache["G"]

    @property
    def B(self) -> sp.csr_matrix:
        """Global ``B_r``: stacked subdomain input blocks over ``B_s``."""
        if "B" not in self._cache:
            self._cache["B"] = sp.vstack(
                [sp.csr_matrix(sub.B) for sub in self.subdomains]
                + [self.B_s], format="csr")
        return self._cache["B"]

    @property
    def L(self) -> sp.csr_matrix:
        """Global ``L_r = [L_1, ..., L_k, L_s]`` (sparse CSR)."""
        if "L" not in self._cache:
            self._cache["L"] = sp.hstack(
                [sp.csr_matrix(sub.L) for sub in self.subdomains]
                + [self.L_s], format="csr")
        return self._cache["L"]

    @property
    def nnz(self) -> int:
        """Stored non-zeros in the assembled ``C_r``, ``G_r`` and ``B_r``."""
        return int(self.C.nnz + self.G.nnz + self.B.nnz)

    def density(self) -> dict[str, float]:
        """Per-matrix non-zero density of the assembled macromodel."""
        return {
            "C": nnz_density(self.C),
            "G": nnz_density(self.G),
            "B": nnz_density(self.B),
            "L": nnz_density(self.L),
        }

    # ------------------------------------------------------------------ #
    # Hierarchical transfer evaluation (interface Schur complement)
    # ------------------------------------------------------------------ #
    def _schur_solve(self, s: complex, rhs_cols: np.ndarray | None = None,
                     ) -> np.ndarray:
        """Outputs ``y = L x`` of the coupled pencil solve at ``s``.

        ``rhs_cols`` selects input columns (``None`` = all ports).  Each
        subdomain is eliminated with one small dense multi-RHS solve, the
        interface couples them through the Schur complement, and the
        back-substitution is folded directly into the output projection —
        nothing larger than ``n_s + q_i`` is ever factorised.
        """
        cols = (np.arange(self.n_ports) if rhs_cols is None
                else np.asarray(rhs_cols, dtype=np.int64).reshape(-1))
        n_s = self.interface_size
        # The interface blocks are densified once and reused across every
        # subsequent sample: frequency sweeps and agreement reports call
        # this per omega, and re-densifying the (possibly large, exact)
        # separator pencil each time dominated the query cost.
        if self._dense_interface is None:
            self._dense_interface = (self.C_ss.toarray(),
                                     self.G_ss.toarray(),
                                     self.B_s.toarray())
        C_ss, G_ss, B_full = self._dense_interface
        S = np.asarray(s * C_ss - G_ss, dtype=complex)
        R = np.array(B_full[:, cols], dtype=complex)
        # Per-subdomain eliminations, each contributing to the Schur
        # complement and the reduced right-hand side.
        eliminated = []
        for sub in self.subdomains:
            A_i = s * sub.C - sub.G
            E_i = s * sub.Ec - sub.Eg
            F_i = s * sub.Fc - sub.Fg
            rhs = np.hstack([sub.B[:, cols], E_i]).astype(complex)
            try:
                X = np.linalg.solve(A_i, rhs)
            except np.linalg.LinAlgError as exc:
                raise PartitionError(
                    f"subdomain {sub.index}: reduced pencil singular at "
                    f"s={s}: {exc}") from exc
            X_B, X_E = X[:, :cols.size], X[:, cols.size:]
            S -= F_i @ X_E
            R -= F_i @ X_B
            eliminated.append((sub, X_B, X_E))
        if n_s:
            try:
                x_s = np.linalg.solve(S, R)
            except np.linalg.LinAlgError as exc:
                raise PartitionError(
                    f"interface Schur complement singular at s={s}: {exc}"
                ) from exc
        else:
            x_s = np.zeros((0, cols.size), dtype=complex)
        y = np.asarray(self.L_s @ x_s, dtype=complex)
        for sub, X_B, X_E in eliminated:
            y += sub.L @ (X_B - X_E @ x_s)
        return y

    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate the full ``p x m`` transfer matrix hierarchically."""
        return self._schur_solve(s)

    def transfer_entry(self, s: complex, output: int, port: int) -> complex:
        """Evaluate one transfer-matrix entry (single-column Schur solve)."""
        if not 0 <= port < self.n_ports:
            raise PartitionError(f"port {port} out of range")
        if not 0 <= output < self.n_outputs:
            raise PartitionError(f"output {output} out of range")
        column = self._schur_solve(s, rhs_cols=np.asarray([port]))
        return complex(column[output, 0])

    # ------------------------------------------------------------------ #
    # Conversions and reports
    # ------------------------------------------------------------------ #
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

    def to_reduced_system(self) -> ReducedSystem:
        """Densify into a :class:`~repro.mor.base.ReducedSystem` (cached).

        Gives up the bordered structure; only do this for small
        macromodels (dense comparisons, artifact export).
        """
        if self._reduced_system is None:
            self._reduced_system = ReducedSystem(
                C=self.C.toarray(), G=self.G.toarray(),
                B=self.B.toarray(), L=self.L.toarray(),
                method=self.method, s0=self.s0, n_moments=self.n_moments,
                reusable=True, original_size=self.original_size,
                original_ports=self.original_ports, name=self.name)
        return self._reduced_system

    def summary(self, *, mor_seconds: float | None = None,
                ortho_stats=None) -> ReductionSummary:
        """Build the Table II style record for this macromodel."""
        return ReductionSummary(
            method=self.method,
            benchmark=self.name,
            original_size=self.original_size,
            original_ports=self.original_ports,
            rom_size=self.size,
            rom_nnz=self.nnz,
            matched_moments=self.n_moments,
            reusable=True,
            mor_seconds=mor_seconds,
            ortho_inner_products=(ortho_stats.inner_products
                                  if ortho_stats else None),
            status="ok",
            extra=dict(self.partition_info),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PartitionedROM(k={self.n_subdomains}, q={self.size}, "
                f"interface={self.interface_size}, m={self.n_ports}, "
                f"p={self.n_outputs})")
