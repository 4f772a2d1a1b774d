"""Modified nodal analysis (MNA) stamping and the descriptor-system container.

The paper works with the descriptor model (its Eq. 1)

    C dx/dt = G x + B u(t),       y = L x,

whose transfer matrix is ``H(s) = L (sC - G)^{-1} B``.  Note the sign
convention: the paper's ``G`` is the *negative* of the usual (positive
semi-definite) MNA conductance matrix, so that ``(s0 C - G)`` is the familiar
``s0 C + G_mna`` pencil and is non-singular for any ``s0 >= 0`` on a grounded
RLC network.  :func:`assemble_mna` stamps the standard passivity-friendly MNA
form

    [ Gn   E ] [v]     [ Cn  0 ] d [v]     [ Bn ]
    [          ]    +  [        ]---    =  [    ] u(t)
    [ -E^T  0 ] [i]    [ 0   M ] dt[i]     [ 0  ]

(``v`` node voltages, ``i`` inductor / voltage-source branch currents) and
returns a :class:`DescriptorSystem` already converted to the paper's
convention (``G = -G_mna``).  Each matrix is one COO call over the
netlist's columns: resistors and capacitors share one two-terminal stamp,
inductor and voltage-source branches share one incidence stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import GROUND, Netlist
from repro.exceptions import StampingError
from repro.linalg.krylov import ShiftedOperator
from repro.linalg.sparse_utils import sparsity_info, to_csr

__all__ = ["DescriptorSystem", "assemble_mna"]


@dataclass
class DescriptorSystem:
    """Linear descriptor system ``C dx/dt = G x + B u, y = L x``.

    This is the common currency of the whole library: the MNA stamper
    produces one, every reducer consumes one, and the reduced models mimic
    its interface so analyses run unchanged on full and reduced systems.

    Attributes
    ----------
    C, G:
        ``n x n`` sparse descriptor matrices in the *paper's* sign convention
        (``G`` is negative semi-definite for RLC grids).
    B:
        ``n x m`` sparse input incidence matrix (one column per current-source
        port).
    L:
        ``p x n`` sparse output selection matrix.
    state_names:
        Names of the ``n`` state variables (node voltages then branch
        currents).
    port_names:
        Names of the ``m`` input ports (current-source element names).
    output_names:
        Names of the ``p`` outputs (observed node names).
    const_input:
        Optional length-``n`` constant excitation from DC voltage sources
        (zero vector when absent); analyses may add it to ``B u``.
    name:
        Free-form label (benchmark name).
    """

    C: sp.spmatrix
    G: sp.spmatrix
    B: sp.spmatrix
    L: sp.spmatrix
    state_names: list[str] = field(default_factory=list)
    port_names: list[str] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)
    const_input: np.ndarray | None = None
    name: str = "descriptor"

    def __post_init__(self) -> None:
        self.C = to_csr(self.C)
        self.G = to_csr(self.G)
        self.B = to_csr(self.B)
        self.L = to_csr(self.L)
        n = self.C.shape[0]
        if self.C.shape != (n, n) or self.G.shape != (n, n):
            raise StampingError(
                f"C and G must be square and equal-sized, got {self.C.shape} "
                f"and {self.G.shape}")
        if self.B.shape[0] != n:
            raise StampingError(
                f"B has {self.B.shape[0]} rows, expected {n}")
        if self.L.shape[1] != n:
            raise StampingError(
                f"L has {self.L.shape[1]} columns, expected {n}")
        if self.const_input is not None:
            self.const_input = np.asarray(self.const_input,
                                          dtype=float).reshape(-1)
            if self.const_input.shape[0] != n:
                raise StampingError("const_input length does not match n")

    # ------------------------------------------------------------------ #
    # Dimensions and structure
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """State dimension ``n``."""
        return int(self.C.shape[0])

    @property
    def n_ports(self) -> int:
        """Number of input ports ``m``."""
        return int(self.B.shape[1])

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p``."""
        return int(self.L.shape[0])

    @property
    def nnz(self) -> int:
        """Total stored non-zeros across C, G, B and L."""
        return int(self.C.nnz + self.G.nnz + self.B.nnz + self.L.nnz)

    def structure_report(self) -> dict[str, object]:
        """Per-matrix sparsity statistics (used by the Fig. 4 reproduction)."""
        return {
            "C": sparsity_info(self.C),
            "G": sparsity_info(self.G),
            "B": sparsity_info(self.B),
            "L": sparsity_info(self.L),
        }

    # ------------------------------------------------------------------ #
    # Frequency-domain evaluation
    # ------------------------------------------------------------------ #
    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate the ``p x m`` transfer matrix ``H(s) = L (sC - G)^{-1} B``.

        The per-``s`` pencil factor is not cached: a frequency sweep
        touches one pencil per sample, which would evict longer-lived
        factors from the shared cache.
        """
        op = ShiftedOperator(self.C, self.G, s0=s, cached=False)
        X = op.solve(self.B.toarray())
        return np.asarray(self.L @ X)

    def transfer_entry(self, s: complex, output: int,
                       port: int) -> complex:
        """Evaluate a single transfer-matrix entry ``H(s)[output, port]``.

        Cheaper than :meth:`transfer_function` when only one column is
        needed (e.g. the port-(1,2) curve of Fig. 5).  A negative or
        out-of-range ``output``/``port`` raises :class:`StampingError`.
        """
        if not 0 <= port < self.n_ports:
            raise StampingError(f"port {port} out of range [0, "
                                f"{self.n_ports})")
        if not 0 <= output < self.n_outputs:
            raise StampingError(f"output {output} out of range [0, "
                                f"{self.n_outputs})")
        op = ShiftedOperator(self.C, self.G, s0=s, cached=False)
        b_col = self.B[:, port].toarray().reshape(-1)
        x = op.solve(b_col)
        row = self.L[output, :].toarray().reshape(-1)
        return complex(row @ x)

    def dc_operating_point(self, port_currents: np.ndarray | None = None,
                           ) -> np.ndarray:
        """Solve the DC system ``-G x = B u0 + const_input`` for ``x``.

        Parameters
        ----------
        port_currents:
            Length-``m`` vector of DC port currents (defaults to zeros).
        """
        u0 = np.zeros(self.n_ports) if port_currents is None \
            else np.asarray(port_currents, dtype=float).reshape(-1)
        if u0.shape[0] != self.n_ports:
            raise StampingError(
                f"expected {self.n_ports} port currents, got {u0.shape[0]}")
        rhs = np.asarray(self.B @ u0).reshape(-1)
        if self.const_input is not None:
            rhs = rhs + self.const_input
        op = ShiftedOperator(self.C, self.G, s0=0.0)
        return np.asarray(op.solve(rhs)).reshape(-1)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def with_outputs(self, output_rows: sp.spmatrix | np.ndarray,
                     output_names: list[str] | None = None,
                     ) -> "DescriptorSystem":
        """Return a copy observing different outputs (new ``L`` matrix)."""
        return DescriptorSystem(
            C=self.C, G=self.G, B=self.B, L=to_csr(output_rows),
            state_names=list(self.state_names),
            port_names=list(self.port_names),
            output_names=list(output_names or []),
            const_input=None if self.const_input is None
            else self.const_input.copy(),
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DescriptorSystem(name={self.name!r}, n={self.size}, "
                f"m={self.n_ports}, p={self.n_outputs}, nnz={self.nnz})")


def _two_terminal(nodes: np.ndarray, values: np.ndarray):
    """COO triplets of admittance-like two-terminal stamps.

    Each element puts ``+value`` on ``(a, a)`` and ``(b, b)`` and ``-value``
    on ``(a, b)`` and ``(b, a)``; entries on a ground terminal (``-1``) are
    dropped.  The four entries of an element stay adjacent, which fixes the
    order in which the CSR conversion sums duplicates.
    """
    a, b = nodes.T
    rows = np.stack([a, b, a, b], 1).ravel()
    cols = np.stack([a, b, b, a], 1).ravel()
    data = np.stack([values, values, -values, -values], 1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], data[keep]


def _incidence(nodes: np.ndarray, branches: np.ndarray):
    """COO triplets of branch-current incidence (inductors, voltage sources).

    Branch ``k`` between nodes ``a`` and ``b`` puts ``+1``/``-1`` on
    ``(a, k)``/``(k, a)`` and ``-1``/``+1`` on ``(b, k)``/``(k, b)``: node
    rows get ``+i``/``-i`` and the branch row reads ``-(v_a - v_b)``.
    """
    a, b = nodes.T
    rows = np.stack([a, branches, b, branches], 1).ravel()
    cols = np.stack([branches, a, branches, b], 1).ravel()
    data = np.tile([1.0, -1.0, -1.0, 1.0], len(branches))
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], data[keep]


def _coo(parts, shape) -> sp.csr_matrix:
    """One CSR matrix from concatenated ``(rows, cols, data)`` triplets."""
    rows, cols, data = (np.concatenate(column) for column in zip(*parts))
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def assemble_mna(netlist: Netlist) -> DescriptorSystem:
    """Validate a netlist and stamp it into a :class:`DescriptorSystem`.

    Returns
    -------
    DescriptorSystem
        Descriptor model in the paper's sign convention
        (``C dx/dt = G x + B u``), with state ordering: node voltages in
        first-appearance order, then inductor branch currents, then
        voltage-source branch currents.  Voltage-source values go into
        :attr:`DescriptorSystem.const_input`; every current source is one
        input column.
    """
    netlist.validate()
    node_names = netlist.nodes()
    n_nodes = len(node_names)
    resistors, capacitors, inductors, isources, vsources = (
        netlist.elements(kind) for kind in "RCLIV")
    branch_nodes = np.concatenate([inductors.nodes, vsources.nodes])
    n = n_nodes + len(branch_nodes)
    branches = np.arange(n_nodes, n)
    n_inductors = len(inductors.names)

    G_mna = _coo([_two_terminal(resistors.nodes, 1.0 / resistors.values),
                  _incidence(branch_nodes, branches)], (n, n))
    inductor_rows = branches[:n_inductors]
    C_mna = _coo([_two_terminal(capacitors.nodes, capacitors.values),
                  (inductor_rows, inductor_rows, inductors.values)], (n, n))
    state_names = [f"v({name})" for name in node_names] + [
        f"i({name})" for name in
        np.concatenate([inductors.names, vsources.names]).tolist()]
    # The branch equation of a voltage source reads -(v_a - v_b) = -V.
    const_input = np.zeros(n)
    const_input[branches[n_inductors:]] = -vsources.values

    # Input matrix: one column per current source.  The source draws u(t)
    # out of its first node and returns it into its second, hence -1/+1.
    m = len(isources.names)
    if m == 0:
        raise StampingError("netlist has no input ports (current sources)")
    rows = isources.nodes.ravel()
    keep = rows >= 0
    B_mna = sp.csr_matrix(
        (np.tile([-1.0, 1.0], m)[keep],
         (rows[keep], np.repeat(np.arange(m), 2)[keep])), shape=(n, m))

    # Output matrix: observe the requested node voltages.
    output_nodes = netlist.output_nodes
    if not output_nodes:
        raise StampingError(
            "netlist declares no output nodes and has no current-source "
            "nodes to default to")
    if GROUND in output_nodes:
        raise StampingError("cannot observe the ground node")
    node_index = dict(zip(node_names, range(n_nodes)))
    p = len(output_nodes)
    L_mat = sp.csr_matrix(
        (np.ones(p), (np.arange(p), [node_index[node]
                                     for node in output_nodes])),
        shape=(p, n))

    # Convert to the paper's sign convention: C dx/dt = G x + B u with
    # G = -G_mna, and the same for the constant excitation.
    return DescriptorSystem(
        C=C_mna,
        G=-G_mna,
        B=B_mna,
        L=L_mat,
        state_names=state_names,
        port_names=isources.names.tolist(),
        output_names=[f"v({node})" for node in output_nodes],
        const_input=const_input if np.any(const_input) else None,
        name=netlist.title,
    )
