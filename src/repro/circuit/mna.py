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
convention (``G = -G_mna``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.circuit.elements import GROUND
from repro.circuit.netlist import Netlist
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


def assemble_mna(netlist: Netlist, *,
                 voltage_sources_as_inputs: bool = False,
                 validate: bool = True) -> DescriptorSystem:
    """Stamp a netlist into a :class:`DescriptorSystem`.

    Parameters
    ----------
    netlist:
        The circuit to stamp.
    voltage_sources_as_inputs:
        When ``True``, each voltage source contributes an extra input column
        (its value becomes a time-varying input); when ``False`` (default)
        the DC values go into :attr:`DescriptorSystem.const_input`.
    validate:
        Run :meth:`Netlist.validate` first.

    Returns
    -------
    DescriptorSystem
        Descriptor model in the paper's sign convention
        (``C dx/dt = G x + B u``), with state ordering: node voltages in
        first-appearance order, then inductor branch currents, then
        voltage-source branch currents.
    """
    if validate:
        netlist.validate()

    node_names = netlist.nodes()
    node_index = {name: i for i, name in enumerate(node_names)}
    n_nodes = len(node_names)
    inductors = netlist.inductors
    vsources = netlist.voltage_sources
    isources = netlist.current_sources

    n_branches = len(inductors) + len(vsources)
    n = n_nodes + n_branches
    if n == 0:
        raise StampingError("netlist has no non-ground nodes")

    def node_idx(name: str) -> int | None:
        return None if name == GROUND else node_index[name]

    g_rows: list[int] = []
    g_cols: list[int] = []
    g_data: list[float] = []
    c_rows: list[int] = []
    c_cols: list[int] = []
    c_data: list[float] = []

    def stamp_pair(rows, cols, data, a: int | None, b: int | None,
                   value: float) -> None:
        """Stamp a two-terminal admittance-like value into a matrix."""
        if a is not None:
            rows.append(a)
            cols.append(a)
            data.append(value)
        if b is not None:
            rows.append(b)
            cols.append(b)
            data.append(value)
        if a is not None and b is not None:
            rows.append(a)
            cols.append(b)
            data.append(-value)
            rows.append(b)
            cols.append(a)
            data.append(-value)

    for resistor in netlist.resistors:
        stamp_pair(g_rows, g_cols, g_data,
                   node_idx(resistor.node_pos), node_idx(resistor.node_neg),
                   resistor.conductance)

    for capacitor in netlist.capacitors:
        stamp_pair(c_rows, c_cols, c_data,
                   node_idx(capacitor.node_pos), node_idx(capacitor.node_neg),
                   capacitor.value)

    state_names = [f"v({name})" for name in node_names]

    # Inductor branches: node rows get +i / -i, branch row gets
    # -(v_a - v_b) + L di/dt = 0.
    branch = n_nodes
    for inductor in inductors:
        a = node_idx(inductor.node_pos)
        b = node_idx(inductor.node_neg)
        if a is not None:
            g_rows.append(a)
            g_cols.append(branch)
            g_data.append(1.0)
            g_rows.append(branch)
            g_cols.append(a)
            g_data.append(-1.0)
        if b is not None:
            g_rows.append(b)
            g_cols.append(branch)
            g_data.append(-1.0)
            g_rows.append(branch)
            g_cols.append(b)
            g_data.append(1.0)
        c_rows.append(branch)
        c_cols.append(branch)
        c_data.append(inductor.value)
        state_names.append(f"i({inductor.name})")
        branch += 1

    # Voltage-source branches: same incidence; branch equation
    # -(v_a - v_b) = -V  (constant) or = -u_k(t) when treated as an input.
    const_input = np.zeros(n)
    extra_inputs: list[tuple[int, str]] = []
    for vsource in vsources:
        a = node_idx(vsource.node_pos)
        b = node_idx(vsource.node_neg)
        if a is not None:
            g_rows.append(a)
            g_cols.append(branch)
            g_data.append(1.0)
            g_rows.append(branch)
            g_cols.append(a)
            g_data.append(-1.0)
        if b is not None:
            g_rows.append(b)
            g_cols.append(branch)
            g_data.append(-1.0)
            g_rows.append(branch)
            g_cols.append(b)
            g_data.append(1.0)
        if voltage_sources_as_inputs:
            extra_inputs.append((branch, vsource.name))
        else:
            const_input[branch] = -vsource.value
        state_names.append(f"i({vsource.name})")
        branch += 1

    G_mna = sp.csr_matrix((g_data, (g_rows, g_cols)), shape=(n, n))
    C_mna = sp.csr_matrix((c_data, (c_rows, c_cols)), shape=(n, n))

    # Input matrix: one column per current source.  The source draws u(t)
    # out of node_pos and returns it into node_neg, hence the -1/+1 pattern.
    b_rows: list[int] = []
    b_cols: list[int] = []
    b_data: list[float] = []
    port_names: list[str] = []
    for col, isource in enumerate(isources):
        a = node_idx(isource.node_pos)
        b = node_idx(isource.node_neg)
        if a is not None:
            b_rows.append(a)
            b_cols.append(col)
            b_data.append(-1.0)
        if b is not None:
            b_rows.append(b)
            b_cols.append(col)
            b_data.append(1.0)
        port_names.append(isource.name)
    m = len(isources)
    for branch_row, vname in extra_inputs:
        b_rows.append(branch_row)
        b_cols.append(m)
        b_data.append(-1.0)
        port_names.append(vname)
        m += 1
    if m == 0:
        raise StampingError("netlist has no input ports (current sources)")
    B_mna = sp.csr_matrix((b_data, (b_rows, b_cols)), shape=(n, m))

    # Output matrix: observe the requested node voltages.
    output_nodes = netlist.output_nodes
    if not output_nodes:
        raise StampingError(
            "netlist declares no output nodes and has no current-source "
            "nodes to default to")
    l_rows: list[int] = []
    l_cols: list[int] = []
    l_data: list[float] = []
    output_names: list[str] = []
    for row, node in enumerate(output_nodes):
        idx = node_idx(node)
        if idx is None:
            raise StampingError("cannot observe the ground node")
        l_rows.append(row)
        l_cols.append(idx)
        l_data.append(1.0)
        output_names.append(f"v({node})")
    L_mat = sp.csr_matrix((l_data, (l_rows, l_cols)),
                          shape=(len(output_nodes), n))

    # Convert to the paper's sign convention: C dx/dt = G x + B u with
    # G = -G_mna, and the same for the constant excitation.
    return DescriptorSystem(
        C=C_mna,
        G=-G_mna,
        B=B_mna,
        L=L_mat,
        state_names=state_names,
        port_names=port_names,
        output_names=output_names,
        const_input=const_input if np.any(const_input) else None,
        name=netlist.title,
    )
