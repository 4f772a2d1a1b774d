"""Parameterised power-grid netlist generator.

The paper evaluates BDSM on industrial power-grid netlists that are not
publicly available.  This module builds the closest synthetic equivalent:
a rectangular on-chip power mesh (resistive rails, decoupling/parasitic
capacitance at every node) connected to VDD pads through a package model
(series R-L per pad, as in the paper's Fig. 3), and loaded by current
sources that stand in for transistor-level circuit blocks.

Only the *structure* matters for reproducing the paper's claims: the MOR
cost model depends on the node count ``n``, the port count ``m`` and the RLC
character of the pencil, all of which this generator controls directly.

Industrial grids are not homogeneous, and the partitioned-reduction
subsystem (:mod:`repro.partition`) needs realistically heterogeneous
inputs, so the generator additionally supports *multi-domain* scenarios:

* :class:`GridRegion` rectangles scale the rail resistance and node
  capacitance inside a region (dense logic blocks vs. sparse analog
  corners), giving the partitioner genuinely different subdomain
  characters;
* rectangular *blockage voids* (macros, SRAMs, IP blocks) remove mesh
  nodes entirely, so the node graph is no longer a perfect lattice and
  the interface separators follow the blockage outlines.

:func:`make_multidomain_spec` builds a ready-made heterogeneous scenario
(four quadrant regions with different R/C densities plus a central
blockage) used by the partition tests, the ``partitioned_scaled`` perf
workload and ``examples/partitioned_reduce.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.elements import GROUND
from repro.circuit.netlist import Netlist
from repro.exceptions import CircuitError

__all__ = ["GridRegion", "PowerGridSpec", "build_power_grid",
           "make_multidomain_spec"]


@dataclass(frozen=True)
class GridRegion:
    """A rectangular multi-domain region with its own R/C densities.

    Attributes
    ----------
    row0, col0:
        Top-left mesh coordinate of the region (inclusive).
    rows, cols:
        Extent of the region in mesh nodes.
    r_scale:
        Multiplier applied to the nominal rail resistance.  A segment
        takes the geometric mean of its two endpoints' scales, so rails
        fully inside the region are scaled by ``r_scale``, rails crossing
        the region boundary by ``sqrt(r_scale)``, and the transition is
        symmetric.
    c_scale:
        Multiplier applied to the nominal node capacitance of nodes inside
        the region.
    """

    row0: int
    col0: int
    rows: int
    cols: int
    r_scale: float = 1.0
    c_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.row0 < 0 or self.col0 < 0:
            raise CircuitError("region origin must be non-negative")
        if self.rows < 1 or self.cols < 1:
            raise CircuitError("region extent must be at least 1x1")
        if self.r_scale <= 0.0 or self.c_scale <= 0.0:
            raise CircuitError("region R/C scales must be positive")

    def contains(self, row: int, col: int) -> bool:
        """Whether mesh node ``(row, col)`` lies inside the region."""
        return (self.row0 <= row < self.row0 + self.rows
                and self.col0 <= col < self.col0 + self.cols)


@dataclass(frozen=True)
class PowerGridSpec:
    """Parameters of a synthetic power-grid benchmark.

    Attributes
    ----------
    rows, cols:
        Mesh dimensions; the grid has ``rows * cols`` internal nodes.
    n_ports:
        Number of current-source load ports scattered over the mesh.
    n_pads:
        Number of VDD pads (package connections) along the grid boundary.
        Must fit the boundary: a ``rows x cols`` mesh has
        ``2 * (rows + cols) - 4`` boundary nodes, and blockage voids may
        occlude some of them.
    rail_resistance:
        Nominal rail segment resistance in ohms.
    node_capacitance:
        Nominal node-to-ground capacitance in farads.
    package_resistance, package_inductance:
        Per-pad package parasitics; set ``package_inductance`` to 0 to build
        a pure RC grid.
    pad_resistance:
        Small resistance between the pad node and the ideal VDD source.
    vdd:
        Supply voltage of the pads (volts).
    variation:
        Relative spread (uniform, +/-) applied to R and C values so the grid
        is not perfectly homogeneous, mimicking extracted netlists.
    load_current:
        Nominal DC magnitude of each load current source (amperes).
    use_ideal_pads:
        When ``True`` the pads connect to ideal voltage sources (adds branch
        unknowns); when ``False`` they connect resistively to ground, which
        keeps the descriptor pencil symmetric and is the default for MOR
        studies.
    regions:
        Optional multi-domain :class:`GridRegion` rectangles scaling the
        local R/C densities (later regions win where they overlap).
    blockages:
        Optional ``(row0, col0, rows, cols)`` rectangles of *removed* mesh
        nodes (macro blockage voids).  Blocked nodes carry no rails, no
        capacitance, no ports and no pads; rails route around the void.
        Blockages must not touch the boundary ring (the pad ring must stay
        connected) and must leave room for the requested ports.
    seed:
        RNG seed controlling element-value spread and port placement.
    name:
        Benchmark label propagated to the netlist title.
    """

    rows: int
    cols: int
    n_ports: int
    n_pads: int = 4
    rail_resistance: float = 1.0
    node_capacitance: float = 1e-15
    package_resistance: float = 0.05
    package_inductance: float = 1e-12
    pad_resistance: float = 1e-3
    vdd: float = 1.0
    variation: float = 0.2
    load_current: float = 1e-3
    use_ideal_pads: bool = False
    regions: tuple = ()
    blockages: tuple = ()
    seed: int = 0
    name: str = "powergrid"
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise CircuitError("power grid needs at least a 2x2 mesh")
        if self.n_ports < 1:
            raise CircuitError("power grid needs at least one load port")
        if self.n_pads < 1:
            raise CircuitError("power grid needs at least one VDD pad")
        if not 0.0 <= self.variation < 1.0:
            raise CircuitError("variation must lie in [0, 1)")
        for region in self.regions:
            if not isinstance(region, GridRegion):
                raise CircuitError(
                    f"regions must be GridRegion instances, got "
                    f"{type(region).__name__}")
            if (region.row0 + region.rows > self.rows
                    or region.col0 + region.cols > self.cols):
                raise CircuitError(
                    f"region at ({region.row0}, {region.col0}) of size "
                    f"{region.rows}x{region.cols} falls outside the "
                    f"{self.rows}x{self.cols} mesh")
        for rect in self.blockages:
            row0, col0, rows, cols = self._blockage_rect(rect)
            if rows < 1 or cols < 1:
                raise CircuitError("blockage extent must be at least 1x1")
            if row0 < 1 or col0 < 1 or row0 + rows > self.rows - 1 \
                    or col0 + cols > self.cols - 1:
                raise CircuitError(
                    f"blockage ({row0}, {col0}, {rows}, {cols}) must lie "
                    "strictly inside the boundary ring (the pad ring must "
                    "stay connected)")
        if self.n_ports > self.n_open_nodes:
            raise CircuitError(
                f"cannot place {self.n_ports} ports on a "
                f"{self.rows}x{self.cols} mesh with "
                f"{self.n_mesh_nodes - self.n_open_nodes} blocked node(s)")
        # The former behaviour silently clamped n_pads to the boundary
        # capacity, so a spec asking for 12 pads on a 2x2 mesh quietly built
        # a 4-pad grid; reject the impossible request up front instead.
        capacity = self.boundary_capacity
        if self.n_pads > capacity:
            raise CircuitError(
                f"cannot place {self.n_pads} pads on a {self.rows}x"
                f"{self.cols} mesh boundary with only {capacity} "
                f"attachment node(s)")

    @staticmethod
    def _blockage_rect(rect) -> tuple[int, int, int, int]:
        try:
            row0, col0, rows, cols = (int(v) for v in rect)
        except (TypeError, ValueError) as exc:
            raise CircuitError(
                "blockages must be (row0, col0, rows, cols) rectangles"
            ) from exc
        return row0, col0, rows, cols

    def is_blocked(self, row: int, col: int) -> bool:
        """Whether mesh node ``(row, col)`` lies inside a blockage void."""
        for rect in self.blockages:
            row0, col0, rows, cols = self._blockage_rect(rect)
            if row0 <= row < row0 + rows and col0 <= col < col0 + cols:
                return True
        return False

    @property
    def n_mesh_nodes(self) -> int:
        """Number of internal mesh nodes (before package/pad nodes)."""
        return self.rows * self.cols

    @property
    def n_open_nodes(self) -> int:
        """Mesh nodes that survive the blockage voids."""
        if not self.blockages:
            return self.n_mesh_nodes
        return sum(1 for row in range(self.rows) for col in range(self.cols)
                   if not self.is_blocked(row, col))

    @property
    def boundary_capacity(self) -> int:
        """Unblocked boundary nodes available as pad attachment points."""
        return len(_boundary_ring(self))

    @property
    def has_package(self) -> bool:
        """Whether the spec includes package inductance (RLC vs RC grid)."""
        return self.package_inductance > 0.0

    def region_scales(self, row: int, col: int) -> tuple[float, float]:
        """``(r_scale, c_scale)`` at a mesh node (later regions win)."""
        r_scale = 1.0
        c_scale = 1.0
        for region in self.regions:
            if region.contains(row, col):
                r_scale = region.r_scale
                c_scale = region.c_scale
        return r_scale, c_scale


def _node_name(row: int, col: int) -> str:
    return f"n{row}_{col}"


def _spread(rng: np.random.Generator, nominal: float, variation: float,
            ) -> float:
    """Apply a uniform relative spread to a nominal element value."""
    if variation <= 0.0:
        return nominal
    return float(nominal * (1.0 + variation * rng.uniform(-1.0, 1.0)))


def _boundary_ring(spec: PowerGridSpec) -> list[tuple[int, int]]:
    """Unblocked boundary nodes in clockwise ring order."""
    ring: list[tuple[int, int]] = []
    for col in range(spec.cols):
        ring.append((0, col))
    for row in range(1, spec.rows):
        ring.append((row, spec.cols - 1))
    for col in range(spec.cols - 2, -1, -1):
        ring.append((spec.rows - 1, col))
    for row in range(spec.rows - 2, 0, -1):
        ring.append((row, 0))
    return [(row, col) for row, col in ring if not spec.is_blocked(row, col)]


def _pad_positions(spec: PowerGridSpec) -> list[tuple[int, int]]:
    """Evenly distribute pad attachment points along the mesh boundary.

    ``__post_init__`` guarantees ``n_pads <= len(ring)``, so every pad gets
    a distinct boundary node (the old code clamped silently instead).
    """
    ring = _boundary_ring(spec)
    step = len(ring) / spec.n_pads
    positions: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    for i in range(spec.n_pads):
        idx = int(math.floor(i * step)) % len(ring)
        # Evenly-spaced targets can collide after rounding; walk forward to
        # the next free ring node (capacity was validated, so one exists).
        while ring[idx] in taken:
            idx = (idx + 1) % len(ring)
        taken.add(ring[idx])
        positions.append(ring[idx])
    return positions


def _port_positions(spec: PowerGridSpec,
                    rng: np.random.Generator) -> list[tuple[int, int]]:
    """Choose distinct unblocked mesh nodes for the load current sources."""
    open_nodes = [(row, col) for row in range(spec.rows)
                  for col in range(spec.cols)
                  if not spec.is_blocked(row, col)]
    chosen = rng.choice(len(open_nodes), size=spec.n_ports, replace=False)
    return [open_nodes[int(idx)] for idx in sorted(chosen)]


def make_multidomain_spec(rows: int, cols: int, n_ports: int, *,
                          n_pads: int = 8, seed: int = 0,
                          package_inductance: float = 0.0,
                          name: str = "multidomain") -> PowerGridSpec:
    """A ready-made heterogeneous grid: four quadrant domains + a blockage.

    The quadrants get distinct rail/capacitance densities (a dense logic
    block, a leaky cache, an analog corner, a nominal quadrant) and a
    central rectangular macro void occludes roughly 1/6 of the die, so the
    node graph is non-uniform in exactly the ways a partitioner must cope
    with.  Grids of at least 6x6 are required so the void stays strictly
    inside the boundary ring.
    """
    if rows < 6 or cols < 6:
        raise CircuitError("a multi-domain grid needs at least a 6x6 mesh")
    half_r, half_c = rows // 2, cols // 2
    regions = (
        GridRegion(0, 0, half_r, half_c, r_scale=0.5, c_scale=4.0),
        GridRegion(0, half_c, half_r, cols - half_c, r_scale=2.0,
                   c_scale=0.5),
        GridRegion(half_r, 0, rows - half_r, half_c, r_scale=1.0,
                   c_scale=1.0),
        GridRegion(half_r, half_c, rows - half_r, cols - half_c,
                   r_scale=4.0, c_scale=2.0),
    )
    void_rows = max(1, rows // 4)
    void_cols = max(1, cols // 4)
    blockages = ((rows // 2 - void_rows // 2, cols // 2 - void_cols // 2,
                  void_rows, void_cols),)
    return PowerGridSpec(
        rows=rows, cols=cols, n_ports=n_ports, n_pads=n_pads,
        package_inductance=package_inductance, regions=regions,
        blockages=blockages, seed=seed, name=name)


def build_power_grid(spec: PowerGridSpec) -> Netlist:
    """Build the power-grid netlist described by ``spec``.

    The topology follows the paper's Fig. 3: a resistive mesh with node
    capacitance to ground, VDD pads reached through series package R-L, and
    current-source loads at selected mesh nodes.  Output nodes default to the
    load nodes (the voltages whose droop one cares about).  Multi-domain
    ``regions`` scale the local element values and ``blockages`` remove
    nodes entirely (rails route around the voids).
    """
    rng = np.random.default_rng(spec.seed)
    netlist = Netlist(title=spec.name)

    # Mesh rails: horizontal and vertical resistors between adjacent open
    # nodes.  A rail crossing a region boundary uses the geometric mean of
    # the two endpoint scales so the transition is symmetric.
    r_count = 0
    for row in range(spec.rows):
        for col in range(spec.cols):
            if spec.is_blocked(row, col):
                continue
            here = _node_name(row, col)
            r_here = spec.region_scales(row, col)[0]
            if col + 1 < spec.cols and not spec.is_blocked(row, col + 1):
                r_count += 1
                scale = math.sqrt(
                    r_here * spec.region_scales(row, col + 1)[0])
                netlist.add_resistor(
                    f"R{r_count}", here, _node_name(row, col + 1),
                    scale * _spread(rng, spec.rail_resistance,
                                    spec.variation))
            if row + 1 < spec.rows and not spec.is_blocked(row + 1, col):
                r_count += 1
                scale = math.sqrt(
                    r_here * spec.region_scales(row + 1, col)[0])
                netlist.add_resistor(
                    f"R{r_count}", here, _node_name(row + 1, col),
                    scale * _spread(rng, spec.rail_resistance,
                                    spec.variation))

    # Node capacitance to ground (decap + wire parasitics).
    c_count = 0
    for row in range(spec.rows):
        for col in range(spec.cols):
            if spec.is_blocked(row, col):
                continue
            c_count += 1
            c_scale = spec.region_scales(row, col)[1]
            netlist.add_capacitor(
                f"C{c_count}", _node_name(row, col), GROUND,
                c_scale * _spread(rng, spec.node_capacitance,
                                  spec.variation))

    # Package: each pad connects its boundary mesh node to the VDD rail
    # through a series R-L branch (or just R when inductance is zero).
    for pad_idx, (row, col) in enumerate(_pad_positions(spec), start=1):
        mesh_node = _node_name(row, col)
        pad_node = f"pad{pad_idx}"
        if spec.has_package:
            mid_node = f"pkg{pad_idx}"
            netlist.add_resistor(
                f"Rpkg{pad_idx}", mesh_node, mid_node,
                _spread(rng, spec.package_resistance, spec.variation))
            netlist.add_inductor(
                f"Lpkg{pad_idx}", mid_node, pad_node,
                _spread(rng, spec.package_inductance, spec.variation))
        else:
            netlist.add_resistor(
                f"Rpkg{pad_idx}", mesh_node, pad_node,
                _spread(rng, spec.package_resistance, spec.variation))
        if spec.use_ideal_pads:
            netlist.add_voltage_source(
                f"Vdd{pad_idx}", pad_node, GROUND, spec.vdd)
        else:
            netlist.add_resistor(
                f"Rpad{pad_idx}", pad_node, GROUND, spec.pad_resistance)

    # Load ports: current sources drawing current from mesh nodes to ground.
    port_nodes: list[str] = []
    for port_idx, (row, col) in enumerate(_port_positions(spec, rng), start=1):
        node = _node_name(row, col)
        port_nodes.append(node)
        netlist.add_current_source(
            f"Iload{port_idx}", node, GROUND,
            _spread(rng, spec.load_current, spec.variation))

    netlist.set_output_nodes(port_nodes)
    return netlist
