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
The mesh is built from numpy masks and index arrays (open nodes, rails,
per-node region scales), one :meth:`~repro.circuit.netlist.Netlist.add`
call per element block, so paper-scale grids build in well under a second.

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
from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import GROUND, Netlist
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
        ``2 * (rows + cols) - 4`` boundary nodes (blockage voids never reach
        the boundary).
    rail_resistance:
        Nominal rail segment resistance in ohms.
    node_capacitance:
        Nominal node-to-ground capacitance in farads.
    package_resistance, package_inductance:
        Per-pad package parasitics; set ``package_inductance`` to 0 to build
        a pure RC grid.
    pad_resistance:
        Small resistance between the pad node and ground (the ideal
        supply), which keeps the descriptor pencil symmetric.
    variation:
        Relative spread (uniform, +/-) applied to R and C values so the grid
        is not perfectly homogeneous, mimicking extracted netlists.
    load_current:
        Nominal DC magnitude of each load current source (amperes).
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
    variation: float = 0.2
    load_current: float = 1e-3
    regions: tuple = ()
    blockages: tuple = ()
    seed: int = 0
    name: str = "powergrid"

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

    @property
    def n_mesh_nodes(self) -> int:
        """Number of internal mesh nodes (before package/pad nodes)."""
        return self.rows * self.cols

    @property
    def n_open_nodes(self) -> int:
        """Mesh nodes that survive the blockage voids."""
        return int(_open_mask(self).sum())

    @property
    def boundary_capacity(self) -> int:
        """Boundary nodes available as pad attachment points."""
        return len(_boundary_ring(self))

    @property
    def has_package(self) -> bool:
        """Whether the spec includes package inductance (RLC vs RC grid)."""
        return self.package_inductance > 0.0


def _open_mask(spec: PowerGridSpec) -> np.ndarray:
    """``(rows, cols)`` mask of the mesh nodes outside every blockage void."""
    mask = np.ones((spec.rows, spec.cols), dtype=bool)
    for rect in spec.blockages:
        row0, col0, rows, cols = spec._blockage_rect(rect)
        mask[row0:row0 + rows, col0:col0 + cols] = False
    return mask


def _region_scales(spec: PowerGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-node ``(r_scale, c_scale)`` grids (later regions win)."""
    r_scale = np.ones((spec.rows, spec.cols))
    c_scale = np.ones((spec.rows, spec.cols))
    for region in spec.regions:
        window = (slice(region.row0, region.row0 + region.rows),
                  slice(region.col0, region.col0 + region.cols))
        r_scale[window] = region.r_scale
        c_scale[window] = region.c_scale
    return r_scale, c_scale


def _jitter(rng: np.random.Generator, variation: float, shape,
            ) -> np.ndarray:
    """Uniform relative spread factors ``1 + variation * U(-1, 1)``; no
    draw at all for zero variation."""
    if variation <= 0.0:
        return np.ones(shape)
    return 1.0 + variation * rng.uniform(-1.0, 1.0, shape)


def _numbered(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _boundary_ring(spec: PowerGridSpec) -> list[tuple[int, int]]:
    """Boundary nodes in clockwise ring order (no blockage reaches the
    ring, so all of them are open)."""
    return ([(0, col) for col in range(spec.cols)]
            + [(row, spec.cols - 1) for row in range(1, spec.rows)]
            + [(spec.rows - 1, col) for col in range(spec.cols - 2, -1, -1)]
            + [(row, 0) for row in range(spec.rows - 2, 0, -1)])


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

    Each block of elements is one :meth:`Netlist.add` call over index
    arrays, with one ``rng.uniform`` draw per block in the order rails,
    capacitors, package, load values (the load nodes are drawn just before
    their values).
    """
    rng = np.random.default_rng(spec.seed)
    netlist = Netlist(title=spec.name)
    open_ = _open_mask(spec)
    r_scale, c_scale = _region_scales(spec)
    mesh = np.array([f"n{row}_{col}" for row in range(spec.rows)
                     for col in range(spec.cols)], dtype=object)
    mesh = mesh.reshape(spec.rows, spec.cols)

    # Mesh rails: from every open node (row-major) to its open right, then
    # its open lower neighbour.  A rail crossing a region boundary uses the
    # geometric mean of the two endpoint scales so the transition is
    # symmetric.
    rails = np.zeros((spec.rows, spec.cols, 2), dtype=bool)
    rails[:, :-1, 0] = open_[:, :-1] & open_[:, 1:]
    rails[:-1, :, 1] = open_[:-1, :] & open_[1:, :]
    row, col, down = np.nonzero(rails)
    row2, col2 = row + down, col + 1 - down
    netlist.add("R", _numbered("R", len(row)), mesh[row, col],
                mesh[row2, col2],
                np.sqrt(r_scale[row, col] * r_scale[row2, col2])
                * (spec.rail_resistance
                   * _jitter(rng, spec.variation, len(row))))

    # Node capacitance to ground (decap + wire parasitics).
    row, col = np.nonzero(open_)
    netlist.add("C", _numbered("C", len(row)), mesh[row, col], GROUND,
                c_scale[row, col]
                * (spec.node_capacitance
                   * _jitter(rng, spec.variation, len(row))))

    # Package: each pad's boundary mesh node reaches ground through a
    # series R-L branch (just R without inductance) and the pad resistor,
    # added pad by pad.
    links = [("R", "Rpkg", "pkg", spec.package_resistance),
             ("L", "Lpkg", "pad", spec.package_inductance)]
    if not spec.has_package:
        links = [("R", "Rpkg", "pad", spec.package_resistance)]
    jitter = _jitter(rng, spec.variation, (spec.n_pads, len(links)))
    kinds, names, pos, neg, values = [], [], [], [], []
    for pad, ((row, col), factors) in enumerate(
            zip(_pad_positions(spec), jitter), start=1):
        node = mesh[row, col]
        for (kind, prefix, stop, nominal), factor in zip(links, factors):
            kinds.append(kind)
            names.append(f"{prefix}{pad}")
            pos.append(node)
            node = f"{stop}{pad}"
            neg.append(node)
            values.append(nominal * factor)
        kinds.append("R")
        names.append(f"Rpad{pad}")
        pos.append(node)
        neg.append(GROUND)
        values.append(spec.pad_resistance)
    netlist.add(kinds, names, pos, neg, values)

    # Load ports: current sources drawing current from distinct open mesh
    # nodes to ground.
    open_nodes = mesh[open_]
    chosen = rng.choice(len(open_nodes), size=spec.n_ports, replace=False)
    port_nodes = open_nodes[np.sort(chosen)]
    netlist.add("I", _numbered("Iload", spec.n_ports), port_nodes, GROUND,
                spec.load_current
                * _jitter(rng, spec.variation, spec.n_ports))

    netlist.set_output_nodes(port_nodes.tolist())
    return netlist
