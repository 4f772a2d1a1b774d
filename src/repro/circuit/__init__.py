"""Circuit substrate: netlists, MNA stamping and grid generators.

This package implements everything the paper assumes as given: an RLC
power-grid netlist (Fig. 3 of the paper) and the modified-nodal-analysis
descriptor model ``C dx/dt = G x + B u, y = L x`` extracted from it.

Contents
--------
``netlist``
    The columnar :class:`~repro.circuit.netlist.Netlist`: per element a kind
    code (R, C, L, I, V), a name, a node-index pair into one node table and
    a value, with one vectorised insertion path and consistency checks.
``parser``
    A SPICE-subset parser / writer round-tripping ``.sp`` decks.
``mna``
    Stamping of a netlist into the :class:`~repro.circuit.mna.DescriptorSystem`
    quadruple ``(C, G, B, L)``, one COO call per matrix.
``powergrid``
    Parameterised RC/RLC power-grid mesh generator with package inductance,
    multi-domain :class:`~repro.circuit.powergrid.GridRegion` R/C scaling
    and rectangular blockage voids, built from numpy masks.
``benchmarks``
    The ``ckt1``–``ckt5`` style synthetic industrial benchmarks used by the
    Table II / Fig. 4 / Fig. 5 reproductions.
"""

from repro.circuit.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_names,
    make_benchmark,
)
from repro.circuit.mna import DescriptorSystem, assemble_mna
from repro.circuit.netlist import Netlist
from repro.circuit.parser import parse_netlist, parse_netlist_file, write_netlist
from repro.circuit.powergrid import (
    GridRegion,
    PowerGridSpec,
    build_power_grid,
    make_multidomain_spec,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "DescriptorSystem",
    "GridRegion",
    "Netlist",
    "PowerGridSpec",
    "assemble_mna",
    "benchmark_names",
    "build_power_grid",
    "make_benchmark",
    "make_multidomain_spec",
    "parse_netlist",
    "parse_netlist_file",
    "write_netlist",
]
