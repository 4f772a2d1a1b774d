"""Property-based tests (hypothesis) for circuit stamping and grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid
from repro.circuit.parser import parse_netlist, write_netlist
from repro.exceptions import NetlistParseError
from repro.linalg.sparse_utils import is_symmetric

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def grid_specs(draw, with_package: bool | None = None):
    rows = draw(st.integers(min_value=3, max_value=7))
    cols = draw(st.integers(min_value=3, max_value=7))
    n_ports = draw(st.integers(min_value=1,
                               max_value=min(6, rows * cols)))
    n_pads = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    if with_package is None:
        package = draw(st.sampled_from([0.0, 1e-12]))
    else:
        package = 1e-12 if with_package else 0.0
    variation = draw(st.floats(min_value=0.0, max_value=0.5))
    return PowerGridSpec(rows=rows, cols=cols, n_ports=n_ports,
                         n_pads=n_pads, package_inductance=package,
                         variation=variation, seed=seed)


class TestGridStampingProperties:
    @SETTINGS
    @given(grid_specs())
    def test_netlist_always_validates(self, spec):
        build_power_grid(spec).validate()

    @SETTINGS
    @given(grid_specs())
    def test_state_count_accounting(self, spec):
        netlist = build_power_grid(spec)
        system = assemble_mna(netlist)
        summary = netlist.summary()
        expected = netlist.n_nodes + summary["inductors"] \
            + summary["voltage_sources"]
        assert system.size == expected
        assert system.n_ports == spec.n_ports

    @SETTINGS
    @given(grid_specs(with_package=False))
    def test_rc_grids_stamp_symmetric_matrices(self, spec):
        system = assemble_mna(build_power_grid(spec))
        assert is_symmetric(system.C)
        assert is_symmetric(system.G)

    @SETTINGS
    @given(grid_specs())
    def test_dc_pencil_is_nonsingular(self, spec):
        system = assemble_mna(build_power_grid(spec))
        H0 = system.transfer_function(0.0)
        assert np.all(np.isfinite(H0))

    @SETTINGS
    @given(grid_specs())
    def test_dc_driving_point_drops_are_nonnegative(self, spec):
        # Every diagonal entry of -H(0) is a driving-point resistance.
        system = assemble_mna(build_power_grid(spec))
        H0 = np.real(system.transfer_function(0.0))
        assert np.all(np.diag(-H0) > 0.0)

    @SETTINGS
    @given(grid_specs())
    def test_netlist_roundtrips_through_spice_text(self, spec):
        netlist = build_power_grid(spec)
        reparsed = parse_netlist(write_netlist(netlist))
        assert reparsed.summary() == netlist.summary()
        assert reparsed.output_nodes == netlist.output_nodes
        assert reparsed.nodes() == netlist.nodes()
        a, b = netlist.elements(), reparsed.elements()
        assert a.names.tolist() == b.names.tolist()
        assert np.array_equal(a.nodes, b.nodes)
        assert np.allclose(a.values, b.values, rtol=1e-9)


_GOOD_VALUES = ["1", "2k", "10pF", "3.3v", "+2.5", ".5u", "1e-3",
                "DC 1"]
_BAD_VALUES = ["-1", "0", "1e400", "1e303meg", "abc", "nan", "DC"]
_NODES = ["0", "a", "b", "c", "n1_2", "V(a)"]


@st.composite
def element_lines(draw):
    """One element line; about one in four carries a bad token (unknown
    kind, empty or repeated name, self-loop, bad value, missing tokens)."""
    name = draw(st.sampled_from("RCLIV")) + str(draw(st.integers(0, 20)))
    pos, neg = draw(st.lists(st.sampled_from(_NODES), min_size=2,
                             max_size=2, unique=True))
    value = draw(st.sampled_from(_GOOD_VALUES))
    flaw = draw(st.sampled_from(["none"] * 6 + [
        "kind", "name", "loop", "value", "short"]))
    if flaw == "kind":
        name = draw(st.sampled_from(["Q", "X", "*"])) + name[1:]
    elif flaw == "name":
        name = draw(st.sampled_from(["R1", "I1", "r1"]))
    elif flaw == "loop":
        neg = pos
    elif flaw == "value":
        value = draw(st.sampled_from(_BAD_VALUES))
    tokens = [name, pos, neg, value]
    return " ".join(tokens[:3] if flaw == "short" else tokens)


@st.composite
def spice_decks(draw):
    lines = ["random deck"]
    lines += draw(st.lists(element_lines(), max_size=8))
    if draw(st.booleans()):
        probes = [f"V({draw(st.sampled_from(_NODES + ['zz']))})"
                  for _ in range(draw(st.integers(1, 2)))]
        probes += draw(st.lists(st.sampled_from(["V(", "V()", "TRAN"]),
                                max_size=1))
        lines.append(".PRINT " + draw(st.sampled_from([" ", ", ", ","]))
                     .join(probes))
    return "\n".join(lines) + "\n"


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(spice_decks())
    def test_decks_parse_and_round_trip_or_raise_parse_errors(self, deck):
        try:
            netlist = parse_netlist(deck)
        except NetlistParseError:
            return
        reparsed = parse_netlist(write_netlist(netlist))
        assert reparsed.title == netlist.title
        assert reparsed.nodes() == netlist.nodes()
        assert reparsed.output_nodes == netlist.output_nodes
        assert reparsed.summary() == netlist.summary()
        a, b = netlist.elements(), reparsed.elements()
        assert a.names.tolist() == b.names.tolist()
        assert np.array_equal(a.nodes, b.nodes)
        assert np.allclose(a.values, b.values, rtol=1e-9, atol=0.0)
