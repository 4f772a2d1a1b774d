"""Unit tests for repro.circuit.netlist."""

import numpy as np
import pytest

from repro.circuit import assemble_mna
from repro.circuit.netlist import Netlist
from repro.exceptions import CircuitError


def _minimal_netlist():
    net = Netlist(title="minimal")
    net.add("R", "R1", "a", "0", 1.0)
    net.add("C", "C1", "a", "0", 1e-9)
    net.add("I", "I1", "a", "0", 1e-3)
    return net


class TestConstruction:
    def test_convenience_adders(self):
        # One element per call: scalars are the one-element case of arrays.
        net = Netlist()
        net.add("R", "R1", "a", "b", 2.0)
        net.add("C", "C1", "b", "0", 1e-12)
        net.add("L", "L1", "a", "c", 1e-9)
        net.add("I", "I1", "c", "0", 1.0)
        net.add("V", "V1", "a", "0", 1.8)
        assert len(net) == 5
        assert net.summary() == {
            "nodes": 3, "resistors": 1, "capacitors": 1, "inductors": 1,
            "current_sources": 1, "voltage_sources": 1}

    def test_duplicate_names_rejected(self):
        net = Netlist()
        net.add("R", "R1", "a", "0", 1.0)
        with pytest.raises(CircuitError, match="duplicate element name 'R1'"):
            net.add("R", "R1", "b", "0", 1.0)
        with pytest.raises(CircuitError, match="duplicate element name 'R2'"):
            net.add("R", ["R2", "R2"], ["b", "c"], "0", 1.0)
        assert len(net) == 1

    def test_only_elements_accepted(self):
        with pytest.raises(CircuitError, match="unknown element kind 'Q'"):
            Netlist().add("Q", "Q1", "a", "0", 1.0)
        with pytest.raises(CircuitError, match="unknown element kind"):
            Netlist().add(["R", "X"], ["R1", "X1"], "a", "0", 1.0)
        with pytest.raises(CircuitError, match="unknown element kind"):
            Netlist().elements("RC")

    def test_mismatched_columns_rejected(self):
        with pytest.raises(CircuitError, match="2 element name"):
            Netlist().add("R", ["R1", "R2"], ["a"], "0", 1.0)
        with pytest.raises(CircuitError, match="2 element name"):
            Netlist().add("R", ["R1", "R2"], "a", "0", [1.0, 2.0, 3.0])
        with pytest.raises(CircuitError, match="2 element name"):
            Netlist().add("R", ["R1", "R2"], "a", "0", [1.0])

    def test_contains(self):
        net = _minimal_netlist()
        assert "R1" in net
        assert "R99" not in net

    def test_iteration_order_preserved(self):
        net = _minimal_netlist()
        assert net.elements().names.tolist() == ["R1", "C1", "I1"]

    def test_arrays_match_one_element_adds(self):
        kinds = ["R", "L", "R", "I"]
        names = ["R1", "L1", "R2", "I1"]
        pos = ["x", "y", "z", "x"]
        neg = ["y", "z", "0", "0"]
        values = [1.0, 1e-9, 2.0, 1e-3]
        one_by_one = Netlist()
        for row in zip(kinds, names, pos, neg, values):
            one_by_one.add(*row)
        batched = Netlist()
        batched.add(kinds, names, pos, neg, values)
        # Node table in first-appearance order, terminal by terminal.
        assert batched.nodes() == one_by_one.nodes() == ["x", "y", "z"]
        for kind in (None, "R", "L", "I"):
            a, b = batched.elements(kind), one_by_one.elements(kind)
            for column_a, column_b in zip(a, b):
                assert np.array_equal(column_a, column_b)
        assert batched.elements("R").nodes.tolist() == [[0, 1], [2, -1]]


class TestNodesAndPorts:
    def test_nodes_exclude_ground(self):
        net = _minimal_netlist()
        assert net.nodes() == ["a"]
        assert net.n_nodes == 1

    def test_n_ports_counts_current_sources(self):
        net = _minimal_netlist()
        net.add("I", "I2", "a", "0", 1.0)
        assert net.n_ports == 2

    def test_default_output_nodes_are_port_nodes(self):
        net = _minimal_netlist()
        assert net.output_nodes == ["a"]

    def test_set_output_nodes(self):
        net = _minimal_netlist()
        net.add("R", "R2", "a", "b", 1.0)
        net.add("C", "C2", "b", "0", 1e-9)
        net.set_output_nodes(["b"])
        assert net.output_nodes == ["b"]

    def test_set_unknown_output_node_rejected(self):
        net = _minimal_netlist()
        with pytest.raises(CircuitError):
            net.set_output_nodes(["zz"])


class TestValidation:
    def test_valid_netlist_passes(self):
        _minimal_netlist().validate()

    def test_empty_netlist_rejected(self):
        with pytest.raises(CircuitError):
            Netlist().validate()

    def test_missing_ground_rejected(self):
        net = Netlist()
        net.add("R", "R1", "a", "b", 1.0)
        net.add("R", "R2", "a", "b", 1.0)
        net.add("I", "I1", "a", "b", 1.0)
        with pytest.raises(CircuitError, match="ground"):
            net.validate()

    def test_dangling_node_rejected(self):
        net = _minimal_netlist()
        net.add("R", "R2", "a", "dangling", 1.0)
        with pytest.raises(CircuitError, match="dangling"):
            net.validate()

    def test_no_sources_rejected(self):
        net = Netlist()
        net.add("R", "R1", "a", "0", 1.0)
        net.add("R", "R2", "a", "0", 1.0)
        with pytest.raises(CircuitError, match="source"):
            net.validate()

    def test_floating_island_rejected(self):
        # x and y hang together but have no path to ground; before this
        # check the netlist validated and the DC solve failed unnamed.
        net = _minimal_netlist()
        net.add("R", ["R2", "R3"], ["x", "y"], ["y", "x"], 1.0)
        net.add("C", "C2", "x", "y", 1e-9)
        with pytest.raises(CircuitError,
                           match=r"2 node\(s\) with no path to ground: x, y"):
            net.validate()
        with pytest.raises(CircuitError, match="no path to ground"):
            assemble_mna(net)

    def test_current_source_is_no_path_to_ground(self):
        net = _minimal_netlist()
        net.add("R", ["R2", "R3"], ["x", "y"], ["y", "x"], 1.0)
        net.add("I", "I2", "x", "0", 1e-3)
        with pytest.raises(CircuitError, match="no path to ground: x, y"):
            net.validate()
        net.add("L", "L1", "y", "0", 1e-9)
        net.validate()
