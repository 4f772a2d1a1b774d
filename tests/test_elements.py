"""Element checks of repro.circuit.netlist: every kind enters through
``Netlist.add``, one element at a time or as arrays."""

import numpy as np
import pytest

from repro.circuit import assemble_mna
from repro.circuit.netlist import Netlist
from repro.circuit.parser import write_netlist
from repro.exceptions import CircuitError

#: Kind letters under the names the element tests use as parameter ids.
KIND_IDS = {"Resistor": "R", "Capacitor": "C", "Inductor": "L",
            "CurrentSource": "I", "VoltageSource": "V"}


def _one(kind, name, node_pos, node_neg, value):
    net = Netlist()
    net.add(kind, name, node_pos, node_neg, value)
    return net


class TestResistor:
    def test_conductance(self):
        # A resistor stamps its conductance 1/R (negated in the paper's G).
        net = _one("R", "R1", "a", "0", 4.0)
        net.add("I", "I1", "a", "0", 1.0)
        assert assemble_mna(net).G.toarray()[0, 0] == pytest.approx(-0.25)

    def test_positive_value_required(self):
        with pytest.raises(CircuitError, match="positive resistance"):
            _one("R", "R1", "a", "b", 0.0)
        with pytest.raises(CircuitError, match="positive resistance"):
            _one("R", "R1", "a", "b", -1.0)

    def test_spice_line(self):
        net = _one("R", "R1", "a", "0", 1500.0)
        assert write_netlist(net).splitlines()[1] == "R1 a 0 1500.0"


class TestCapacitorInductor:
    def test_capacitor_positive_value(self):
        with pytest.raises(CircuitError, match="positive capacitance"):
            _one("C", "C1", "a", "0", -1e-12)

    def test_inductor_positive_value(self):
        with pytest.raises(CircuitError, match="positive inductance"):
            _one("L", "L1", "a", "b", 0.0)

    def test_valid_construction(self):
        net = _one("C", "C1", "a", "0", 1e-12)
        net.add("L", "L1", "a", "b", 1e-9)
        assert net.elements("C").values.tolist() == [1e-12]
        # Node table: a -> 0, b -> 1, ground -> -1.
        assert net.elements("C").nodes.tolist() == [[0, -1]]
        assert net.elements("L").nodes.tolist() == [[0, 1]]


class TestSources:
    def test_current_source_nonnegative(self):
        with pytest.raises(CircuitError, match="non-negative"):
            _one("I", "I1", "a", "0", -1.0)

    def test_current_source_zero_allowed(self):
        net = _one("I", "I1", "a", "0", 0.0)
        assert net.elements("I").values.tolist() == [0.0]

    def test_voltage_source_any_value(self):
        net = _one("V", "V1", "a", "0", -1.2)
        assert net.elements("V").values.tolist() == [-1.2]


class TestElementValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(CircuitError, match="to itself"):
            _one("R", "R1", "a", "a", 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(CircuitError, match="non-empty"):
            _one("R", "", "a", "b", 1.0)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(CircuitError, match="non-numeric"):
            _one("R", "R1", "a", "b", "big")

    @pytest.mark.parametrize("kind", list(KIND_IDS.values()),
                             ids=list(KIND_IDS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_value_rejected(self, kind, value):
        with pytest.raises(CircuitError, match="non-finite"):
            _one(kind, "X1", "a", "b", value)

    @pytest.mark.parametrize("kind", ["R", "V"],
                             ids=["Resistor", "VoltageSource"])
    def test_bool_value_rejected(self, kind):
        with pytest.raises(CircuitError, match="non-numeric"):
            _one(kind, "X1", "a", "b", True)

    def test_int_beyond_float_range_rejected(self):
        with pytest.raises(CircuitError, match="non-finite"):
            _one("R", "R1", "a", "b", 10 ** 400)

    def test_netlist_builder_rejects_nan(self):
        # A rejected batch adds nothing, not even its nodes.
        net = Netlist()
        with pytest.raises(CircuitError, match="'R3' has non-finite"):
            net.add("R", ["R2", "R3"], ["a", "b"], "0",
                    [1.0, float("nan")])
        assert len(net) == 0 and net.nodes() == []

    def test_prefixes(self):
        net = Netlist()
        net.add(list("RCLIV"), ["R1", "C1", "L1", "I1", "V1"],
                ["a", "a", "a", "a", "b"], ["b", "0", "c", "0", "0"], 1.0)
        assert net.summary() == {
            "nodes": 3, "resistors": 1, "capacitors": 1, "inductors": 1,
            "current_sources": 1, "voltage_sources": 1}
        for kind in "RCLIV":
            assert net.elements(kind).names.tolist() == [f"{kind}1"]

    def test_elements_are_frozen(self):
        net = _one("R", "R1", "a", "b", 1.0)
        for column in net.elements("R"):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        assert np.array_equal(net.elements().values, [1.0])
