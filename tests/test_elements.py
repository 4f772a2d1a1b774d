"""Unit tests for repro.circuit.elements."""

import pytest

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.exceptions import CircuitError


class TestResistor:
    def test_conductance(self):
        r = Resistor("R1", "a", "b", 4.0)
        assert r.conductance == pytest.approx(0.25)

    def test_positive_value_required(self):
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "b", 0.0)
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "b", -1.0)

    def test_spice_line(self):
        assert Resistor("R1", "a", "0", 1500.0).spice_line() == "R1 a 0 1500"


class TestCapacitorInductor:
    def test_capacitor_positive_value(self):
        with pytest.raises(CircuitError):
            Capacitor("C1", "a", "0", -1e-12)

    def test_inductor_positive_value(self):
        with pytest.raises(CircuitError):
            Inductor("L1", "a", "b", 0.0)

    def test_valid_construction(self):
        c = Capacitor("C1", "a", "0", 1e-12)
        l = Inductor("L1", "a", "b", 1e-9)
        assert c.value == 1e-12
        assert l.nodes == ("a", "b")


class TestSources:
    def test_current_source_nonnegative(self):
        with pytest.raises(CircuitError):
            CurrentSource("I1", "a", "0", -1.0)

    def test_current_source_zero_allowed(self):
        assert CurrentSource("I1", "a", "0", 0.0).value == 0.0

    def test_voltage_source_any_value(self):
        assert VoltageSource("V1", "a", "0", -1.2).value == -1.2


class TestElementValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "a", 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(CircuitError):
            Resistor("", "a", "b", 1.0)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "b", "big")  # type: ignore[arg-type]

    @pytest.mark.parametrize("cls", [Resistor, Capacitor, Inductor,
                                     CurrentSource, VoltageSource])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_value_rejected(self, cls, value):
        with pytest.raises(CircuitError, match="non-finite"):
            cls("X1", "a", "b", value)

    @pytest.mark.parametrize("cls", [Resistor, VoltageSource])
    def test_bool_value_rejected(self, cls):
        with pytest.raises(CircuitError, match="non-numeric"):
            cls("X1", "a", "b", True)

    def test_int_beyond_float_range_rejected(self):
        with pytest.raises(CircuitError, match="non-finite"):
            Resistor("R1", "a", "b", 10 ** 400)

    def test_netlist_builder_rejects_nan(self):
        from repro.circuit.netlist import Netlist
        with pytest.raises(CircuitError):
            Netlist().add_resistor("R2", "a", "b", float("nan"))

    def test_prefixes(self):
        assert Resistor("R1", "a", "b", 1.0).prefix == "R"
        assert Capacitor("C1", "a", "b", 1.0).prefix == "C"
        assert Inductor("L1", "a", "b", 1.0).prefix == "L"
        assert CurrentSource("I1", "a", "b", 1.0).prefix == "I"
        assert VoltageSource("V1", "a", "b", 1.0).prefix == "V"

    def test_elements_are_frozen(self):
        r = Resistor("R1", "a", "b", 1.0)
        with pytest.raises(AttributeError):
            r.value = 2.0  # type: ignore[misc]
