"""Circuit element model.

The power-grid benchmarks of the paper are RLC networks driven by current
sources (transistor-block loading) and voltage sources (VDD pads), cf. its
Fig. 3.  Each element knows how to validate itself; the MNA stamping logic
lives in :mod:`repro.circuit.mna` so the element classes stay plain data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import CircuitError

__all__ = [
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "CurrentSource",
    "VoltageSource",
    "GROUND",
]

#: Canonical name of the reference (ground) node.
GROUND = "0"


@dataclass(frozen=True)
class Element:
    """Base class for two-terminal circuit elements.

    Attributes
    ----------
    name:
        Unique element identifier, e.g. ``"R12"``.
    node_pos:
        Name of the positive terminal node.
    node_neg:
        Name of the negative terminal node.
    value:
        Element value in SI units (ohm, farad, henry, ampere or volt).
    """

    name: str
    node_pos: str
    node_neg: str
    value: float

    #: One-letter SPICE prefix; subclasses override.
    prefix: str = field(default="X", init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CircuitError("element name must be non-empty")
        if self.node_pos == self.node_neg:
            raise CircuitError(
                f"element {self.name!r} connects node {self.node_pos!r} "
                "to itself"
            )
        self._validate_value()

    def _validate_value(self) -> None:
        if isinstance(self.value, bool) \
                or not isinstance(self.value, (int, float)):
            raise CircuitError(
                f"element {self.name!r} has non-numeric value {self.value!r}"
            )
        try:
            finite = math.isfinite(self.value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise CircuitError(
                f"element {self.name!r} has non-finite value {self.value!r}"
            )

    @property
    def nodes(self) -> tuple[str, str]:
        """The ``(positive, negative)`` node pair."""
        return (self.node_pos, self.node_neg)

    def spice_line(self) -> str:
        """Render the element as one SPICE netlist line."""
        return f"{self.name} {self.node_pos} {self.node_neg} {self.value:.12g}"


@dataclass(frozen=True)
class Resistor(Element):
    """Linear resistor; ``value`` is the resistance in ohms (must be > 0)."""

    prefix: str = field(default="R", init=False, repr=False)

    def _validate_value(self) -> None:
        super()._validate_value()
        if self.value <= 0.0:
            raise CircuitError(
                f"resistor {self.name!r} must have positive resistance, "
                f"got {self.value}"
            )

    @property
    def conductance(self) -> float:
        """Conductance ``1/R`` stamped into the G matrix."""
        return 1.0 / self.value


@dataclass(frozen=True)
class Capacitor(Element):
    """Linear capacitor; ``value`` is the capacitance in farads (must be > 0)."""

    prefix: str = field(default="C", init=False, repr=False)

    def _validate_value(self) -> None:
        super()._validate_value()
        if self.value <= 0.0:
            raise CircuitError(
                f"capacitor {self.name!r} must have positive capacitance, "
                f"got {self.value}"
            )


@dataclass(frozen=True)
class Inductor(Element):
    """Linear inductor; ``value`` is the inductance in henries (must be > 0).

    Inductors introduce a branch-current unknown into the MNA state vector,
    which is why the paper's state ``x(t)`` contains "nodal voltages and the
    branch currents across inductive components".
    """

    prefix: str = field(default="L", init=False, repr=False)

    def _validate_value(self) -> None:
        super()._validate_value()
        if self.value <= 0.0:
            raise CircuitError(
                f"inductor {self.name!r} must have positive inductance, "
                f"got {self.value}"
            )


@dataclass(frozen=True)
class CurrentSource(Element):
    """Independent current source (an input port of the power grid).

    ``value`` is the nominal DC magnitude in amperes; the actual waveform is
    supplied at simulation time, so the MNA input matrix ``B`` only records
    the incidence of the port.  Current flows from ``node_pos`` through the
    source to ``node_neg`` (standard SPICE convention), so a load drawing
    current from a power-grid node has ``node_pos`` on the grid node and
    ``node_neg`` on ground.
    """

    prefix: str = field(default="I", init=False, repr=False)

    def _validate_value(self) -> None:
        super()._validate_value()
        if self.value < 0.0:
            raise CircuitError(
                f"current source {self.name!r} must have a non-negative "
                f"nominal magnitude, got {self.value}"
            )


@dataclass(frozen=True)
class VoltageSource(Element):
    """Independent voltage source (a VDD pad).

    Like inductors, voltage sources add a branch-current unknown to the MNA
    state.  ``value`` is the DC voltage in volts.
    """

    prefix: str = field(default="V", init=False, repr=False)
