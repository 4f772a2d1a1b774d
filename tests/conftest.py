"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    Netlist,
    PowerGridSpec,
    assemble_mna,
    build_power_grid,
    make_benchmark,
)
from repro.obs.health import collect_health


@pytest.fixture()
def monitors():
    """Run one test inside a root health scope; yields its report."""
    with collect_health() as report:
        yield report


@pytest.fixture(scope="session")
def rc_grid_system():
    """A small pure-RC power grid (no package inductance), ~40 states."""
    spec = PowerGridSpec(rows=6, cols=6, n_ports=6, n_pads=4,
                         package_inductance=0.0, seed=7, name="rc-grid")
    return assemble_mna(build_power_grid(spec))


@pytest.fixture(scope="session")
def rlc_grid_system():
    """A small RLC power grid with package inductance, ~60 states."""
    spec = PowerGridSpec(rows=7, cols=7, n_ports=8, n_pads=4,
                         package_inductance=1e-12, seed=11, name="rlc-grid")
    return assemble_mna(build_power_grid(spec))


@pytest.fixture(scope="session")
def smoke_benchmark():
    """The ckt1 benchmark at smoke scale (~150 states, 12 ports)."""
    return make_benchmark("ckt1", scale="smoke")


@pytest.fixture()
def rc_ladder_netlist():
    """A 3-stage RC ladder with one current-source port, built by hand.

    Node chain: in -> n1 -> n2 -> n3, each stage 1 ohm / 1 uF to ground,
    driven by a 1 mA current source at n1.  Small enough for analytic
    cross-checks.
    """
    net = Netlist(title="rc-ladder")
    net.add("R", "R0", "n1", "0", 10.0)
    net.add("R", "R1", "n1", "n2", 1.0)
    net.add("R", "R2", "n2", "n3", 1.0)
    net.add("C", "C1", "n1", "0", 1e-6)
    net.add("C", "C2", "n2", "0", 1e-6)
    net.add("C", "C3", "n3", "0", 1e-6)
    net.add("I", "I1", "n1", "0", 1e-3)
    net.set_output_nodes(["n1", "n3"])
    return net


@pytest.fixture()
def rc_ladder_system(rc_ladder_netlist):
    """Descriptor system of the hand-built RC ladder."""
    return assemble_mna(rc_ladder_netlist)


@pytest.fixture()
def single_rc_netlist():
    """A single parallel RC driven by one current source (analytic model).

    v(t) for a current step I is I*R*(1 - exp(-t/(R*C))).
    """
    net = Netlist(title="single-rc")
    net.add("R", "R1", "n1", "0", 100.0)
    net.add("C", "C1", "n1", "0", 1e-6)
    net.add("I", "I1", "n1", "0", 1e-3)
    net.set_output_nodes(["n1"])
    return net


@pytest.fixture()
def rng():
    """Deterministic RNG for tests that need random data."""
    return np.random.default_rng(12345)
