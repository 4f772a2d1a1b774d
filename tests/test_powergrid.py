"""Unit tests for repro.circuit.powergrid."""

import numpy as np
import pytest

from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid
from repro.circuit.parser import write_netlist
from repro.exceptions import CircuitError


def _named(net, kind, prefix):
    """``{name: (node_pos, node_neg, value)}`` of one kind's elements whose
    name starts with ``prefix``."""
    nodes = net.nodes() + ["0"]
    found = net.elements(kind)
    return {name: (nodes[pos], nodes[neg], value)
            for name, (pos, neg), value in zip(found.names.tolist(),
                                               found.nodes.tolist(),
                                               found.values.tolist())
            if name.startswith(prefix)}


class TestPowerGridSpec:
    def test_mesh_node_count(self):
        spec = PowerGridSpec(rows=5, cols=7, n_ports=3)
        assert spec.n_mesh_nodes == 35

    def test_has_package_flag(self):
        rc = PowerGridSpec(rows=4, cols=4, n_ports=2, package_inductance=0.0)
        rlc = PowerGridSpec(rows=4, cols=4, n_ports=2, package_inductance=1e-12)
        assert not rc.has_package
        assert rlc.has_package

    @pytest.mark.parametrize("kwargs", [
        {"rows": 1, "cols": 4, "n_ports": 1},
        {"rows": 4, "cols": 4, "n_ports": 0},
        {"rows": 3, "cols": 3, "n_ports": 10},
        {"rows": 4, "cols": 4, "n_ports": 2, "n_pads": 0},
        {"rows": 4, "cols": 4, "n_ports": 2, "variation": 1.5},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(CircuitError):
            PowerGridSpec(**kwargs)


class TestBuildPowerGrid:
    def test_counts_rc_grid(self):
        spec = PowerGridSpec(rows=4, cols=5, n_ports=3, n_pads=2,
                             package_inductance=0.0, seed=1)
        net = build_power_grid(spec)
        summary = net.summary()
        # rails: 4*(5-1) horizontal + 5*(4-1) vertical, plus 2 pad resistors
        # (mesh->pad) and 2 pad-to-ground resistors.
        assert summary["resistors"] == 4 * 4 + 5 * 3 + 2 + 2
        assert summary["capacitors"] == 20
        assert summary["inductors"] == 0
        assert summary["current_sources"] == 3
        net.validate()

    def test_package_chain_per_pad(self):
        # Each pad: mesh -Rpkg- pkg -Lpkg- pad -Rpad- ground, written pad by
        # pad.
        spec = PowerGridSpec(rows=4, cols=4, n_ports=2, n_pads=3,
                             package_inductance=1e-12, seed=2)
        net = build_power_grid(spec)
        assert net.summary()["inductors"] == 3
        lines = [line.split()[:3] for line in write_netlist(net).splitlines()
                 if line.startswith(("Rpkg", "Lpkg", "Rpad"))]
        assert lines[:3] == [["Rpkg1", "n0_0", "pkg1"],
                             ["Lpkg1", "pkg1", "pad1"],
                             ["Rpad1", "pad1", "0"]]
        assert len(lines) == 9
        net.validate()

    def test_output_nodes_are_port_nodes(self):
        spec = PowerGridSpec(rows=5, cols=5, n_ports=4, seed=3)
        net = build_power_grid(spec)
        assert len(net.output_nodes) == 4
        port_nodes = {pos for pos, _, _ in _named(net, "I", "I").values()}
        assert set(net.output_nodes) == port_nodes

    def test_deterministic_for_same_seed(self):
        spec = PowerGridSpec(rows=5, cols=5, n_ports=4, seed=9)
        a = build_power_grid(spec)
        b = build_power_grid(spec)
        assert write_netlist(a) == write_netlist(b)

    def test_different_seed_changes_values(self):
        a = build_power_grid(PowerGridSpec(rows=5, cols=5, n_ports=4, seed=1))
        b = build_power_grid(PowerGridSpec(rows=5, cols=5, n_ports=4, seed=2))
        assert write_netlist(a) != write_netlist(b)

    def test_zero_variation_gives_nominal_values(self):
        spec = PowerGridSpec(rows=3, cols=3, n_ports=1, variation=0.0,
                             rail_resistance=2.5, seed=0)
        net = build_power_grid(spec)
        rail_values = {value for name, (_, _, value)
                       in _named(net, "R", "R").items()
                       if not name.startswith(("Rpkg", "Rpad"))}
        assert rail_values == {2.5}

    def test_stamps_into_solvable_system(self):
        spec = PowerGridSpec(rows=6, cols=6, n_ports=5, seed=4)
        system = assemble_mna(build_power_grid(spec))
        H0 = system.transfer_function(0.0)
        assert H0.shape == (5, 5)
        assert np.all(np.isfinite(H0))
        # driving-point DC resistances are negative in our sign convention
        # (the source draws current) and non-zero.
        assert np.all(np.diag(np.real(H0)) < 0.0)


class TestPadCapacityValidation:
    """Regression tests for the silent n_pads clamp (now a clear error)."""

    def test_too_many_pads_rejected_up_front(self):
        # A 2x2 mesh has 4 boundary nodes; the old code silently clamped
        # a 5-pad request down to 4 pads instead of rejecting it.
        with pytest.raises(CircuitError, match="cannot place 5 pads"):
            PowerGridSpec(rows=2, cols=2, n_ports=1, n_pads=5)

    def test_exact_capacity_is_accepted(self):
        spec = PowerGridSpec(rows=3, cols=3, n_ports=1, n_pads=8,
                             package_inductance=0.0, seed=1)
        assert spec.boundary_capacity == 8
        net = build_power_grid(spec)
        assert len(_named(net, "R", "Rpad")) == 8
        # Every pad grabbed a distinct boundary node.
        pad_nodes = {pos for pos, _, _ in _named(net, "R", "Rpkg").values()}
        assert len(pad_nodes) == 8

    def test_blockage_reduces_capacity(self):
        from repro.circuit import GridRegion  # noqa: F401  (API sanity)
        open_spec = PowerGridSpec(rows=8, cols=8, n_ports=2)
        assert open_spec.boundary_capacity == 2 * (8 + 8) - 4


class TestMultiDomainGrids:
    def test_region_scales_element_values(self):
        from repro.circuit import GridRegion
        region = GridRegion(0, 0, 3, 3, r_scale=1.0, c_scale=10.0)
        base = PowerGridSpec(rows=6, cols=6, n_ports=2, variation=0.0,
                             node_capacitance=1e-15, seed=0)
        scaled = PowerGridSpec(rows=6, cols=6, n_ports=2, variation=0.0,
                               node_capacitance=1e-15, regions=(region,),
                               seed=0)
        caps_base = _named(build_power_grid(base), "C", "C")
        caps_scaled = _named(build_power_grid(scaled), "C", "C")
        ratios = {round(caps_scaled[name][2] / caps_base[name][2], 9)
                  for name in caps_base}
        assert ratios == {1.0, 10.0}

    def test_region_validation(self):
        from repro.circuit import GridRegion
        with pytest.raises(CircuitError):
            GridRegion(0, 0, 0, 3)
        with pytest.raises(CircuitError):
            GridRegion(0, 0, 2, 2, r_scale=0.0)
        with pytest.raises(CircuitError):
            PowerGridSpec(rows=4, cols=4, n_ports=1,
                          regions=(GridRegion(2, 2, 5, 5),))
        with pytest.raises(CircuitError):
            PowerGridSpec(rows=4, cols=4, n_ports=1, regions=("logic",))

    def test_blockage_removes_nodes(self):
        spec = PowerGridSpec(rows=8, cols=8, n_ports=4, seed=2,
                             blockages=((3, 3, 2, 2),))
        assert spec.n_open_nodes == 64 - 4
        net = build_power_grid(spec)
        blocked = {f"n{r}_{c}" for r in (3, 4) for c in (3, 4)}
        assert blocked.isdisjoint(net.nodes())
        net.validate()
        system = assemble_mna(net)
        assert np.all(np.isfinite(system.transfer_function(0.0)))

    def test_blockage_validation(self):
        # Touching the boundary ring would disconnect the pad ring.
        with pytest.raises(CircuitError, match="boundary ring"):
            PowerGridSpec(rows=6, cols=6, n_ports=1,
                          blockages=((0, 2, 2, 2),))
        with pytest.raises(CircuitError):
            PowerGridSpec(rows=6, cols=6, n_ports=1, blockages=((2, 2),))
        # Ports must still fit the surviving nodes.
        with pytest.raises(CircuitError, match="blocked node"):
            PowerGridSpec(rows=6, cols=6, n_ports=33,
                          blockages=((1, 1, 4, 4),))

    def test_make_multidomain_spec(self):
        from repro.circuit import make_multidomain_spec
        spec = make_multidomain_spec(12, 12, 6, seed=1)
        assert len(spec.regions) == 4
        assert len(spec.blockages) == 1
        system = assemble_mna(build_power_grid(spec))
        assert system.n_ports == 6
        assert np.all(np.isfinite(system.transfer_function(1j * 1e7)))
        with pytest.raises(CircuitError):
            make_multidomain_spec(4, 4, 2)
