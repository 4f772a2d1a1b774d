"""Unit tests for repro.analysis.ir_drop."""

import numpy as np
import pytest

from repro.analysis import IRDropResult, ir_drop_analysis
from repro.analysis.ir_drop import dynamic_ir_drop, ir_drop_batch
from repro.analysis.sources import SourceBank, StepSource
from repro.circuit import Netlist, assemble_mna
from repro.core import bdsm_reduce
from repro.exceptions import SimulationError


class TestStaticIrDrop:
    def test_simple_resistive_drop(self):
        # 1 mA through 10 ohm to ground -> 10 mV drop at the node.
        net = Netlist(title="drop")
        net.add("R", "R1", "a", "0", 10.0)
        net.add("C", "C1", "a", "0", 1e-12)
        net.add("I", "I1", "a", "0", 1e-3)
        system = assemble_mna(net)
        result = ir_drop_analysis(system, np.array([1e-3]))
        assert result.drops[0] == pytest.approx(0.01)
        node, worst = result.worst()
        assert node == "v(a)"
        assert worst == pytest.approx(0.01)

    def test_drop_scales_linearly_with_current(self, rc_grid_system):
        m = rc_grid_system.n_ports
        small = ir_drop_analysis(rc_grid_system, np.full(m, 1e-3))
        large = ir_drop_analysis(rc_grid_system, np.full(m, 2e-3))
        assert np.allclose(large.drops, 2.0 * small.drops, rtol=1e-9)

    def test_rom_matches_full_model(self, rc_grid_system):
        m = rc_grid_system.n_ports
        loads = np.linspace(1e-3, 2e-3, m)
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        full = ir_drop_analysis(rc_grid_system, loads)
        reduced = ir_drop_analysis(rom, loads)
        assert np.allclose(full.drops, reduced.drops, rtol=1e-6)

    def test_wrong_load_vector_length(self, rc_grid_system):
        with pytest.raises(SimulationError):
            ir_drop_analysis(rc_grid_system, np.ones(3))

    def test_non_finite_loads_rejected(self, rc_grid_system):
        loads = np.full(rc_grid_system.n_ports, 1e-3)
        loads[0] = np.nan
        with pytest.raises(SimulationError, match="finite"):
            ir_drop_analysis(rc_grid_system, loads)
        with pytest.raises(SimulationError, match="finite"):
            ir_drop_batch(rc_grid_system,
                          np.vstack([np.full_like(loads, 1e-3), loads]))


class TestIrDropResultEdgeCases:
    def test_worst_with_empty_node_names(self):
        result = IRDropResult(node_names=[],
                              voltages=np.array([-0.1, -0.3, -0.2]))
        name, drop = result.worst()
        assert name == "output1"
        assert drop == pytest.approx(0.3)

    def test_worst_on_all_positive_voltages_reports_zero_drop(self):
        result = IRDropResult(node_names=["a", "b"],
                              voltages=np.array([0.2, 0.1]))
        name, drop = result.worst()
        assert drop == 0.0
        assert name in ("a", "b")


class TestDynamicIrDrop:
    def test_worst_case_dynamic_drop(self, rc_grid_system):
        m = rc_grid_system.n_ports
        bank = SourceBank.uniform(m, StepSource(1e-3, t0=1e-10))
        result = dynamic_ir_drop(rc_grid_system, bank,
                                 t_stop=2e-9, dt=1e-10)
        assert np.all(result.drops >= 0.0)
        assert result.worst()[1] > 0.0

    @pytest.mark.parametrize("t_stop, dt", [(1e-9, float("nan")),
                                            (float("inf"), 1e-10)])
    def test_non_finite_times_rejected(self, rc_grid_system, t_stop, dt):
        bank = SourceBank.uniform(rc_grid_system.n_ports, StepSource(1e-3))
        with pytest.raises(SimulationError, match="finite"):
            dynamic_ir_drop(rc_grid_system, bank, t_stop=t_stop, dt=dt)

    def test_dynamic_drop_bounded_by_settled_static(self, rc_grid_system):
        # After the step settles the dynamic worst case approaches the static
        # IR drop; it can never exceed it for a monotone RC response.
        m = rc_grid_system.n_ports
        static = ir_drop_analysis(rc_grid_system, np.full(m, 1e-3))
        bank = SourceBank.uniform(m, StepSource(1e-3, t0=0.0))
        dynamic = dynamic_ir_drop(rc_grid_system, bank,
                                  t_stop=5e-9, dt=5e-11)
        assert np.all(dynamic.drops <= static.drops * 1.01 + 1e-12)
        assert np.max(dynamic.drops) > 0.5 * np.max(static.drops)
