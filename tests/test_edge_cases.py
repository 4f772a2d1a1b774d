"""Additional edge-case coverage across modules.

These tests target code paths the main per-module suites do not reach:
fallback branches, unusual but legal inputs, and defensive errors.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.sources import SourceBank, Waveform
from repro.analysis.transient import TransientAnalysis
from repro.circuit import Netlist, assemble_mna
from repro.core import bdsm_reduce
from repro.core.cost_model import compare_costs
from repro.linalg.moments import system_moments
from repro.linalg.sparse_utils import as_dense
from repro.mor.base import ReducedSystem


class TestTransientWithVddSources:
    def test_const_input_drives_outputs(self):
        # A grid held up by an ideal VDD source settles to VDD at the
        # observed node even with zero port current.
        net = Netlist(title="vdd-transient")
        net.add("V", "V1", "a", "0", 1.0)
        net.add("R", "R1", "a", "b", 1.0)
        net.add("C", "C1", "b", "0", 1e-9)
        net.add("I", "I1", "b", "0", 0.0)
        system = assemble_mna(net)
        assert system.const_input is not None
        for method in ("backward_euler", "trapezoidal"):
            ta = TransientAnalysis(t_stop=2e-8, dt=1e-10, method=method)
            result = ta.run(system, SourceBank(1))
            assert result.output(0)[-1] == pytest.approx(1.0, rel=1e-3)


class TestWaveformBase:
    def test_abstract_call_raises(self):
        with pytest.raises(NotImplementedError):
            Waveform()(0.0)

    def test_custom_waveform_works_in_bank(self):
        class Ramp(Waveform):
            def __call__(self, t: float) -> float:
                return 2.0 * t

        bank = SourceBank.uniform(2, Ramp())
        assert np.allclose(bank(0.5), 1.0)


class TestSparseUtilsEdges:
    def test_as_dense_and_norm_on_sparse(self):
        m = sp.random(6, 6, density=0.3, random_state=0, format="csr")
        assert np.allclose(as_dense(m), m.toarray())


class TestMomentsAtComplexPoint:
    def test_complex_expansion_point(self, rc_ladder_system):
        s0 = 1j * 1e6
        moments = system_moments(rc_ladder_system.C, rc_ladder_system.G,
                                 rc_ladder_system.B, rc_ladder_system.L,
                                 2, s0=s0)
        # the zeroth moment equals H(s0)
        H = rc_ladder_system.transfer_function(s0)
        assert np.allclose(moments[0], H, rtol=1e-10)


class TestReducedSystemConstInput:
    def test_rom_with_const_input_simulates(self, rc_ladder_system):
        rom = ReducedSystem(
            C=np.eye(2), G=-np.eye(2), B=np.ones((2, 1)),
            L=np.ones((1, 2)), const_input=np.array([0.5, 0.0]))
        ta = TransientAnalysis(t_stop=10.0, dt=0.1)
        result = ta.run(rom, SourceBank(1))
        # steady state: -G x = const -> x = [0.5, 0]; y = 0.5
        assert result.output(0)[-1] == pytest.approx(0.5, rel=1e-2)


class TestCostModelRepresentation:
    def test_rows_are_json_friendly(self):
        row = compare_costs(25, 5).as_row()
        for value in row.values():
            assert isinstance(value, (int, float))


class TestBdsmOnSingleInputSystem:
    def test_single_port_grid(self, rc_ladder_system):
        # matching as many moments as the ladder has states makes the ROM an
        # exact realisation of the 1-port transfer function
        rom, _stats, _ = bdsm_reduce(rc_ladder_system, 3)
        assert rom.n_blocks == 1
        assert rom.size == 3
        s = 1j * 1e5
        assert np.allclose(rom.transfer_function(s),
                           rc_ladder_system.transfer_function(s), rtol=1e-8)
