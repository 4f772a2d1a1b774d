"""Unit tests for repro.passivity (state space, Hamiltonian, Laguerre,
enforcement)."""

import numpy as np
import pytest

from repro.core import bdsm_reduce
from repro.exceptions import PassivityError
from repro.passivity import (
    StateSpaceModel,
    descriptor_to_state_space,
    diagonalize_state_space,
    enforce_passivity,
    hamiltonian_passivity_test,
    laguerre_passivity_scan,
    rom_block_to_state_space,
)
from repro.passivity.laguerre import laguerre_frequency_grid


def _passive_rc_model():
    """1-port RC driving-point admittance-like model (passive)."""
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    D = np.array([[0.5]])
    return StateSpaceModel(A=A, B=B, C=C, D=D)


def _nonpassive_model():
    """A model whose Hermitian part goes negative at low frequency."""
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    C = np.array([[-2.0]])
    D = np.array([[0.5]])
    return StateSpaceModel(A=A, B=B, C=C, D=D)


class TestStateSpaceModel:
    def test_dimensions_and_validation(self):
        model = _passive_rc_model()
        assert model.order == 1
        assert model.n_inputs == model.n_outputs == 1
        with pytest.raises(PassivityError):
            StateSpaceModel(A=np.ones((2, 3)), B=np.ones((2, 1)),
                            C=np.ones((1, 2)))

    def test_transfer_function(self):
        model = _passive_rc_model()
        s = 1j * 2.0
        expected = 1.0 / (s + 1.0) + 0.5
        assert model.transfer_function(s)[0, 0] == pytest.approx(expected)

    def test_stability_check(self):
        assert _passive_rc_model().is_stable()
        unstable = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        assert not unstable.is_stable()


class TestDescriptorConversion:
    def test_conversion_preserves_transfer_function(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        block = rom.blocks[0]
        model = rom_block_to_state_space(block)
        s = 1j * 1e8
        assert np.allclose(model.transfer_function(s).reshape(-1),
                           rom.transfer_function(s)[:, 0])

    def test_singular_c_rejected(self):
        with pytest.raises(PassivityError):
            descriptor_to_state_space(np.zeros((2, 2)), -np.eye(2),
                                      np.ones((2, 1)), np.ones((1, 2)))

    def test_diagonalization_preserves_transfer_function(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        model = rom_block_to_state_space(rom.blocks[1])
        diag = diagonalize_state_space(model)
        assert np.allclose(np.diag(np.diag(diag.A)), diag.A)
        s = 1j * 1e7
        assert np.allclose(diag.transfer_function(s),
                           model.transfer_function(s))


class TestHamiltonianTest:
    def test_passive_model_passes(self):
        report = hamiltonian_passivity_test(_passive_rc_model())
        assert report.is_passive
        assert report.worst_eigenvalue >= -1e-10

    def test_nonpassive_model_detected(self):
        report = hamiltonian_passivity_test(_nonpassive_model())
        assert not report.is_passive
        assert report.worst_eigenvalue < 0.0

    def test_non_square_rejected(self):
        model = StateSpaceModel(A=[[-1.0]], B=[[1.0]], C=[[1.0], [2.0]])
        with pytest.raises(PassivityError):
            hamiltonian_passivity_test(model)

    def test_zero_feedthrough_regularised(self):
        model = StateSpaceModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        report = hamiltonian_passivity_test(model)
        assert "regularised" in report.notes
        assert report.is_passive


class TestLaguerreScan:
    def test_grid_is_positive_and_sorted(self):
        grid = laguerre_frequency_grid(10, time_scale=1e-9)
        assert np.all(grid > 0.0)
        assert np.all(np.diff(grid) > 0.0)

    def test_invalid_grid_arguments(self):
        with pytest.raises(PassivityError):
            laguerre_frequency_grid(0)
        with pytest.raises(PassivityError):
            laguerre_frequency_grid(5, time_scale=0.0)

    @pytest.mark.parametrize("grid", ["rc", "ckt1-smoke"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scan_matches_diagonalised_blocks(self, rc_grid_system, grid,
                                              sign):
        """The scan reads the ROM's own evaluator; its verdict and worst
        eigenvalue match a scan over each block's diagonalised state-space
        model (paper Eq. 16), the reference it replaced."""
        from repro import make_benchmark
        system = (rc_grid_system if grid == "rc"
                  else make_benchmark("ckt1", scale="smoke"))
        rom, _, _ = bdsm_reduce(system, 3)
        for block in rom.blocks:
            block.L = sign * block.L
        report = laguerre_passivity_scan(rom, n_points=16)
        models = [diagonalize_state_space(rom_block_to_state_space(block))
                  for block in rom.blocks]
        worst = np.inf
        for omega in report.sampled_frequencies:
            H = np.column_stack([m.transfer_function(1j * omega)[:, 0]
                                 for m in models])
            worst = min(worst, float(np.min(np.linalg.eigvalsh(
                0.5 * (H + H.conj().T)))))
        assert report.worst_eigenvalue == pytest.approx(worst, rel=1e-9,
                                                        abs=1e-12)
        assert report.is_passive == (worst >= -1e-10)

    def test_power_grid_rom_nearly_passive(self, rc_grid_system):
        # Driving-point (port-to-port) RC grid impedance reduced by BDSM.
        # Our sign convention makes H = -Z, so flip the output sign before
        # scanning.  The paper notes BDSM ROMs "may be (weakly) non-passive"
        # but that violations are rare and small; assert exactly that: any
        # violation is tiny relative to the impedance scale.
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        for block in rom.blocks:
            block.L = -block.L
        report = laguerre_passivity_scan(rom, n_points=16)
        scale = float(np.max(np.abs(np.diag(rom.transfer_function(0.0)))))
        assert report.worst_eigenvalue > -1e-3 * scale
        assert len(report.sampled_frequencies) == 16

    def test_non_square_rom_rejected(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        rom.n_outputs = rom.n_ports + 1  # force inconsistency
        with pytest.raises(PassivityError):
            laguerre_passivity_scan(rom)


class TestEnforcement:
    def test_passive_model_untouched(self):
        model = _passive_rc_model()
        report = hamiltonian_passivity_test(model)
        result = enforce_passivity(model, report)
        assert result.was_passive
        assert result.perturbation == 0.0
        assert result.model is model

    def test_nonpassive_model_repaired(self):
        model = _nonpassive_model()
        report = hamiltonian_passivity_test(model)
        result = enforce_passivity(model, report)
        assert not result.was_passive
        assert result.perturbation > 0.0
        repaired_report = hamiltonian_passivity_test(result.model)
        assert repaired_report.is_passive

    def test_non_square_rejected(self):
        model = StateSpaceModel(A=[[-1.0]], B=[[1.0]], C=[[1.0], [2.0]])
        report = hamiltonian_passivity_test(_passive_rc_model())
        with pytest.raises(PassivityError):
            enforce_passivity(model, report)
