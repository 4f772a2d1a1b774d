"""Unit tests for repro.passivity (modal realisation, Hamiltonian test,
Laguerre scan, enforcement), all on the one ROM type."""

import numpy as np
import pytest

from repro import (
    ModelServer,
    SourceBank,
    TransientAnalysis,
    make_benchmark,
    partitioned_reduce,
    prima_reduce,
)
from repro.analysis.sources import StepSource
from repro.core import bdsm_reduce
from repro.exceptions import PassivityError
from repro.mor.base import ReducedSystem, ROMBlock, StructuredROM
from repro.passivity import (
    enforce_passivity,
    hamiltonian_passivity_test,
    laguerre_passivity_scan,
    modal_realisation,
)
from repro.passivity.hamiltonian import hermitian_part_eigenvalues
from repro.passivity.laguerre import (
    TOP_NODE_OVER_MAX_POLE,
    laguerre_frequency_grid,
)
from repro.store import load_artifact, save_artifact


def _toy_rom(residue: float, feedthrough: float) -> StructuredROM:
    """``H(s) = residue / (s + 1) + feedthrough``: a dynamic block
    ``C = 1, G = -1`` plus a static block for ``D``."""
    return StructuredROM(
        [ROMBlock(0, [[1.0]], [[-1.0]], [[1.0]], [[residue]]),
         ROMBlock(1, [[0.0]], [[-1.0]], [[feedthrough]], [[1.0]])],
        n_ports=1, n_outputs=1)


def _passive_rc_model():
    """1-port RC driving-point admittance-like model (passive)."""
    return _toy_rom(1.0, 0.5)


def _nonpassive_model():
    """A model whose Hermitian part goes negative at low frequency."""
    return _toy_rom(-2.0, 0.5)


def _non_square_rom():
    return ReducedSystem(C=[[1.0]], G=[[-1.0]], B=[[1.0]],
                         L=[[1.0], [2.0]])


def _direct(rom, s: complex) -> np.ndarray:
    """``H(s)`` from one dense solve per block, ``L_i (s C_i - G_i)^{-1}
    B_i`` scattered to the block's ports: a reference independent of the
    modal form."""
    H = np.zeros((rom.n_outputs, rom.n_ports), dtype=complex)
    for block in rom.blocks:
        cols = slice(None) if block.ports is None else block.ports
        H[:, cols] += block.L @ np.linalg.solve(s * block.C - block.G,
                                                block.B)
    return H


def _impedance_rom(system, n_moments: int = 4):
    """The BDSM ROM of ``system`` with outputs flipped so it represents
    ``+Z(s)`` (our MNA convention gives ``H = -Z``)."""
    rom, _, _ = bdsm_reduce(system, n_moments)
    for block in rom.blocks:
        block.L = -block.L
    return rom


class TestModalRealisation:
    @pytest.mark.parametrize("method", ["bdsm", "prima"])
    @pytest.mark.parametrize("grid", ["rc", "ckt1-smoke"])
    def test_realisation_matches_direct_solve(self, rc_grid_system, grid,
                                              method):
        """``C (sI - A)^{-1} B + D`` read off the modal form reproduces the
        per-block direct solve, with a diagonal ``A``."""
        system = (rc_grid_system if grid == "rc"
                  else make_benchmark("ckt1", scale="smoke"))
        reduce = bdsm_reduce if method == "bdsm" else prima_reduce
        rom, _, _ = reduce(system, 3)
        A, B, C, D = modal_realisation(rom)
        assert A.shape == (rom.size, rom.size)
        assert np.array_equal(np.diag(np.diag(A)), A)
        assert np.all(np.diag(A).real < 0.0)
        for s in 1j * np.logspace(6, 12, 5):
            direct = _direct(rom, s)
            H = C @ np.linalg.solve(s * np.eye(rom.size) - A, B) + D
            assert np.max(np.abs(H - direct)) \
                <= 1e-10 * np.max(np.abs(direct))

    def test_toy_transfer_function(self):
        A, B, C, D = modal_realisation(_passive_rc_model())
        assert A == pytest.approx(np.array([[-1.0]]))
        assert (C @ B)[0, 0] == pytest.approx(1.0)
        assert D == pytest.approx(np.array([[0.5]]))
        s = 1j * 2.0
        expected = 1.0 / (s + 1.0) + 0.5
        assert _passive_rc_model().transfer_function(s)[0, 0] \
            == pytest.approx(expected)


class TestDescriptorConversion:
    """One BDSM block alone, turned into ``(A, B, C, D)`` through its modal
    form."""

    @staticmethod
    def _block_rom(rom, i: int) -> StructuredROM:
        return StructuredROM([rom.blocks[i]], n_ports=rom.n_ports,
                             n_outputs=rom.n_outputs)

    def test_conversion_preserves_transfer_function(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        A, B, C, D = modal_realisation(self._block_rom(rom, 0))
        s = 1j * 1e8
        H = C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, B) + D
        assert np.allclose(H[:, 0], rom.transfer_function(s)[:, 0])
        assert np.allclose(H[:, 1:], 0.0)

    def test_diagonalization_preserves_transfer_function(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        block_rom = self._block_rom(rom, 1)
        A, B, C, D = modal_realisation(block_rom)
        assert np.allclose(np.diag(np.diag(A)), A)
        s = 1j * 1e7
        H = C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, B) + D
        assert np.allclose(H, _direct(block_rom, s))


class TestRefusals:
    def test_bordered_rom_rejected(self):
        rom = partitioned_reduce(make_benchmark("ckt1", scale="smoke"), 2,
                                 n_parts=2)[0]
        assert rom.n_outputs == rom.n_ports
        with pytest.raises(PassivityError, match="border"):
            hamiltonian_passivity_test(rom)
        report = laguerre_passivity_scan(rom, n_points=4)
        with pytest.raises(PassivityError, match="border"):
            enforce_passivity(rom, report)

    def test_modal_fallback_rejected(self):
        # Singular G: the modal guard falls back to direct solves.
        rom = ReducedSystem(C=np.eye(2), G=np.diag([0.0, -1.0]),
                            B=np.ones((2, 1)), L=np.ones((1, 2)))
        with pytest.raises(PassivityError, match="check failed"):
            hamiltonian_passivity_test(rom)
        report = hamiltonian_passivity_test(_nonpassive_model())
        with pytest.raises(PassivityError, match="check failed"):
            enforce_passivity(rom, report)


class TestHamiltonianTest:
    def test_passive_model_passes(self):
        report = hamiltonian_passivity_test(_passive_rc_model())
        assert report.is_passive
        assert report.worst_eigenvalue >= -1e-10

    def test_nonpassive_model_detected(self):
        report = hamiltonian_passivity_test(_nonpassive_model())
        assert not report.is_passive
        assert report.worst_eigenvalue == pytest.approx(-1.5)
        assert report.crossing_frequencies == pytest.approx([np.sqrt(3.0)])

    def test_non_square_rejected(self):
        with pytest.raises(PassivityError, match="square"):
            hamiltonian_passivity_test(_non_square_rom())

    def test_zero_feedthrough_regularised(self):
        model = ReducedSystem(C=[[1.0]], G=[[-1.0]], B=[[1.0]], L=[[1.0]])
        report = hamiltonian_passivity_test(model)
        assert "regularised" in report.notes
        assert report.is_passive

    @pytest.mark.parametrize("feedthrough", [0.5, -0.5])
    def test_static_only_rom(self, feedthrough):
        """A ROM with no finite pole: an empty ``A``, all of ``H`` in
        ``D``."""
        rom = StructuredROM([ROMBlock(0, [[0.0]], [[-1.0]], [[feedthrough]],
                                      [[1.0]])], n_ports=1, n_outputs=1)
        report = hamiltonian_passivity_test(rom)
        assert report.is_passive == (feedthrough > 0.0)
        assert report.worst_eigenvalue == pytest.approx(feedthrough)

    @pytest.mark.parametrize("ckt", ["ckt1", "ckt2", "ckt3"])
    def test_bdsm_smoke_rom_non_passive(self, ckt):
        """The smoke BDSM ROMs dip below zero between poles, where the
        regularised Hamiltonian finds no crossing: sampling at the pole
        magnitudes finds the dip, within 10% of a dense sweep."""
        rom = _impedance_rom(make_benchmark(ckt, scale="smoke"))
        report = hamiltonian_passivity_test(rom)
        dense = min(float(np.min(hermitian_part_eigenvalues(rom, w)))
                    for w in np.logspace(8, 15, 2000))
        assert dense < 0.0
        assert not report.is_passive
        assert report.worst_eigenvalue == pytest.approx(dense, rel=0.1)

    def test_prima_smoke_rom_passive(self):
        rom, _, _ = prima_reduce(make_benchmark("ckt1", scale="smoke"), 4)
        rom.blocks[0].L = -rom.blocks[0].L
        assert hamiltonian_passivity_test(rom).is_passive


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
        """The scan reads the ROM's own (modal) evaluator; its verdict and
        worst eigenvalue match a scan over a dense solve of each block."""
        system = (rc_grid_system if grid == "rc"
                  else make_benchmark("ckt1", scale="smoke"))
        rom, _, _ = bdsm_reduce(system, 3)
        for block in rom.blocks:
            block.L = sign * block.L
        report = laguerre_passivity_scan(rom, n_points=16)
        worst = np.inf
        for omega in report.sampled_frequencies:
            H = _direct(rom, 1j * omega)
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
        rom = _impedance_rom(rc_grid_system, 3)
        report = laguerre_passivity_scan(rom, n_points=16)
        scale = float(np.max(np.abs(np.diag(rom.transfer_function(0.0)))))
        assert report.worst_eigenvalue > -1e-3 * scale
        assert len(report.sampled_frequencies) == 16

    def test_non_square_rom_rejected(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        rom.n_outputs = rom.n_ports + 1  # force inconsistency
        with pytest.raises(PassivityError):
            laguerre_passivity_scan(rom)

    @pytest.mark.parametrize("ckt", ["ckt1", "ckt2", "ckt3"])
    def test_default_grid_finds_smoke_rom_violation(self, ckt):
        """With its defaults the scan's grid reaches past every pole (a
        fixed 1 ns scale topped out below all of them and read these ROMs
        passive)."""
        rom = _impedance_rom(make_benchmark(ckt, scale="smoke"))
        report = laguerre_passivity_scan(rom)
        assert not report.is_passive
        assert report.worst_eigenvalue < -0.01
        top = max(report.sampled_frequencies)
        assert top == pytest.approx(
            TOP_NODE_OVER_MAX_POLE * np.max(np.abs(rom.poles())))


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
        report = hamiltonian_passivity_test(_passive_rc_model())
        with pytest.raises(PassivityError, match="square"):
            enforce_passivity(_non_square_rom(), report)

    def test_gives_up_after_the_pass_cap(self, monkeypatch):
        """A repaired model that keeps failing its re-test is refused
        after a few passes, not returned."""
        import repro.passivity.enforcement as enforcement
        model = _nonpassive_model()
        report = hamiltonian_passivity_test(model)
        retests = []

        def always_failing(rom):
            retests.append(rom)
            return report

        monkeypatch.setattr(enforcement, "hamiltonian_passivity_test",
                            always_failing)
        with pytest.raises(PassivityError, match="re-test"):
            enforce_passivity(model, report)
        assert len(retests) == enforcement.MAX_ENFORCEMENT_PASSES


@pytest.fixture(scope="module")
def enforced():
    """The ckt1-smoke BDSM impedance ROM (non-passive) and its repair."""
    system = make_benchmark("ckt1", scale="smoke")
    rom = _impedance_rom(system)
    result = enforce_passivity(rom, hamiltonian_passivity_test(rom))
    return system, rom, result


class TestEnforcedROM:
    """The repaired model is a first-class ``StructuredROM``."""

    def test_repair_adds_the_shift(self, enforced):
        _, rom, result = enforced
        assert not result.was_passive
        assert type(result.model) is StructuredROM
        assert result.model.blocks[:-1] == rom.blocks
        for s in 1j * np.logspace(9, 14, 4):
            shifted = rom.transfer_function(s) \
                + result.perturbation * np.eye(rom.n_ports)
            assert np.allclose(result.model.transfer_function(s), shifted,
                               rtol=1e-13, atol=0.0)

    def test_rescan_and_retest_pass(self, enforced):
        _, _, result = enforced
        scan = laguerre_passivity_scan(result.model, n_points=24)
        assert scan.is_passive
        assert hamiltonian_passivity_test(result.model).is_passive

    def test_enforced_rom_passes_dense_sweep(self, enforced):
        """The repaired ROM is passive between its sampled frequencies
        too: its re-test finds the violation band between two Hamiltonian
        crossings, and enforcement raises the shift to cover it."""
        _, _, result = enforced
        dense = min(float(np.min(hermitian_part_eigenvalues(result.model, w)))
                    for w in np.logspace(8, 15, 2000))
        assert dense >= -1e-10

    def test_poles_show_the_static_block(self, enforced):
        _, rom, result = enforced
        poles = result.model.poles()
        assert np.sum(np.isinf(poles)) == rom.n_ports
        assert np.array_equal(poles[np.isfinite(poles)], rom.poles())

    def test_artifact_round_trip_bit_identical(self, enforced, tmp_path):
        _, _, result = enforced
        loaded = load_artifact(save_artifact(result.model,
                                             tmp_path / "enforced.npz"))
        assert type(loaded) is StructuredROM
        assert loaded.n_blocks == result.model.n_blocks
        for s in 1j * np.logspace(9, 14, 4):
            assert np.array_equal(loaded.transfer_function(s),
                                  result.model.transfer_function(s))

    def test_served_matches_direct(self, enforced):
        _, _, result = enforced
        s_values = 1j * np.logspace(9, 14, 4)
        with ModelServer() as server:
            server.register("enforced", result.model)
            served = server.transfer("enforced", s_values)
        direct = np.stack([result.model.transfer_function(s)
                           for s in s_values])
        assert np.array_equal(served, direct)

    def test_transient_runs(self, enforced):
        system, _, result = enforced
        sources = SourceBank.uniform(system.n_ports, StepSource(1e-3))
        run = TransientAnalysis(t_stop=1e-9, dt=1e-10).run(result.model,
                                                           sources)
        assert np.all(np.isfinite(run.outputs))
