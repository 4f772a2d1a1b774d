"""Unit tests for repro.analysis.frequency."""

import numpy as np
import pytest

from repro.analysis import FrequencyAnalysis
from repro.core import bdsm_reduce
from repro.exceptions import SimulationError
from repro.mor import prima_reduce


class TestFrequencyAnalysisSetup:
    def test_omega_grid_is_log_spaced(self):
        fa = FrequencyAnalysis(omega_min=1e3, omega_max=1e9, n_points=7)
        omegas = fa.omegas
        assert omegas.shape == (7,)
        ratios = omegas[1:] / omegas[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_invalid_band_rejected(self):
        with pytest.raises(SimulationError):
            FrequencyAnalysis(omega_min=0.0, omega_max=1e9)
        with pytest.raises(SimulationError):
            FrequencyAnalysis(omega_min=1e9, omega_max=1e3)
        with pytest.raises(SimulationError):
            FrequencyAnalysis(omega_min=1e3, omega_max=1e9, n_points=1)


class TestSweeps:
    def test_full_sweep_shape(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=5)
        sweep = fa.sweep(rc_grid_system)
        assert sweep.values.shape == (5, rc_grid_system.n_outputs,
                                      rc_grid_system.n_ports)
        assert sweep.magnitude.shape == sweep.values.shape

    def test_entry_sweep_matches_full(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=4)
        full = fa.sweep(rc_grid_system)
        entry = fa.sweep_entry(rc_grid_system, output=0, port=1)
        assert np.allclose(entry.values, full.entry(0, 1))

    def test_relative_error_of_identical_sweeps_is_zero(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=4)
        sweep = fa.sweep_entry(rc_grid_system, 0, 0)
        assert np.allclose(sweep.relative_error_to(sweep), 0.0)

    def test_relative_error_shape_mismatch(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=4)
        a = fa.sweep_entry(rc_grid_system, 0, 0)
        b = fa.sweep(rc_grid_system)
        with pytest.raises(SimulationError):
            b.relative_error_to(a)

    def test_relative_error_different_grids_rejected(self, rc_grid_system):
        a = FrequencyAnalysis(omega_min=1e6, omega_max=1e10,
                              n_points=4).sweep_entry(rc_grid_system, 0, 0)
        b = FrequencyAnalysis(omega_min=1e5, omega_max=1e9,
                              n_points=4).sweep_entry(rc_grid_system, 0, 0)
        with pytest.raises(SimulationError, match="frequency grids"):
            a.relative_error_to(b)

    def test_relative_error_floor_handles_zero_reference(self):
        from repro.analysis import FrequencySweepResult
        omegas = np.array([1.0, 10.0])
        zero_ref = FrequencySweepResult(omegas=omegas,
                                        values=np.zeros(2, dtype=complex),
                                        output=0, port=0)
        other = FrequencySweepResult(omegas=omegas,
                                     values=np.ones(2, dtype=complex),
                                     output=0, port=0)
        err = other.relative_error_to(zero_ref, floor=1e-6)
        assert np.all(np.isfinite(err))
        assert np.allclose(err, 1e6)

    def test_full_matrix_relative_error_is_worst_entry(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=3)
        full = fa.sweep(rc_grid_system)
        perturbed = fa.sweep(rc_grid_system)
        perturbed.values = perturbed.values.copy()
        perturbed.values[1, 0, 0] *= 1.5
        err = perturbed.relative_error_to(full)
        assert err.shape == (3,)
        assert err[1] == pytest.approx(0.5)

    def test_entry_extraction_errors(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=3)
        single = fa.sweep_entry(rc_grid_system, 0, 0)
        with pytest.raises(SimulationError):
            single.entry(1, 1)


class TestCompare:
    def test_compare_reports_all_candidates(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e6, omega_max=1e10, n_points=4)
        bdsm_rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        prima_rom, _, _ = prima_reduce(rc_grid_system, 3)
        report = fa.compare(rc_grid_system,
                            {"BDSM": bdsm_rom, "PRIMA": prima_rom},
                            output=0, port=1)
        assert set(report) == {"reference", "BDSM", "PRIMA"}
        assert "relative_error" in report["BDSM"]
        # moment-matched ROMs reproduce the low-frequency response closely
        assert report["BDSM"]["relative_error"][0] < 1e-6
        assert report["PRIMA"]["relative_error"][0] < 1e-6

    def test_rom_sweeps_track_full_model(self, rc_grid_system):
        fa = FrequencyAnalysis(omega_min=1e5, omega_max=1e9, n_points=5)
        rom, _, _ = bdsm_reduce(rc_grid_system, 4)
        full = fa.sweep_entry(rc_grid_system, 0, 0)
        reduced = fa.sweep_entry(rom, 0, 0)
        err = reduced.relative_error_to(full)
        assert np.max(err) < 1e-6
