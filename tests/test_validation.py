"""Unit tests for repro.validation (error metrics, moment checks, structure)."""

import numpy as np
import pytest

from repro.core import bdsm_reduce
from repro.exceptions import ValidationError
from repro.mor import eks_reduce, prima_reduce
from repro.validation import (
    count_matched_moments,
    max_relative_error,
    relative_error_curve,
    rom_structure_report,
    verify_moment_matching,
)


class TestErrorMetrics:
    def test_identical_systems_have_zero_error(self, rc_grid_system):
        omegas = np.logspace(6, 9, 4)
        curve = relative_error_curve(rc_grid_system, rc_grid_system, omegas)
        assert np.allclose(curve, 0.0)
        assert max_relative_error(rc_grid_system, rc_grid_system, omegas) == 0.0

    def test_curve_length_matches_grid(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        omegas = np.logspace(6, 9, 7)
        curve = relative_error_curve(rc_grid_system, rom, omegas)
        assert curve.shape == (7,)

    def test_empty_grid_rejected(self, rc_grid_system):
        with pytest.raises(ValidationError):
            relative_error_curve(rc_grid_system, rc_grid_system, np.array([]))


class TestMomentCheck:
    def test_moment_matching_of_prima(self, rc_grid_system):
        l = 3
        rom, _, _ = prima_reduce(rc_grid_system, l)
        result = verify_moment_matching(rc_grid_system, rom, l)
        assert result.all_matched
        assert result.n_matched == l

    def test_eks_matches_no_true_moments(self, rc_grid_system):
        rom, _, _ = eks_reduce(rc_grid_system, 4)
        assert count_matched_moments(rc_grid_system, rom, 3) == 0

    def test_prefix_counting(self):
        from repro.validation.moment_check import MomentCheckResult
        result = MomentCheckResult(relative_errors=[1e-9, 1e-8, 1.0, 1e-9],
                                   tolerance=1e-6)
        assert result.n_matched == 2
        assert not result.all_matched

    def test_invalid_moment_count(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        with pytest.raises(ValidationError):
            verify_moment_matching(rc_grid_system, rom, 0)


class TestStructureReport:
    def test_bdsm_report_has_blocks(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        report = rom_structure_report(rom)
        assert report.method == "BDSM"
        assert report.block_sizes == [3] * rc_grid_system.n_ports
        assert report.densities["G"] <= 1 / rc_grid_system.n_ports + 1e-12

    def test_prima_report_is_dense(self, rc_grid_system):
        rom, _, _ = prima_reduce(rc_grid_system, 3)
        report = rom_structure_report(rom)
        assert report.block_sizes == []
        assert report.densities["G"] > 0.9

    def test_density_percent_and_rows(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        report = rom_structure_report(rom)
        assert report.density_percent("G") == pytest.approx(
            100.0 * report.densities["G"])
        row = report.as_row()
        assert "G density %" in row
        with pytest.raises(ValidationError):
            report.density_percent("Z")
