"""Unit tests for multipoint PRIMA (repro.mor.prima.multipoint_prima_reduce,
of which prima_reduce is the one-point case)."""

import numpy as np
import pytest

from repro.exceptions import ReductionError
from repro.linalg import OrthoStats
from repro.mor import multipoint_prima_reduce, prima_reduce, prima_store_options
from repro.store import ModelStore
from repro.validation import count_matched_moments, max_relative_error


class TestMultipointPrima:
    def test_single_point_equivalent_to_prima(self, rc_grid_system):
        omegas = np.logspace(5, 9, 5)
        mp_rom, _, _ = multipoint_prima_reduce(rc_grid_system, 3, [0.0])
        prima_rom, _, _ = prima_reduce(rc_grid_system, 3)
        err_mp = max_relative_error(rc_grid_system, mp_rom, omegas)
        err_prima = max_relative_error(rc_grid_system, prima_rom, omegas)
        assert err_mp < 1e-6
        assert err_prima < 1e-6

    def test_matches_moments_at_each_point(self, rc_grid_system):
        points = [0.0, 1e9]
        rom, _, _ = multipoint_prima_reduce(rc_grid_system, 2, points)
        for point in points:
            assert count_matched_moments(rc_grid_system, rom, 2,
                                         s0=point) >= 2

    def test_complex_points_give_real_rom(self, rc_grid_system):
        rom, _, _ = multipoint_prima_reduce(rc_grid_system, 2,
                                            [0.0, 1j * 1e8])
        assert np.isrealobj(rom.C)
        assert np.isrealobj(rom.G)

    def test_wideband_accuracy_improves(self, rc_grid_system):
        # Adding a high-frequency expansion point must not hurt, and should
        # improve the worst-case error high in the band.
        omegas = np.logspace(8, 11, 6)
        single, _, _ = multipoint_prima_reduce(rc_grid_system, 2, [0.0])
        double, _, _ = multipoint_prima_reduce(rc_grid_system, 2,
                                               [0.0, 1j * 1e10])
        err_single = max_relative_error(rc_grid_system, single, omegas)
        err_double = max_relative_error(rc_grid_system, double, omegas)
        # "not worse", with a floor because both can sit at machine precision
        assert err_double <= max(err_single * 1.5, 1e-10)

    def test_rom_size_bounded_by_points_times_ml(self, rc_grid_system):
        rom, _, _ = multipoint_prima_reduce(rc_grid_system, 2, [0.0, 1e9])
        assert rom.size <= 2 * 2 * rc_grid_system.n_ports

    def test_expansion_points_recorded(self, rc_grid_system):
        points = [0.0, 1e8]
        rom, _, _ = multipoint_prima_reduce(rc_grid_system, 2, points)
        assert rom.expansion_points == points

    def test_invalid_arguments(self, rc_grid_system):
        with pytest.raises(ReductionError):
            multipoint_prima_reduce(rc_grid_system, 2, [])
        with pytest.raises(ReductionError):
            multipoint_prima_reduce(rc_grid_system, 0, [0.0])


class TestMultipointPrimaStore:
    def test_multipoint_round_trip(self, rc_grid_system, tmp_path):
        points = [0.0, 1e8]
        store = ModelStore(tmp_path)
        fresh, _, _ = multipoint_prima_reduce(rc_grid_system, 2, points,
                                              store=store)
        loaded, stats, _ = multipoint_prima_reduce(rc_grid_system, 2,
                                                   points, store=store)
        assert store.stats().hits == 1
        assert stats == OrthoStats()
        assert loaded.s0 == fresh.s0 == points[0]
        assert loaded.expansion_points == fresh.expansion_points == points
        for name in ("C", "G", "B", "L"):
            assert np.array_equal(getattr(fresh, name), getattr(loaded, name))

    def test_one_point_store_options_pinned(self):
        assert prima_store_options(3) == {
            "n_moments": 3, "s0": 0j, "deflation_tol": 1e-12,
            "keep_projection": False}
        assert prima_store_options(2, [1e3], keep_projection=True,
                                   recycle=True) == {
            "n_moments": 2, "s0": 1e3 + 0j, "deflation_tol": 1e-12,
            "keep_projection": True}

    def test_multipoint_store_options(self):
        assert prima_store_options(2, [0.0, 1e8]) == {
            "n_moments": 2, "expansion_points": [0j, 1e8 + 0j],
            "deflation_tol": 1e-12, "keep_projection": False}
