"""Unit tests for multi-point BDSM (repro.core.bdsm.multipoint_bdsm_reduce,
of which bdsm_reduce is the one-point case)."""

import numpy as np
import pytest

from repro.analysis.engine import SweepEngine
from repro.core import (
    BDSMOptions,
    bdsm_reduce,
    bdsm_store_options,
    multipoint_bdsm_reduce,
)
from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import ReductionError, SimulationError
from repro.linalg import OrthoStats
from repro.store import ModelStore
from repro.validation import count_matched_moments, max_relative_error


class TestMultipointBdsm:
    def test_single_point_matches_bdsm(self, rc_grid_system):
        single, _, _ = bdsm_reduce(rc_grid_system, 3)
        multi, _, _ = multipoint_bdsm_reduce(rc_grid_system, 3, [0.0])
        s = 1j * 1e8
        assert np.allclose(single.transfer_function(s),
                           multi.transfer_function(s), rtol=1e-8)

    def test_block_structure_preserved(self, rc_grid_system):
        rom, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2, [0.0, 1e9])
        assert isinstance(rom, BlockDiagonalROM)
        assert rom.n_blocks == rc_grid_system.n_ports
        # each block has at most 2 * 2 columns (two points, two moments)
        assert all(size <= 4 for size in rom.layout.sizes)

    def test_matches_moments_at_each_real_point(self, rc_grid_system):
        points = [0.0, 1e9]
        rom, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2, points)
        for point in points:
            assert count_matched_moments(rc_grid_system, rom, 2,
                                         s0=point) >= 2

    def test_complex_point_gives_real_blocks(self, rc_grid_system):
        rom, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2,
                                           [0.0, 1j * 1e9])
        for block in rom.blocks:
            assert np.isrealobj(block.C)
            assert np.isrealobj(block.G)

    def test_wideband_accuracy_not_worse(self, rc_grid_system):
        omegas = np.logspace(8, 11, 5)
        single, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2, [0.0])
        double, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2,
                                              [0.0, 1j * 1e10])
        err_single = max_relative_error(rc_grid_system, single, omegas)
        err_double = max_relative_error(rc_grid_system, double, omegas)
        # "not worse", with a floor because both can sit at machine precision
        assert err_double <= max(err_single * 1.5, 1e-10)

    def test_chunking_equivalence(self, rc_grid_system):
        a, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2, [0.0, 1e9])
        b, _, _ = multipoint_bdsm_reduce(
            rc_grid_system, 2, [0.0, 1e9],
            options=BDSMOptions(port_chunk_size=3))
        s = 1j * 1e7
        assert np.allclose(a.transfer_function(s), b.transfer_function(s))

    def test_keep_projection(self, rc_grid_system):
        rom, _, _ = multipoint_bdsm_reduce(
            rc_grid_system, 2, [0.0],
            options=BDSMOptions(keep_projection=True))
        assert all(block.basis is not None for block in rom.blocks)

    def test_invalid_arguments(self, rc_grid_system):
        with pytest.raises(ReductionError):
            multipoint_bdsm_reduce(rc_grid_system, 2, [])
        with pytest.raises(ReductionError):
            multipoint_bdsm_reduce(rc_grid_system, 0, [0.0])
        with pytest.raises(ReductionError):
            multipoint_bdsm_reduce(rc_grid_system, 2, [0.0],
                                   options=BDSMOptions(port_chunk_size=-1))

    @pytest.mark.parametrize("jobs", [-1])
    def test_worker_counts_rejected(self, rc_grid_system, jobs):
        with pytest.raises(SimulationError, match="jobs"):
            multipoint_bdsm_reduce(
                rc_grid_system, 2, [0.0],
                options=BDSMOptions(engine=SweepEngine(jobs=jobs)))

    @pytest.mark.parametrize("pool", ["engine", "shared"])
    def test_fan_out_matches_serial(self, rc_grid_system, pool):
        # Chunks own their workspaces and share only the per-point
        # operators, so fanning them out changes nothing, recycling and
        # solve tallies included.
        points = [0.0, 5e8, 2e9]

        def reduce(**fan_out):
            return multipoint_bdsm_reduce(
                rc_grid_system, 2, points, recycle=True,
                options=BDSMOptions(port_chunk_size=3, **fan_out))

        serial, serial_stats, _ = reduce(engine=SweepEngine(jobs=1))
        if pool == "engine":
            with SweepEngine(jobs=2) as engine:
                pooled, pooled_stats, _ = reduce(engine=engine)
        else:
            pooled, pooled_stats, _ = reduce()
        for a, b in zip(serial.blocks, pooled.blocks):
            for name in ("C", "G", "b", "L"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert pooled_stats == serial_stats
        assert pooled.recycle_stats == serial.recycle_stats
        assert pooled.solve_counts == serial.solve_counts


class TestMultipointBdsmStore:
    def test_multipoint_round_trip(self, rc_grid_system, tmp_path):
        points = [0.0, 1e9]
        store = ModelStore(tmp_path)
        fresh, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2, points,
                                             store=store)
        loaded, stats, _ = multipoint_bdsm_reduce(rc_grid_system, 2, points,
                                                  store=store)
        assert store.stats().hits == 1
        assert stats == OrthoStats()
        assert loaded.s0 == fresh.s0 == points
        for a, b in zip(fresh.blocks, loaded.blocks):
            for name in ("C", "G", "b", "L"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_multipoint_key_differs_from_single_point(self, rc_grid_system,
                                                      tmp_path):
        store = ModelStore(tmp_path)
        bdsm_reduce(rc_grid_system, 2, store=store)
        multipoint_bdsm_reduce(rc_grid_system, 2, [0.0, 1e9], store=store)
        multipoint_bdsm_reduce(rc_grid_system, 2, [0.0, 1e9], recycle=True,
                               store=store)
        assert store.stats().hits == 0
        assert len(store.entries()) == 3

    def test_one_point_store_options_pinned(self):
        assert bdsm_store_options(3) == {
            "n_moments": 3, "s0": 0j, "deflation_tol": 1e-12,
            "keep_projection": False}
        assert bdsm_store_options(
            2, [1e3], options=BDSMOptions(keep_projection=True),
            recycle=True) == {
            "n_moments": 2, "s0": 1e3 + 0j, "deflation_tol": 1e-12,
            "keep_projection": True}

    def test_multipoint_store_options(self):
        assert bdsm_store_options(2, [0.0, 1e9], recycle=True,
                                  recycle_tol=1e-6) == {
            "n_moments": 2, "expansion_points": [0j, 1e9 + 0j],
            "recycle_tol": 1e-6, "deflation_tol": 1e-12,
            "keep_projection": False}
