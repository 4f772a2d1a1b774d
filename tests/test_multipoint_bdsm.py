"""Unit tests for repro.core.multipoint (multi-point BDSM)."""

import numpy as np
import pytest

from repro.analysis.engine import SweepEngine
from repro.core import BDSMOptions, bdsm_reduce, multipoint_bdsm_reduce
from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import ReductionError
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

    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_worker_counts_rejected(self, rc_grid_system, n_workers):
        # No chunk fan-out here: a pool request must fail, not be ignored.
        with pytest.raises(ReductionError, match="n_workers"):
            multipoint_bdsm_reduce(rc_grid_system, 2, [0.0],
                                   options=BDSMOptions(n_workers=n_workers))

    def test_engine_rejected(self, rc_grid_system):
        with SweepEngine(jobs=2) as engine, \
                pytest.raises(ReductionError, match="engine"):
            multipoint_bdsm_reduce(rc_grid_system, 2, [0.0],
                                   options=BDSMOptions(engine=engine))
