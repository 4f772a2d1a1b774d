"""Unit tests for repro.core.bdsm (Algorithm 1 of the paper)."""

import numpy as np
import pytest

from repro.analysis.engine import SweepEngine
from repro.core import BDSMOptions, bdsm_reduce
from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import (
    ReductionError,
    ResourceBudgetExceeded,
    SimulationError,
)
from repro.mor import ResourceBudget, prima_reduce
from repro.validation import (
    count_matched_moments,
    max_relative_error,
    relative_error_curve,
)


class TestBdsmBasics:
    def test_returns_block_diagonal_rom(self, rc_grid_system):
        rom, stats, elapsed = bdsm_reduce(rc_grid_system, 3)
        assert isinstance(rom, BlockDiagonalROM)
        assert rom.n_blocks == rc_grid_system.n_ports
        assert elapsed >= 0.0
        assert stats.inner_products > 0

    def test_rom_size_is_m_times_l(self, rc_grid_system):
        l = 4
        rom, _, _ = bdsm_reduce(rc_grid_system, l)
        assert rom.size == rc_grid_system.n_ports * l
        assert all(size == l for size in rom.layout.sizes)

    def test_works_on_rlc_grid(self, rlc_grid_system):
        rom, _, _ = bdsm_reduce(rlc_grid_system, 3)
        omegas = np.logspace(5, 9, 5)
        assert max_relative_error(rlc_grid_system, rom, omegas) < 1e-6

    def test_invalid_moments(self, rc_grid_system):
        with pytest.raises(ReductionError):
            bdsm_reduce(rc_grid_system, 0)

    def test_invalid_chunk_size(self, rc_grid_system):
        with pytest.raises(ReductionError):
            bdsm_reduce(rc_grid_system, 2,
                        options=BDSMOptions(port_chunk_size=0))

    def test_reduction_avoids_matrix_producing_todense(self, rc_grid_system,
                                                       monkeypatch):
        """Block assembly uses ``.toarray()`` (ndarray), never the
        deprecated ``np.matrix``-producing ``.todense()``."""
        import scipy.sparse as sp

        def banned(self, *args, **kwargs):
            raise AssertionError(".todense() called in a hot path")

        monkeypatch.setattr(sp.spmatrix, "todense", banned)
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        for block in rom.blocks:
            assert type(block.b) is np.ndarray
            assert type(block.L) is np.ndarray


class TestBdsmAccuracy:
    def test_matches_l_moments_per_column(self, rc_grid_system):
        l = 4
        rom, _, _ = bdsm_reduce(rc_grid_system, l)
        assert count_matched_moments(rc_grid_system, rom, l) >= l

    def test_accuracy_comparable_to_prima(self, rc_grid_system):
        # Paper claim: similar accuracy to PRIMA for the same l.
        l = 4
        omegas = np.logspace(5, 9, 6)
        bdsm_rom, _, _ = bdsm_reduce(rc_grid_system, l)
        prima_rom, _, _ = prima_reduce(rc_grid_system, l)
        err_bdsm = relative_error_curve(rc_grid_system, bdsm_rom, omegas,
                                        output=0, port=1)
        err_prima = relative_error_curve(rc_grid_system, prima_rom, omegas,
                                         output=0, port=1)
        assert np.max(err_bdsm) < 1e-6
        assert np.max(err_prima) < 1e-6

    def test_nonzero_expansion_point(self, rc_grid_system):
        s0 = 1e9
        rom, _, _ = bdsm_reduce(rc_grid_system, 3, s0=s0)
        assert count_matched_moments(rc_grid_system, rom, 3, s0=s0) >= 3

    def test_complex_expansion_point_gives_real_blocks(self, rc_grid_system):
        # The clustered driver splits complex candidates into real and
        # imaginary parts, so each block is real with at most 2 l columns.
        s0, order = 1j * 1e9, 2
        rom, _, _ = bdsm_reduce(rc_grid_system, order, s0=s0)
        for block in rom.blocks:
            assert np.isrealobj(block.C) and np.isrealobj(block.G)
            assert np.isrealobj(block.b) and np.isrealobj(block.L)
            assert block.order <= 2 * order
        assert count_matched_moments(rc_grid_system, rom, order,
                                     s0=s0) >= order

    def test_column_by_column_moment_matching(self, rc_grid_system):
        # Each column of H_r matches the corresponding column of H at s0.
        rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        H0_full = rc_grid_system.transfer_function(0.0)
        H0_rom = rom.transfer_function(0.0)
        for col in range(rc_grid_system.n_ports):
            denom = np.linalg.norm(H0_full[:, col])
            err = np.linalg.norm(H0_rom[:, col] - H0_full[:, col]) / denom
            assert err < 1e-8


class TestBdsmCostAndStructure:
    def test_fewer_inner_products_than_prima(self, rc_grid_system):
        l = 4
        _, bdsm_stats, _ = bdsm_reduce(rc_grid_system, l)
        _, prima_stats, _ = prima_reduce(rc_grid_system, l)
        assert bdsm_stats.inner_products < prima_stats.inner_products
        m = rc_grid_system.n_ports
        # Predicted ratio ~ (m*l - 1) / (l - 1); allow slack for
        # re-orthogonalisation bookkeeping differences.
        predicted = (m * l - 1) / (l - 1)
        measured = prima_stats.inner_products / bdsm_stats.inner_products
        assert measured > predicted / 3

    def test_rom_sparser_than_prima(self, rc_grid_system):
        l = 3
        bdsm_rom, _, _ = bdsm_reduce(rc_grid_system, l)
        prima_rom, _, _ = prima_reduce(rc_grid_system, l)
        assert bdsm_rom.nnz < prima_rom.nnz
        assert bdsm_rom.density()["G"] <= 1 / rc_grid_system.n_ports + 1e-12

    def test_budget_guard(self, rc_grid_system):
        budget = ResourceBudget(max_dense_bytes=128)
        with pytest.raises(ResourceBudgetExceeded):
            bdsm_reduce(rc_grid_system, 4, budget=budget)

    def test_bdsm_fits_budget_that_breaks_prima(self, rc_grid_system):
        # With chunked ports BDSM's working set is tiny, so a budget sized
        # between the two reproduces Table II's "break down" asymmetry.
        n = rc_grid_system.size
        # exactly the BDSM chunk working set (n x chunk*l doubles): BDSM fits,
        # PRIMA's n x (m*l) basis does not.
        budget = ResourceBudget(max_dense_bytes=n * 4 * 4 * 8)
        rom, _, _ = bdsm_reduce(rc_grid_system, 4,
                                options=BDSMOptions(port_chunk_size=4),
                                budget=budget)
        assert rom.size == rc_grid_system.n_ports * 4
        with pytest.raises(ResourceBudgetExceeded):
            prima_reduce(rc_grid_system, 4, budget=budget)

    def test_budget_counts_both_parts_of_a_complex_shift(self,
                                                         rc_grid_system):
        # A complex s0 yields up to 2l real columns per port: a budget
        # between the l- and 2l-column working sets admits only a real s0.
        n, m, l = rc_grid_system.size, rc_grid_system.n_ports, 3
        budget = ResourceBudget(max_dense_bytes=n * m * l * 3 // 2 * 8)
        bdsm_reduce(rc_grid_system, l, s0=1e9, budget=budget)
        with pytest.raises(ResourceBudgetExceeded):
            bdsm_reduce(rc_grid_system, l, s0=1j * 1e9, budget=budget)


class TestBdsmChunking:
    def test_chunked_equals_unchunked(self, rc_grid_system):
        full_rom, _, _ = bdsm_reduce(rc_grid_system, 3)
        chunked_rom, _, _ = bdsm_reduce(
            rc_grid_system, 3, options=BDSMOptions(port_chunk_size=2))
        s = 1j * 1e8
        assert np.allclose(full_rom.transfer_function(s),
                           chunked_rom.transfer_function(s))
        for a, b in zip(full_rom.blocks, chunked_rom.blocks):
            assert np.allclose(a.C, b.C)
            assert np.allclose(a.G, b.G)

    def test_chunk_size_one(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2,
                                options=BDSMOptions(port_chunk_size=1))
        assert rom.n_blocks == rc_grid_system.n_ports

    def test_parallel_workers_give_identical_rom(self, rc_grid_system):
        sequential, seq_stats, _ = bdsm_reduce(rc_grid_system, 3)
        with SweepEngine(jobs=3) as engine:
            parallel, par_stats, _ = bdsm_reduce(
                rc_grid_system, 3,
                options=BDSMOptions(port_chunk_size=2, engine=engine))
        assert parallel.n_blocks == sequential.n_blocks
        assert par_stats.inner_products == seq_stats.inner_products
        s = 1j * 1e8
        assert np.allclose(parallel.transfer_function(s),
                           sequential.transfer_function(s))
        for a, b in zip(sequential.blocks, parallel.blocks):
            assert a.index == b.index
            assert np.allclose(a.C, b.C)
            assert np.allclose(a.b, b.b)

    def test_invalid_worker_count(self, rc_grid_system):
        with pytest.raises(SimulationError, match="jobs"):
            bdsm_reduce(rc_grid_system, 2,
                        options=BDSMOptions(engine=SweepEngine(jobs=-1)))

    def test_keep_projection_stores_bases(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2,
                                options=BDSMOptions(keep_projection=True))
        for block in rom.blocks:
            assert block.basis is not None
            assert block.basis.shape == (rc_grid_system.size, 2)
            # basis columns are orthonormal
            assert np.allclose(block.basis.T @ block.basis, np.eye(2),
                               atol=1e-10)
