"""Unit tests for repro.core.structured_rom (BlockDiagonalROM)."""

import numpy as np
import pytest

from repro.core import BDSMOptions, bdsm_reduce, multipoint_bdsm_reduce
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import PartitionError, ReductionError
from repro.mor import prima_reduce
from repro.partition import multilevel_reduce


def _manual_block(index, l=2, p=3, seed=0):
    rng = np.random.default_rng(seed + index)
    C = np.diag(rng.uniform(1.0, 2.0, size=l))
    G = -np.diag(rng.uniform(1.0, 2.0, size=l))
    b = rng.normal(size=l)
    L = rng.normal(size=(p, l))
    return ROMBlock(index=index, C=C, G=G, b=b, L=L)


class TestROMBlock:
    def test_transfer_column_matches_manual_solve(self):
        block = _manual_block(0)
        s = 1j * 2.0
        expected = block.L @ np.linalg.solve(s * block.C - block.G,
                                             block.b.astype(complex))
        rom = BlockDiagonalROM([block], n_outputs=3)
        assert np.allclose(rom.transfer_function(s)[:, 0], expected.ravel())

    def test_shape_validation(self):
        with pytest.raises(ReductionError):
            ROMBlock(index=0, C=np.eye(2), G=np.eye(3), b=np.ones(2),
                     L=np.ones((1, 2)))
        with pytest.raises(ReductionError):
            ROMBlock(index=0, C=np.eye(2), G=np.eye(2), b=np.ones(3),
                     L=np.ones((1, 2)))
        with pytest.raises(ReductionError):
            ROMBlock(index=0, C=np.eye(2), G=np.eye(2), b=np.ones(2),
                     L=np.ones((1, 3)))


class TestBlockDiagonalROM:
    @pytest.fixture()
    def manual_rom(self):
        blocks = [_manual_block(i) for i in range(4)]
        return BlockDiagonalROM(blocks, n_outputs=3, n_moments=2,
                                original_size=50, original_ports=4)

    def test_dimensions(self, manual_rom):
        assert manual_rom.size == 8
        assert manual_rom.n_ports == 4
        assert manual_rom.n_blocks == 4
        assert manual_rom.n_outputs == 3

    def test_global_matrices_are_block_diagonal(self, manual_rom):
        C = manual_rom.C.toarray()
        # off-diagonal blocks are exactly zero
        assert np.allclose(C[0:2, 2:], 0.0)
        assert np.allclose(C[2:4, 0:2], 0.0)
        assert manual_rom.C.nnz <= 4 * 4

    def test_nnz_matches_paper_formula(self, manual_rom):
        m, l = 4, 2
        # 2 m l^2 (C_r and G_r) + m l (B_r) when blocks are dense
        assert manual_rom.nnz <= 2 * m * l * l + m * l

    def test_b_matrix_block_column_structure(self, manual_rom):
        B = manual_rom.B.toarray()
        assert B.shape == (8, 4)
        for i in range(4):
            col = B[:, i]
            assert np.count_nonzero(col[2 * i:2 * i + 2]) > 0
            outside = np.delete(col, [2 * i, 2 * i + 1])
            assert np.allclose(outside, 0.0)

    def test_transfer_function_equals_densified(self, manual_rom):
        s = 1j * 3.0
        dense = manual_rom.to_reduced_system()
        assert np.allclose(manual_rom.transfer_function(s),
                           dense.transfer_function(s))

    def test_transfer_entry_matches_column(self, manual_rom):
        s = 1j * 5.0
        H = manual_rom.transfer_function(s)
        assert manual_rom.transfer_entry(s, 1, 2) == pytest.approx(H[1, 2])

    def test_transfer_entry_out_of_range(self, manual_rom):
        with pytest.raises(ReductionError):
            manual_rom.transfer_entry(1j, 0, 10)

    def test_density_reflects_block_structure(self, manual_rom):
        density = manual_rom.density()
        assert density["C"] <= 1 / 4 + 1e-12
        assert density["B"] <= 1 / 4 + 1e-12

    def test_output_count_mismatch_rejected(self):
        blocks = [_manual_block(0)]
        with pytest.raises(ReductionError):
            BlockDiagonalROM(blocks, n_outputs=5)

    def test_empty_blocks_rejected(self):
        with pytest.raises(ReductionError):
            BlockDiagonalROM([], n_outputs=1)

    def test_summary_row(self, manual_rom):
        summary = manual_rom.summary(mor_seconds=0.5)
        row = summary.as_row()
        assert row["method"] == "BDSM"
        assert row["ROM size"] == 8
        assert row["reusable"] == "yes"


class TestToReducedSystemCache:
    def test_repeated_queries_return_cached_conversion(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        first = rom.to_reduced_system()
        second = rom.to_reduced_system()
        assert second is first  # densified once, reused afterwards

    def test_cached_conversion_matches_structure(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2)
        dense = rom.to_reduced_system()
        assert dense.size == rom.size
        assert np.allclose(dense.C, rom.C.toarray())
        assert np.allclose(dense.transfer_function(1j * 1e6),
                           rom.transfer_function(1j * 1e6))


def _roms_with_bases(system):
    """One ROM of every border-free type, each keeping its bases."""
    keep = BDSMOptions(keep_projection=True)
    return {
        "bdsm": bdsm_reduce(system, 2, options=keep)[0],
        "multipoint-bdsm": multipoint_bdsm_reduce(
            system, 2, [0.0, 1e9], options=keep)[0],
        "prima": prima_reduce(system, 2, keep_projection=True)[0],
    }


@pytest.fixture(scope="module", params=["rc-grid", "ckt1-smoke"])
def lift_system(request):
    if request.param == "rc-grid":
        return request.getfixturevalue("rc_grid_system")
    return request.getfixturevalue("smoke_benchmark")


class TestStateReconstruction:
    """``StructuredROM.reconstruct_state``: one lift for every ROM."""

    def test_requires_kept_bases(self, rc_grid_system):
        for rom in (bdsm_reduce(rc_grid_system, 2)[0],
                    prima_reduce(rc_grid_system, 2)[0]):
            with pytest.raises(ReductionError, match="keep_projection"):
                rom.reconstruct_state(np.zeros(rom.size))

    def test_reconstruction_shape(self, rc_grid_system):
        rom, _, _ = bdsm_reduce(rc_grid_system, 2,
                                options=BDSMOptions(keep_projection=True))
        x = rom.reconstruct_state(np.ones(rom.size))
        assert x.shape == (rc_grid_system.size,)

    def test_lift_is_concatenated_basis_times_state(self, lift_system):
        rng = np.random.default_rng(3)
        for name, rom in _roms_with_bases(lift_system).items():
            V = np.hstack([block.basis for block in rom.blocks])
            assert V.shape == (lift_system.size, rom.size), name
            z = rng.normal(size=rom.size)
            want = V @ z
            got = rom.reconstruct_state(z)
            assert got.shape == want.shape, name
            assert np.linalg.norm(got - want) \
                <= 1e-12 * np.linalg.norm(want), name

    def test_wrong_state_length(self, rc_grid_system):
        for name, rom in _roms_with_bases(rc_grid_system).items():
            for z in (np.ones(rom.size - 1), np.ones(rom.size + 1),
                      np.ones((rom.size, 1))):
                with pytest.raises(ReductionError, match="reduced state"):
                    rom.reconstruct_state(z)

    def test_bordered_rom_raises_partition_error(self, smoke_benchmark):
        rom, _, _ = multilevel_reduce(
            smoke_benchmark, 3, levels=2, n_parts=3, min_states=16,
            keep_projection=True)
        assert rom.partition_info["depth"] == 2 and rom.interface_order > 0
        with pytest.raises(PartitionError, match="border"):
            rom.reconstruct_state(np.zeros(rom.size))


class TestComplexOutputBlocks:
    def test_rom_block_preserves_complex_L(self):
        import numpy as np

        from repro.core.structured_rom import ROMBlock

        block = ROMBlock(index=0, C=np.eye(2), G=-np.eye(2),
                         b=np.ones(2), L=np.array([[1.0 + 2.0j, 0.5]]))
        assert np.iscomplexobj(block.L)
        assert block.L[0, 0] == 1.0 + 2.0j
        # Real inputs (including ints) still become float arrays.
        real = ROMBlock(index=1, C=np.eye(2, dtype=int),
                        G=-np.eye(2, dtype=int), b=np.ones(2, dtype=int),
                        L=np.ones((1, 2), dtype=int))
        for arr in (real.C, real.G, real.b, real.L):
            assert arr.dtype == float
