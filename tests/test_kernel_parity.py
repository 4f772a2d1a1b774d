"""Production Krylov drivers vs. a column-wise MGS oracle.

The reducers always run the blocked BLAS-3 kernel.  The column-wise
modified-Gram-Schmidt loop the paper's operation counts are phrased in
survives only as the test-local oracle below, and the production path must
match it: same deflation decisions, same spans (hence ROM poles and
transfer samples equal within roundoff — the bases differ only by an
orthogonal change of reduced coordinates), and the same
:class:`OrthoStats` counters so the paper's Fig. 2 cost comparison reads
off the production counters.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from repro.analysis.engine import SweepEngine
from repro.core.bdsm import BDSMOptions, bdsm_reduce
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import DeflationError
from repro.linalg.krylov import (
    ShiftedOperator,
    block_krylov_basis,
    column_clustered_krylov_bases,
)
from repro.linalg.orthogonalization import (
    OrthoStats,
    modified_gram_schmidt,
    orthonormalize_against,
)
from repro.linalg.sparse_utils import to_csr
from repro.mor.prima import congruence_project, prima_reduce

N_MOMENTS = 3


def _columnwise_block_krylov(operator, B, order, *,
                             require_full_rank=False):
    """Oracle for :func:`block_krylov_basis`: MGS over each step block."""
    stats = OrthoStats()
    basis = np.empty((operator.n, 0))
    current = np.asarray(operator.starting_block(B))
    for step in range(order):
        new_cols, step_stats = modified_gram_schmidt(
            current, initial_basis=basis,
            require_full_rank=require_full_rank)
        stats.merge(step_stats)
        basis = np.hstack([basis, new_cols])
        if step < order - 1:
            current = np.asarray(operator.apply(current))
    return basis, stats, stats.deflations > 0


def _columnwise_clustered(operator, B, order):
    """Oracle for :func:`column_clustered_krylov_bases`: one MGS step per
    candidate against its own group."""
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    stats = OrthoStats()
    bases = [np.empty((operator.n, 0)) for _ in range(B.shape[1])]
    current = np.asarray(operator.starting_block(B))
    for step in range(order):
        for i, group in enumerate(bases):
            q = orthonormalize_against(
                current[:, i], group if group.size else None, stats=stats)
            if q is not None:
                bases[i] = np.column_stack([group, q])
        if step < order - 1:
            current = np.asarray(operator.apply(current))
    return bases, stats, stats.deflations > 0


def _columnwise_bdsm(system, order) -> BlockDiagonalROM:
    operator = ShiftedOperator(system.C, system.G, s0=0.0)
    bases, _, _ = _columnwise_clustered(operator, system.B, order)
    C, G, L = to_csr(system.C), to_csr(system.G), to_csr(system.L)
    B = to_csr(system.B).toarray()
    blocks = [ROMBlock(index=i, C=V.T @ (C @ V), G=V.T @ (G @ V),
                       b=V.T @ B[:, i], L=np.asarray(L @ V))
              for i, V in enumerate(bases)]
    return BlockDiagonalROM(blocks, n_outputs=L.shape[0], s0=0.0,
                            n_moments=order, original_size=C.shape[0],
                            original_ports=B.shape[1])


def _columnwise_prima(system, order):
    operator = ShiftedOperator(system.C, system.G, s0=0.0)
    basis, _, _ = _columnwise_block_krylov(operator, system.B, order)
    return congruence_project(system, basis, method="PRIMA", s0=0.0,
                              n_moments=order)


def _stats_tuple(stats):
    return (stats.inner_products, stats.axpy_updates,
            stats.normalizations, stats.deflations)


def _sorted_poles(rom) -> np.ndarray:
    """Block-pencil spectrum, real/imag parts sorted independently
    (conjugate pairs may swap order under roundoff)."""
    poles = []
    for block in rom.blocks:
        vals = scipy.linalg.eig(block.G, block.C, right=False)
        poles.extend(np.asarray(vals))
    poles = np.asarray(poles, dtype=complex)
    return np.sort(poles.real) + 1j * np.sort(poles.imag)


def _same_span(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    if a.shape != b.shape:
        return False
    return (np.allclose(a @ (a.conj().T @ b), b, atol=atol)
            and np.allclose(b @ (b.conj().T @ a), a, atol=atol))


GRID_FIXTURES = ["rc_grid_system", "rlc_grid_system"]


@pytest.mark.parametrize("grid", GRID_FIXTURES)
class TestKrylovKernelParity:
    def test_block_krylov_basis(self, grid, request):
        system = request.getfixturevalue(grid)
        blocked = block_krylov_basis(
            ShiftedOperator(system.C, system.G, s0=0.0), system.B, N_MOMENTS)
        basis_c, stats_c, deflated_c = _columnwise_block_krylov(
            ShiftedOperator(system.C, system.G, s0=0.0), system.B, N_MOMENTS)
        assert blocked.size == basis_c.shape[1]
        assert blocked.deflated == deflated_c
        assert _stats_tuple(blocked.stats) == _stats_tuple(stats_c)
        assert _same_span(blocked.basis, basis_c)

    def test_column_clustered_bases(self, grid, request):
        system = request.getfixturevalue(grid)
        bases_b, stats_b, deflated_b = column_clustered_krylov_bases(
            ShiftedOperator(system.C, system.G, s0=0.0), system.B, N_MOMENTS)
        bases_c, stats_c, deflated_c = _columnwise_clustered(
            ShiftedOperator(system.C, system.G, s0=0.0), system.B, N_MOMENTS)
        assert deflated_b == deflated_c
        assert _stats_tuple(stats_b) == _stats_tuple(stats_c)
        assert len(bases_b) == len(bases_c)
        for group_b, group_c in zip(bases_b, bases_c):
            assert group_b.shape == group_c.shape
            assert _same_span(group_b, group_c)


@pytest.mark.parametrize("grid", GRID_FIXTURES)
class TestReducerKernelParity:
    def test_bdsm_poles_and_transfer(self, grid, request):
        system = request.getfixturevalue(grid)
        blocked, _, _ = bdsm_reduce(system, N_MOMENTS)
        columnwise = _columnwise_bdsm(system, N_MOMENTS)
        assert [b.order for b in blocked.blocks] == \
            [b.order for b in columnwise.blocks]
        poles_b, poles_c = _sorted_poles(blocked), _sorted_poles(columnwise)
        scale = np.max(np.abs(poles_c))
        assert np.allclose(poles_b, poles_c, rtol=1e-6, atol=1e-6 * scale)
        for s in (0.0, 1j * 1e6, 1j * 1e9):
            assert np.allclose(blocked.transfer_function(s),
                               columnwise.transfer_function(s),
                               rtol=1e-8, atol=1e-12)

    def test_prima_poles_and_transfer(self, grid, request):
        system = request.getfixturevalue(grid)
        blocked, _, _ = prima_reduce(system, N_MOMENTS)
        columnwise = _columnwise_prima(system, N_MOMENTS)
        assert blocked.size == columnwise.size
        eig_b = scipy.linalg.eig(blocked.G, blocked.C, right=False)
        eig_c = scipy.linalg.eig(columnwise.G, columnwise.C, right=False)
        poles_b = np.sort(eig_b.real) + 1j * np.sort(eig_b.imag)
        poles_c = np.sort(eig_c.real) + 1j * np.sort(eig_c.imag)
        scale = np.max(np.abs(poles_c))
        assert np.allclose(poles_b, poles_c, rtol=1e-6, atol=1e-6 * scale)
        for s in (0.0, 1j * 1e6, 1j * 1e9):
            assert np.allclose(blocked.transfer_function(s),
                               columnwise.transfer_function(s),
                               rtol=1e-8, atol=1e-12)


class TestRequireFullRankParity:
    def test_blocked_kernel_raises_on_dependent_candidates(
            self, rc_grid_system):
        # Requesting more moments than the reachable subspace supports
        # must deflate; with require_full_rank the production driver raises
        # the same DeflationError the column-wise oracle does.
        system = rc_grid_system
        order = system.size  # guaranteed to exhaust the subspace
        for build in (block_krylov_basis, _columnwise_block_krylov):
            operator = ShiftedOperator(system.C, system.G, s0=0.0)
            with pytest.raises(DeflationError):
                build(operator, system.B, order, require_full_rank=True)


class TestPooledClusterParity:
    def test_engine_pooled_chunks_match_serial(self, rlc_grid_system):
        serial, serial_stats, _ = bdsm_reduce(
            rlc_grid_system, N_MOMENTS,
            options=BDSMOptions(port_chunk_size=3))
        with SweepEngine(jobs=2) as engine:
            pooled, pooled_stats, _ = bdsm_reduce(
                rlc_grid_system, N_MOMENTS,
                options=BDSMOptions(port_chunk_size=3, engine=engine))
        assert _stats_tuple(serial_stats) == _stats_tuple(pooled_stats)
        assert len(serial.blocks) == len(pooled.blocks)
        for blk_s, blk_p in zip(serial.blocks, pooled.blocks):
            assert blk_s.index == blk_p.index
            assert np.array_equal(blk_s.C, blk_p.C)
            assert np.array_equal(blk_s.G, blk_p.G)
            assert np.array_equal(blk_s.b, blk_p.b)
            assert np.array_equal(blk_s.L, blk_p.L)

    def test_engine_auto_chunking_matches_serial(self, rlc_grid_system):
        # With no explicit port_chunk_size the reducer chunks the ports
        # itself when a pool is in play; the result must stay identical.
        serial, _, _ = bdsm_reduce(rlc_grid_system, N_MOMENTS)
        with SweepEngine(jobs=2) as engine:
            pooled, _, _ = bdsm_reduce(
                rlc_grid_system, N_MOMENTS,
                options=BDSMOptions(engine=engine))
        assert len(serial.blocks) == len(pooled.blocks)
        for blk_s, blk_p in zip(serial.blocks, pooled.blocks):
            assert np.array_equal(blk_s.C, blk_p.C)
            assert np.array_equal(blk_s.G, blk_p.G)
            assert np.array_equal(blk_s.b, blk_p.b)

    def test_n_workers_fallback_matches_serial(self, rlc_grid_system):
        serial, _, _ = bdsm_reduce(rlc_grid_system, N_MOMENTS,
                                   options=BDSMOptions(port_chunk_size=3))
        pooled, _, _ = bdsm_reduce(
            rlc_grid_system, N_MOMENTS,
            options=BDSMOptions(port_chunk_size=3, n_workers=2))
        for blk_s, blk_p in zip(serial.blocks, pooled.blocks):
            assert np.array_equal(blk_s.C, blk_p.C)
            assert np.array_equal(blk_s.G, blk_p.G)
