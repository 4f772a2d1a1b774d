"""Unit tests for repro.linalg.recycle (basis recycling across shifts/shards)."""

import numpy as np
import pytest

from repro.core import multipoint_bdsm_reduce
from repro.linalg import (
    OrthoStats,
    RecycleStats,
    RecycleWorkspace,
    ShardBasisCache,
    ShiftedOperator,
    block_orthonormalize,
    column_clustered_krylov_bases,
    modified_gram_schmidt,
)
from repro.mor import multipoint_prima_reduce
from repro.partition import partitioned_reduce
from repro.validation import rom_agreement_report


def _total_solves(rom) -> int:
    return int(sum(rom.solve_counts))


class TestRecycleWorkspace:
    def test_first_shift_screens_nothing(self):
        ws = RecycleWorkspace(8)
        ws.begin_shift()
        keep = ws.screen(np.random.default_rng(0).standard_normal((8, 3)))
        assert keep.all()
        assert ws.stats.hits == 0

    def test_repeated_direction_is_a_hit(self):
        rng = np.random.default_rng(1)
        ws = RecycleWorkspace(10)
        block = rng.standard_normal((10, 3))
        ws.begin_shift()
        ws.absorb(block, OrthoStats())
        ws.begin_shift()
        # A column inside the absorbed span screens out; a fresh one stays.
        inside = block @ rng.standard_normal(3)
        fresh = rng.standard_normal(10)
        keep = ws.screen(np.column_stack([inside, fresh]))
        assert keep.tolist() == [False, True]
        assert ws.stats.screened == 2
        assert ws.stats.hits == 1

    def test_zero_candidate_is_not_a_hit(self):
        ws = RecycleWorkspace(6)
        ws.begin_shift()
        ws.absorb(np.eye(6)[:, :2], OrthoStats())
        ws.begin_shift()
        keep = ws.screen(np.zeros((6, 1)))
        assert keep.tolist() == [True]
        assert ws.stats.hits == 0

    def test_absorb_splits_complex_blocks_and_keeps_basis_real(self):
        rng = np.random.default_rng(2)
        ws = RecycleWorkspace(12)
        ws.begin_shift()
        block = (rng.standard_normal((12, 2))
                 + 1j * rng.standard_normal((12, 2)))
        added = ws.absorb(block, OrthoStats())
        assert added == 4
        assert np.isrealobj(ws.basis)
        assert np.allclose(ws.basis.T @ ws.basis, np.eye(4), atol=1e-12)

    def test_invalid_recycle_tol(self):
        with pytest.raises(ValueError):
            RecycleWorkspace(4, recycle_tol=0.0)

    def test_stats_merge_and_as_dict(self):
        a = RecycleStats(screened=3, hits=1, solves_skipped=2)
        a.merge(RecycleStats(screened=2, hits=2, shard_hits=1,
                             shard_misses=4))
        assert a.as_dict() == {"screened": 5, "hits": 3,
                               "solves_skipped": 2, "shard_hits": 1,
                               "shard_misses": 4}


class TestDeflationParityWithColumnwise:
    """The blocked kernel's decisions must match the MGS reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_heavy_deflation_runs_match_mgs(self, seed):
        # Blocks engineered so a large fraction of the columns deflate in
        # runs — the regime the deflation-aware re-QR accelerates.
        rng = np.random.default_rng(seed)
        n, independent = 40, 12
        base = rng.standard_normal((n, independent))
        cols = [base[:, i] for i in range(independent)]
        for _ in range(30):
            cols.append(base @ rng.standard_normal(independent))
        order = rng.permutation(len(cols))
        W = np.column_stack([cols[i] for i in order])
        qb, sb = block_orthonormalize(W.copy())
        qc, sc = modified_gram_schmidt(W.copy())
        assert qb.shape == qc.shape
        assert sb.deflations == sc.deflations
        assert (sb.inner_products, sb.axpy_updates,
                sb.normalizations) == (sc.inner_products, sc.axpy_updates,
                                       sc.normalizations)
        # Same span, not necessarily the same columns.
        assert np.linalg.norm(qb - qc @ (qc.T @ qb)) < 1e-8

    def test_all_duplicate_block_collapses_to_rank_one(self):
        v = np.linspace(1.0, 2.0, 16)
        W = np.column_stack([v * s for s in (1.0, 2.0, -0.5, 3.0)])
        qb, sb = block_orthonormalize(W.copy())
        qc, sc = modified_gram_schmidt(W.copy())
        assert qb.shape == (16, 1)
        assert sb.deflations == sc.deflations == 3


def _per_column_recycled_reference(operator, B, order, workspaces):
    """Screen-and-absorb one candidate at a time (the per-column loop the
    clustered driver batches into one absorb per port and shift)."""
    stats = OrthoStats()
    active = list(range(len(workspaces)))
    current = np.asarray(operator.starting_block(B))
    for step in range(order):
        survivors = []
        for pos, group in enumerate(active):
            ws = workspaces[group]
            col = current[:, pos]
            if not ws.screen(col)[0]:
                ws.stats.solves_skipped += order - 1 - step
                continue
            ws.absorb(col, stats)
            survivors.append(pos)
        if step == order - 1 or not survivors:
            break
        active = [active[pos] for pos in survivors]
        current = np.asarray(operator.apply(current[:, survivors]))
    return stats


class TestClusteredDriverRecycling:
    # Three moments at clustered shifts: every later-shift candidate is a
    # hit and skips its solves.  One moment at spread shifts: later shifts
    # absorb genuinely new directions through the batched path.
    @pytest.mark.parametrize("points, order", [([0.0, 5e8, 2e9], 3),
                                               ([0.0, 1e10, 1e11], 1)])
    def test_batched_absorb_matches_per_column_reference(
            self, rc_grid_system, points, order):
        system = rc_grid_system
        B = system.B.toarray()
        m = B.shape[1]
        runs = {}
        for name in ("driver", "reference"):
            recycle_stats = RecycleStats()
            workspaces = [RecycleWorkspace(system.size, stats=recycle_stats)
                          for _ in range(m)]
            ortho = OrthoStats()
            for point in points:
                for ws in workspaces:
                    ws.begin_shift()
                operator = ShiftedOperator(system.C, system.G, s0=point)
                if name == "driver":
                    _, point_stats, _ = column_clustered_krylov_bases(
                        operator, B, order, workspaces=workspaces)
                else:
                    point_stats = _per_column_recycled_reference(
                        operator, B, order, workspaces)
                ortho.merge(point_stats)
            runs[name] = (recycle_stats, ortho, workspaces)
        stats_d, ortho_d, ws_d = runs["driver"]
        stats_r, ortho_r, ws_r = runs["reference"]
        assert stats_r.hits > 0
        assert stats_r.solves_skipped > 0 or max(
            ws.size for ws in ws_r) > order
        assert (stats_d.screened, stats_d.hits, stats_d.solves_skipped) == \
            (stats_r.screened, stats_r.hits, stats_r.solves_skipped)
        assert ortho_d.deflations == ortho_r.deflations
        for a, b in zip(ws_d, ws_r):
            assert a.basis.shape == b.basis.shape
            assert np.linalg.norm(a.basis - b.basis @ (b.basis.T @ a.basis)) \
                < 1e-8
            assert np.linalg.norm(b.basis - a.basis @ (a.basis.T @ b.basis)) \
                < 1e-8


class TestMultipointRecycling:
    POINTS = [0.0, 5e8, 2e9]

    def test_prima_recycled_matches_scratch(self, rc_grid_system):
        scratch, _, _ = multipoint_prima_reduce(rc_grid_system, 2,
                                                self.POINTS)
        recycled, _, _ = multipoint_prima_reduce(rc_grid_system, 2,
                                                 self.POINTS, recycle=True)
        omegas = np.logspace(6, 10, 7)
        report = rom_agreement_report(scratch, recycled, omegas)
        assert report["max_rel_error"] < 1e-6

    def test_prima_recycling_skips_solves(self, rc_grid_system):
        scratch, _, _ = multipoint_prima_reduce(rc_grid_system, 3,
                                                self.POINTS)
        recycled, _, _ = multipoint_prima_reduce(rc_grid_system, 3,
                                                 self.POINTS, recycle=True)
        assert recycled.recycle_stats.hits > 0
        assert _total_solves(recycled) < _total_solves(scratch)

    def test_bdsm_recycled_matches_scratch(self, rc_grid_system):
        scratch, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2,
                                               self.POINTS)
        recycled, _, _ = multipoint_bdsm_reduce(rc_grid_system, 2,
                                                self.POINTS, recycle=True)
        omegas = np.logspace(6, 10, 7)
        report = rom_agreement_report(scratch, recycled, omegas)
        assert report["max_rel_error"] < 1e-6
        assert recycled.recycle_stats is not None
        assert _total_solves(recycled) <= _total_solves(scratch)

    def test_repeated_shift_pays_only_starting_block(self, rc_grid_system):
        # The second visit to an identical shift spans nothing new: every
        # candidate beyond the starting block screens out.
        rom, _, _ = multipoint_prima_reduce(rc_grid_system, 2, [0.0, 0.0],
                                            recycle=True)
        assert rom.recycle_stats.hits > 0
        assert rom.solve_counts[1] < rom.solve_counts[0]

    def test_single_point_recycle_matches_scratch_exactly(
            self, rc_grid_system):
        # With one shift nothing is ever frozen, so screening is inert and
        # the recycled build is the from-scratch build.
        scratch, _, _ = multipoint_prima_reduce(rc_grid_system, 2, [0.0])
        recycled, _, _ = multipoint_prima_reduce(rc_grid_system, 2, [0.0],
                                                 recycle=True)
        assert recycled.recycle_stats.hits == 0
        s = 1j * 1e8
        assert np.allclose(scratch.transfer_function(s),
                           recycled.transfer_function(s), rtol=1e-12)

    def test_empty_points_still_raises(self, rc_grid_system):
        from repro.exceptions import ReductionError

        with pytest.raises(ReductionError):
            multipoint_prima_reduce(rc_grid_system, 2, [], recycle=True)
        with pytest.raises(ReductionError):
            multipoint_bdsm_reduce(rc_grid_system, 2, [], recycle=True)


class TestShardBasisCache:
    def test_key_is_content_based(self, rc_grid_system, rlc_grid_system):
        k1 = ShardBasisCache.key_for(rc_grid_system, n_moments=2, s0=0j)
        k2 = ShardBasisCache.key_for(rc_grid_system, n_moments=2, s0=0j)
        k3 = ShardBasisCache.key_for(rc_grid_system, n_moments=3, s0=0j)
        k4 = ShardBasisCache.key_for(rlc_grid_system, n_moments=2, s0=0j)
        assert k1 == k2
        assert k1 != k3
        assert k1 != k4

    def test_fetch_store_counts(self):
        cache = ShardBasisCache()
        key = ("a",)
        assert cache.fetch(key) is None
        cache.store(key, np.eye(3))
        assert cache.fetch(key) is not None
        assert len(cache) == 1
        assert cache.describe() == {"entries": 1, "hits": 1, "misses": 1}

    def test_partitioned_recycle_matches_plain(self, smoke_benchmark):
        plain, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=4)
        recycled, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=4,
                                            recycle=True)
        omegas = np.logspace(6, 10, 5)
        report = rom_agreement_report(plain, recycled, omegas)
        assert report["max_rel_error"] < 1e-8
        assert "shard_basis_cache" in recycled.partition_info

    def test_shared_cache_hits_across_reductions(self, smoke_benchmark):
        # Two identical reductions drawing from one cache: the second run's
        # shards are content-identical to the first's, so every lookup hits
        # and the bases come back verbatim.
        cache = ShardBasisCache()
        first, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=4,
                                         basis_cache=cache)
        misses_after_first = cache.stats.shard_misses
        second, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=4,
                                          basis_cache=cache)
        assert cache.stats.shard_misses == misses_after_first
        assert cache.stats.shard_hits >= 4
        s = 1j * 1e8
        assert np.allclose(first.transfer_function(s),
                           second.transfer_function(s), rtol=1e-12)
