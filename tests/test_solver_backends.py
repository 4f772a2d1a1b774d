"""Unit tests for repro.linalg.backends (policy, orderings, cache, wiring)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid
from repro.exceptions import SingularSystemError, SolverBackendError
from repro.linalg.backends import (
    DenseSolver,
    FactorizationCache,
    SpluSolver,
    default_cache,
    get_solver,
    select_backend,
    solve,
    temporary_default_cache,
)
from repro.linalg.krylov import ShiftedOperator
from repro.linalg.sparse_utils import splu_factor
from repro.obs.tracing import disable_tracing, drain_spans, enable_tracing


def _laplacian(n: int) -> sp.csr_matrix:
    """1-D Poisson matrix: sparse, symmetric positive definite."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


class TestSelectionHeuristics:
    def test_small_matrices_go_dense(self):
        assert select_backend(_laplacian(8)) is DenseSolver
        assert select_backend(_laplacian(128)) is DenseSolver

    def test_spd_matrices_get_symmetric_ordering(self):
        solver = get_solver(_laplacian(300), cached=False)
        assert isinstance(solver, SpluSolver)
        assert solver.ordering == "MMD_AT_PLUS_A"

    def test_unsymmetric_matrices_go_splu(self):
        A = _laplacian(300).tolil()
        A[0, 250] = 5.0
        solver = get_solver(A.tocsr(), cached=False)
        assert isinstance(solver, SpluSolver)
        assert solver.ordering == "COLAMD"

    def test_complex_matrices_go_splu(self):
        A = (_laplacian(300) * (1 + 1j)).tocsr()
        solver = get_solver(A, cached=False)
        assert isinstance(solver, SpluSolver)
        assert solver.ordering == "COLAMD"

    def test_huge_spd_matrices_go_splu(self):
        """No size sends an SPD pencil to an iterative solver: SuperLU
        factors a 250,000-state diagonal pencil in milliseconds."""
        n = 250_000
        A = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
        solver = get_solver(A, cached=False)
        assert isinstance(solver, SpluSolver)
        assert solver.ordering == "MMD_AT_PLUS_A"
        b = np.ones(n)
        assert np.allclose(A @ solver.solve(b), b, rtol=1e-14, atol=0.0)


class TestBackendBehaviour:
    def test_singular_symmetric_factor_raises(self):
        # A floating (ungrounded) chain: symmetric, positive diagonal and
        # exactly singular.  The symmetric ordering reports it instead of
        # falling back to another factorisation.
        A = _laplacian(200).tolil()
        A[0, 0] = A[-1, -1] = 1.0
        with pytest.raises(SingularSystemError):
            get_solver(A.tocsr(), cached=False)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_dense_rejects_singular(self):
        A = np.zeros((3, 3))
        with pytest.raises(SingularSystemError):
            DenseSolver(A).solve(np.ones(3))

    def test_dense_solver_shared_across_threads(self):
        # The thread engine's BDSM chunks share one solver per expansion
        # point; concurrent solves must match a serial one bit for bit.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 300)) + 10.0 * np.eye(300)
        B = rng.standard_normal((300, 8))
        solver = DenseSolver(A)
        expected = solver.solve(B)

        def work(_):
            return [solver.solve(B) for _ in range(50)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [x for batch in pool.map(work, range(8)) for x in batch]
        assert all(np.array_equal(x, expected) for x in results)

    def test_non_square_rejected(self):
        with pytest.raises(SolverBackendError):
            SpluSolver(sp.csr_matrix(np.ones((2, 3))))

    def test_rhs_length_checked(self):
        solver = get_solver(_laplacian(5), cached=False)
        with pytest.raises(SolverBackendError):
            solver.solve(np.ones(7))

    def test_complex_pencil_all_direct_backends(self):
        A = (_laplacian(40) + 1j * sp.eye(40)).tocsr()
        b = np.ones(40)
        for factory in (SpluSolver, DenseSolver):
            x = factory(A).solve(b)
            assert np.linalg.norm(A @ x - b) < 1e-12

    def test_sparse_rhs_accepted(self):
        A = _laplacian(6)
        B = sp.csr_matrix(np.eye(6)[:, :2])
        X = get_solver(A, cached=False).solve(B)
        assert np.allclose(A @ X, np.eye(6)[:, :2])

    def test_solve_convenience(self):
        A = _laplacian(6)
        b = np.arange(6.0)
        assert np.allclose(A @ solve(A, b), b)


class TestFactorizationCache:
    def test_lru_eviction_order(self):
        cache = FactorizationCache(capacity=2)
        mats = [sp.eye(k + 1, format="csr") * 2.0 for k in range(3)]
        s0 = get_solver(mats[0], cache=cache)
        get_solver(mats[1], cache=cache)
        # Touch the first entry so the second becomes LRU.
        assert get_solver(mats[0], cache=cache) is s0
        get_solver(mats[2], cache=cache)  # evicts mats[1]
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        assert get_solver(mats[0], cache=cache) is s0  # still cached

    def test_stats_and_clear(self):
        cache = FactorizationCache(capacity=4)
        A = _laplacian(5)
        get_solver(A, cache=cache)
        get_solver(A, cache=cache)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        cache.reset_stats()
        assert cache.stats().hits == 0

    def test_capacity_validated(self):
        with pytest.raises(SolverBackendError):
            FactorizationCache(capacity=0)

    def test_use_cache_false_bypasses(self):
        cache = FactorizationCache(capacity=4)
        A = _laplacian(5)
        with temporary_default_cache(cache):
            get_solver(A, cached=False)
        assert len(cache) == 0

    def test_temporary_default_cache_restores(self):
        original = default_cache()
        replacement = FactorizationCache(capacity=2)
        with temporary_default_cache(replacement) as active:
            assert default_cache() is active is replacement
        assert default_cache() is original


class TestLibraryWiring:
    """The analyses share factorisations through the process cache."""

    def test_shifted_operator_solve_count_batched(self, rc_grid_system):
        sys_ = rc_grid_system
        op = ShiftedOperator(sys_.C, sys_.G, s0=0.0)
        op.solve(np.ones((sys_.size, 5)))
        assert op.solve_count == 5

    def test_transient_warm_cache_bit_identical(self, rc_ladder_system):
        from repro.analysis.sources import SourceBank, StepSource
        from repro.analysis.transient import TransientAnalysis
        sources = SourceBank.uniform(rc_ladder_system.B.shape[1],
                                     StepSource(1e-3))
        transient = TransientAnalysis(t_stop=1e-4, dt=1e-5)
        with temporary_default_cache(FactorizationCache(capacity=4)) as cache:
            cold = transient.run(rc_ladder_system, sources)
            warm = transient.run(rc_ladder_system, sources)
            assert cache.stats().hits >= 1
        assert np.array_equal(cold.outputs, warm.outputs)

    def test_full_model_sweep_leaves_cache_alone(self, rc_grid_system):
        """The full model's per-frequency pencils are throwaway: a sweep
        factors each one uncached, so it neither fills nor evicts the
        shared cache."""
        from repro import FrequencyAnalysis
        sweep = FrequencyAnalysis(n_points=5)
        with temporary_default_cache(FactorizationCache(capacity=16)) as cache:
            first = sweep.sweep(rc_grid_system)
            second = sweep.sweep(rc_grid_system)
            stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert np.array_equal(first.values, second.values)


def _random_pencil(n: int, seed: int, symmetric: bool) -> sp.csc_matrix:
    """Sparse, diagonally dominant random pencil of order ``n``."""
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=4.0 / n, random_state=rng, format="csr")
    if symmetric:
        A = A + A.T
    row_sums = np.asarray(abs(A).sum(axis=1)).reshape(-1)
    return (A + sp.diags(row_sums + 1.0)).tocsc()


def _rc_pencil() -> sp.csc_matrix:
    """The shifted pencil ``s0 C - G`` of a 148-state pure-RC grid."""
    spec = PowerGridSpec(rows=12, cols=12, n_ports=6, n_pads=4,
                         package_inductance=0.0, seed=7, name="rc-12x12")
    system = assemble_mna(build_power_grid(spec))
    return (1e9 * system.C - system.G).tocsc()


@pytest.fixture()
def factorize_spans():
    """Collect the ``linalg.factorize`` spans of one test."""
    drain_spans()
    enable_tracing()
    yield lambda: [span for span in drain_spans()
                   if span.name == "linalg.factorize"]
    disable_tracing()
    drain_spans()


class TestOrdering:
    """SuperLU's column ordering follows numeric symmetry and is traced."""

    def test_rc_pencil_gets_symmetric_ordering(self, factorize_spans):
        A = _rc_pencil()
        assert A.shape[0] > 128
        get_solver(A, cached=False)
        spans = factorize_spans()
        assert [span.tags["ordering"] for span in spans] == ["MMD_AT_PLUS_A"]
        assert spans[0].tags["backend"] == "splu"
        fill = {}
        for ordering in ("MMD_AT_PLUS_A", "COLAMD"):
            factor = splu_factor(A, ordering=ordering)
            fill[ordering] = factor.L.nnz + factor.U.nnz
        assert fill["MMD_AT_PLUS_A"] < fill["COLAMD"]

    def test_rlc_pencil_gets_colamd(self, smoke_benchmark, factorize_spans):
        # An RLC MNA pencil has a symmetric pattern but is not symmetric.
        system = smoke_benchmark
        A = (1e9 * system.C - system.G).tocsc()
        assert A.shape[0] > 128
        assert get_solver(A, cached=False).ordering == "COLAMD"
        assert [span.tags["ordering"]
                for span in factorize_spans()] == ["COLAMD"]

    def test_dense_factorize_span_has_no_ordering(self, factorize_spans):
        get_solver(_laplacian(20), cached=False)
        (span,) = factorize_spans()
        assert span.tags["backend"] == "dense"
        assert "ordering" not in span.tags

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_orderings_match_dense_lapack(self, seed, symmetric):
        A = _random_pencil(200, seed, symmetric)
        B = np.random.default_rng(seed + 100).normal(size=(200, 3))
        reference = DenseSolver(A).solve(B)
        orderings = ("MMD_AT_PLUS_A", "COLAMD") if symmetric else ("COLAMD",)
        for ordering in orderings:
            X = splu_factor(A, ordering=ordering).solve(B)
            assert np.allclose(X, reference, rtol=1e-12, atol=1e-14)
        assert get_solver(A, cached=False).ordering == orderings[0]
