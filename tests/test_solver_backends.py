"""Unit tests for repro.linalg.backends (registry, selection, cache, wiring)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SingularSystemError, SolverBackendError
from repro.linalg.backends import (
    CholeskySolver,
    DenseSolver,
    FactorizationCache,
    SolverOptions,
    SpluSolver,
    available_backends,
    default_cache,
    get_solver,
    ilu_preconditioner,
    jacobi_preconditioner,
    select_backend,
    solve,
    temporary_default_cache,
)
from repro.linalg.krylov import ShiftedOperator


def _laplacian(n: int) -> sp.csr_matrix:
    """1-D Poisson matrix: sparse, symmetric positive definite."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


class TestRegistry:
    def test_expected_backends_registered(self):
        assert {"splu", "cholesky", "dense", "cg", "gmres"} <= set(
            available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverBackendError):
            get_solver(_laplacian(5),
                       options=SolverOptions(backend="quantum"))

    def test_explicit_backend_honoured(self):
        A = _laplacian(300)
        for name in ("splu", "cholesky", "dense", "cg", "gmres"):
            solver = get_solver(
                A, options=SolverOptions(backend=name, use_cache=False))
            assert solver.name == name

    def test_iterative_alias_resolves_by_symmetry(self):
        A = _laplacian(10)
        assert select_backend(
            A, SolverOptions(backend="iterative")) == "cg"
        U = A.tolil()
        U[0, 5] = 3.0
        assert select_backend(
            U.tocsr(), SolverOptions(backend="iterative")) == "gmres"


class TestSelectionHeuristics:
    def test_small_matrices_go_dense(self):
        assert select_backend(_laplacian(8)) == "dense"

    def test_spd_matrices_go_cholesky(self):
        assert select_backend(_laplacian(300)) == "cholesky"

    def test_unsymmetric_matrices_go_splu(self):
        A = _laplacian(300).tolil()
        A[0, 250] = 5.0
        assert select_backend(A.tocsr()) == "splu"

    def test_complex_matrices_go_splu(self):
        A = (_laplacian(300) * (1 + 1j)).tocsr()
        assert select_backend(A) == "splu"

    def test_huge_matrices_go_iterative(self):
        A = _laplacian(400)
        opts = SolverOptions(iterative_threshold=350)
        assert select_backend(A, opts) == "cg"

    def test_thresholds_configurable(self):
        A = _laplacian(300)
        assert select_backend(A, SolverOptions(dense_threshold=512)) == "dense"


class TestBackendBehaviour:
    def test_cholesky_rejects_unsymmetric(self):
        A = _laplacian(20).tolil()
        A[0, 10] = 5.0
        with pytest.raises(SolverBackendError):
            CholeskySolver(A.tocsr(), SolverOptions())

    def test_cholesky_falls_back_on_indefinite(self):
        # Symmetric but indefinite: symmetric-mode SuperLU may hit a zero
        # pivot; the backend must still produce a correct solve via LU.
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = CholeskySolver(A, SolverOptions()).solve(np.array([1.0, 2.0]))
        assert np.allclose(A @ x, [1.0, 2.0])

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_dense_rejects_singular(self):
        A = np.zeros((3, 3))
        with pytest.raises(SingularSystemError):
            DenseSolver(A, SolverOptions()).solve(np.ones(3))

    def test_dense_solver_shared_across_threads(self):
        # The thread engine's BDSM chunks share one solver per expansion
        # point; concurrent solves must match a serial one bit for bit.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 300)) + 10.0 * np.eye(300)
        B = rng.standard_normal((300, 8))
        solver = DenseSolver(A, SolverOptions())
        expected = solver.solve(B)

        def work(_):
            return [solver.solve(B) for _ in range(50)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [x for batch in pool.map(work, range(8)) for x in batch]
        assert all(np.array_equal(x, expected) for x in results)

    def test_non_square_rejected(self):
        with pytest.raises(SolverBackendError):
            SpluSolver(sp.csr_matrix(np.ones((2, 3))), SolverOptions())

    def test_rhs_length_checked(self):
        solver = get_solver(_laplacian(5),
                            options=SolverOptions(use_cache=False))
        with pytest.raises(SolverBackendError):
            solver.solve(np.ones(7))

    def test_complex_pencil_all_direct_backends(self):
        A = (_laplacian(40) + 1j * sp.eye(40)).tocsr()
        b = np.ones(40)
        for name in ("splu", "dense", "gmres"):
            x = get_solver(
                A, options=SolverOptions(backend=name, use_cache=False,
                                         tol=1e-13)).solve(b)
            assert np.linalg.norm(A @ x - b) < 1e-8

    def test_cg_rejects_complex(self):
        A = (_laplacian(10) * (1 + 1j)).tocsr()
        with pytest.raises(SolverBackendError):
            get_solver(A, options=SolverOptions(backend="cg",
                                                use_cache=False))

    def test_iterative_unknown_preconditioner(self):
        with pytest.raises(SolverBackendError):
            get_solver(_laplacian(10),
                       options=SolverOptions(backend="cg", use_cache=False,
                                             preconditioner="magic"))

    def test_sparse_rhs_accepted(self):
        A = _laplacian(6)
        B = sp.csr_matrix(np.eye(6)[:, :2])
        X = get_solver(A, options=SolverOptions(use_cache=False)).solve(B)
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

    def test_different_options_do_not_collide(self):
        cache = FactorizationCache(capacity=8)
        A = _laplacian(5)
        direct = get_solver(A, options=SolverOptions(backend="dense"),
                            cache=cache)
        iterative = get_solver(A, options=SolverOptions(backend="cg"),
                               cache=cache)
        assert direct is not iterative
        assert direct.name == "dense" and iterative.name == "cg"

    def test_use_cache_false_bypasses(self):
        cache = FactorizationCache(capacity=4)
        A = _laplacian(5)
        with temporary_default_cache(cache):
            get_solver(A, options=SolverOptions(use_cache=False))
        assert len(cache) == 0

    def test_temporary_default_cache_restores(self):
        original = default_cache()
        replacement = FactorizationCache(capacity=2)
        with temporary_default_cache(replacement) as active:
            assert default_cache() is active is replacement
        assert default_cache() is original


class TestLibraryWiring:
    """SolverOptions reach the analyses and change nothing numerically."""

    def test_shifted_operator_backend_override(self, rc_grid_system):
        sys_ = rc_grid_system
        rhs = np.arange(sys_.size, dtype=float)
        base = ShiftedOperator(sys_.C, sys_.G, s0=0.0).solve(rhs)
        for name in ("splu", "cholesky", "dense"):
            op = ShiftedOperator(sys_.C, sys_.G, s0=0.0,
                                 solver=SolverOptions(backend=name))
            assert op.backend_name == name
            assert np.allclose(op.solve(rhs), base, rtol=1e-10, atol=1e-14)

    def test_shifted_operator_solve_count_batched(self, rc_grid_system):
        sys_ = rc_grid_system
        op = ShiftedOperator(sys_.C, sys_.G, s0=0.0)
        op.solve(np.ones((sys_.size, 5)))
        assert op.solve_count == 5

    def test_transient_solver_options_equivalent(self, rc_ladder_system):
        from repro.analysis.sources import SourceBank, StepSource
        from repro.analysis.transient import TransientAnalysis
        sources = SourceBank.uniform(rc_ladder_system.B.shape[1],
                                     StepSource(1e-3))
        kwargs = dict(t_stop=1e-4, dt=1e-5)
        base = TransientAnalysis(**kwargs).run(rc_ladder_system, sources)
        alt = TransientAnalysis(
            **kwargs, solver=SolverOptions(backend="splu")).run(
            rc_ladder_system, sources)
        assert np.allclose(base.outputs, alt.outputs, rtol=1e-12, atol=1e-15)

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

    def test_bdsm_solver_options_equivalent(self, smoke_benchmark):
        from repro import BDSMOptions, bdsm_reduce
        base, _, _ = bdsm_reduce(smoke_benchmark, 3)
        alt, _, _ = bdsm_reduce(
            smoke_benchmark, 3,
            options=BDSMOptions(solver=SolverOptions(backend="dense")))
        for blk_a, blk_b in zip(base.blocks, alt.blocks):
            assert np.allclose(blk_a.G, blk_b.G, rtol=1e-8, atol=1e-12)

    def test_ir_drop_solver_options(self, rc_grid_system):
        from repro import ir_drop_analysis
        loads = np.full(rc_grid_system.B.shape[1], 1e-3)
        base = ir_drop_analysis(rc_grid_system, loads)
        alt = ir_drop_analysis(
            rc_grid_system, loads,
            solver=SolverOptions(backend="cg", tol=1e-13,
                                 preconditioner="ilu"))
        assert np.allclose(base.voltages, alt.voltages,
                           rtol=1e-8, atol=1e-12)


class TestPreconditioners:
    def test_jacobi_inverts_diagonal(self, rc_grid_system):
        A = -rc_grid_system.G
        M = jacobi_preconditioner(A)
        v = np.ones(A.shape[0])
        assert np.allclose(M @ v, 1.0 / A.diagonal())

    def test_jacobi_tolerates_zero_diagonal(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        M = jacobi_preconditioner(A)
        v = np.array([3.0, 4.0])
        # Zero-diagonal rows pass through with unit scale; the rest invert.
        assert np.allclose(M @ v, [3.0, 2.0])

    def test_jacobi_empty_matrix(self):
        M = jacobi_preconditioner(sp.csr_matrix((0, 0)))
        assert (M @ np.zeros(0)).shape == (0,)

    def test_jacobi_on_grid_with_zero_conductance_node(self):
        """A cap-only node has a zero G diagonal; jacobi must stay defined."""
        from repro.circuit import Netlist, assemble_mna
        net = Netlist(title="zero-conductance-node")
        net.add_resistor("R1", "n1", "0", 1.0)
        net.add_resistor("R2", "n1", "n2", 2.0)
        net.add_capacitor("C1", "n2", "n3", 1e-6)  # n3 only sees this cap
        net.add_capacitor("C2", "n3", "0", 1e-6)
        net.add_current_source("I1", "n1", "0", 1e-3)
        net.set_output_nodes(["n1"])
        system = assemble_mna(net)
        A = -system.G
        diag = np.asarray(A.diagonal())
        assert np.any(diag == 0.0), "test grid must have a zero-G-diag node"
        M = jacobi_preconditioner(A)
        v = np.ones(A.shape[0])
        out = M @ v
        assert np.all(np.isfinite(out))
        nz = diag != 0.0
        assert np.allclose(out[nz], 1.0 / diag[nz])
        assert np.allclose(out[~nz], 1.0)

    def test_ilu_approximates_inverse(self, rc_grid_system):
        A = -rc_grid_system.G
        M = ilu_preconditioner(A, drop_tol=0.0)
        rng = np.random.default_rng(0)
        b = rng.normal(size=A.shape[0])
        x = M @ b
        assert np.allclose(A @ x, b, rtol=1e-6, atol=1e-9)


class TestIterativeGridSolves:
    """The DC grid solve ``-G x = B u`` through the iterative backends:
    CG on a symmetric RC grid, GMRES on an RLC grid's branch rows."""

    @staticmethod
    def _rhs(system, loads=None) -> np.ndarray:
        loads = np.ones(system.n_ports) if loads is None else loads
        return np.asarray(system.B @ loads).reshape(-1)

    @staticmethod
    def _iterative(system, preconditioner: str = "jacobi", **kwargs):
        A = -system.G
        options = SolverOptions(backend="iterative", use_cache=False,
                                tol=1e-10, preconditioner=preconditioner,
                                **kwargs)
        return A, get_solver(A, options=options)

    @pytest.mark.parametrize("preconditioner", ["jacobi", "ilu", "none"])
    def test_matches_direct_solve(self, rc_grid_system, preconditioner):
        loads = np.linspace(1e-3, 2e-3, rc_grid_system.n_ports)
        rhs = self._rhs(rc_grid_system, loads)
        direct = ShiftedOperator(rc_grid_system.C, rc_grid_system.G,
                                 s0=0.0).solve(rhs)
        A, solver = self._iterative(rc_grid_system, preconditioner)
        x = solver.solve(rhs)
        assert np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs) < 1e-8
        assert np.allclose(x, direct, rtol=1e-6, atol=1e-12)

    def test_symmetric_grid_uses_cg(self, rc_grid_system):
        A, solver = self._iterative(rc_grid_system)
        assert solver.name == "cg"
        rhs = self._rhs(rc_grid_system)
        assert np.linalg.norm(rhs - A @ solver.solve(rhs)) \
            <= 1e-8 * np.linalg.norm(rhs)

    def test_rlc_grid_uses_gmres(self, rlc_grid_system):
        A, solver = self._iterative(rlc_grid_system, "ilu")
        assert solver.name == "gmres"
        rhs = self._rhs(rlc_grid_system)
        assert np.linalg.norm(rhs - A @ solver.solve(rhs)) \
            < 1e-8 * np.linalg.norm(rhs)

    def test_rlc_grid_jacobi_handles_branch_rows(self, rlc_grid_system):
        """RLC branch rows have zero G diagonal; jacobi used to raise here."""
        A, solver = self._iterative(rlc_grid_system, "jacobi",
                                    max_iterations=20000)
        rhs = self._rhs(rlc_grid_system)
        assert np.linalg.norm(rhs - A @ solver.solve(rhs)) \
            < 1e-8 * np.linalg.norm(rhs)

    def test_wrong_rhs_length(self, rc_grid_system):
        _, solver = self._iterative(rc_grid_system)
        with pytest.raises(SolverBackendError):
            solver.solve(np.ones(3))

    def test_unknown_backend(self, rc_grid_system):
        with pytest.raises(SolverBackendError):
            get_solver(-rc_grid_system.G,
                       options=SolverOptions(backend="magic",
                                             use_cache=False))
