"""Property-based tests of the linear-solver backend subsystem.

Three invariants the rest of the library leans on:

* the solver policy always returns a solver that actually solves the
  system — SPD and unsymmetric alike — to tight residual tolerance;
* a cache hit returns bit-identical results to the cold solve (it is the
  same factor object);
* cache eviction never changes results: re-factorising the same matrix is
  deterministic, so a capacity-starved cache only costs time, not accuracy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.backends import (
    FactorizationCache,
    get_solver,
    matrix_fingerprint,
    select_backend,
)

#: Bounded sizes keep each factorisation cheap; hypothesis drives variety.
SIZES = st.integers(min_value=2, max_value=60)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _spd_matrix(n: int, seed: int) -> sp.csr_matrix:
    """Random sparse SPD matrix (grid-Laplacian-like: diagonally dominant)."""
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=min(1.0, 4.0 / n), random_state=rng,
                  format="csr")
    A = A + A.T
    # Diagonal dominance makes it SPD and keeps the condition number tame.
    row_sums = np.asarray(np.abs(A).sum(axis=1)).reshape(-1)
    return (A + sp.diags(row_sums + 1.0)).tocsr()


def _unsymmetric_matrix(n: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    A = _spd_matrix(n, seed)
    skew = sp.random(n, n, density=min(1.0, 3.0 / n), random_state=rng,
                     format="csr")
    return (A + skew).tocsr()


def _rhs(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).normal(size=n)


def _relative_residual(A, x, b) -> float:
    return float(np.linalg.norm(A @ x - b)
                 / max(np.linalg.norm(b), 1e-300))


class TestAutoSelectionSolves:
    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_spd_systems(self, n, seed):
        A = _spd_matrix(n, seed)
        b = _rhs(n, seed)
        solver = get_solver(A, cached=False)
        assert _relative_residual(A, solver.solve(b), b) < 1e-9

    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_unsymmetric_systems(self, n, seed):
        A = _unsymmetric_matrix(n, seed)
        b = _rhs(n, seed)
        solver = get_solver(A, cached=False)
        assert _relative_residual(A, solver.solve(b), b) < 1e-9

    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_selection_is_deterministic(self, n, seed):
        A = _unsymmetric_matrix(n, seed)
        assert select_backend(A) is select_backend(A)
        first = get_solver(A, cached=False)
        assert type(get_solver(A, cached=False)) is type(first)

    @given(n=SIZES, seed=SEEDS, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_block_rhs_matches_columnwise(self, n, seed, k):
        """Batched multi-RHS solves equal the column-by-column solves."""
        A = _unsymmetric_matrix(n, seed)
        B = np.random.default_rng(seed + 2).normal(size=(n, k))
        solver = get_solver(A, cached=False)
        X = solver.solve(B)
        for j in range(k):
            assert np.allclose(X[:, j], solver.solve(B[:, j]),
                               rtol=1e-12, atol=1e-14)


class TestCacheSemantics:
    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_cache_hit_is_bit_identical(self, n, seed):
        A = _spd_matrix(n, seed)
        b = _rhs(n, seed)
        cache = FactorizationCache(capacity=4)
        cold = get_solver(A, cache=cache).solve(b)
        warm = get_solver(A, cache=cache).solve(b)
        assert cache.stats().hits == 1
        assert np.array_equal(cold, warm)

    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_eviction_never_changes_results(self, n, seed):
        """A capacity-1 cache thrashing between two matrices stays exact."""
        A = _spd_matrix(n, seed)
        B = _unsymmetric_matrix(n, seed + 7)
        b = _rhs(n, seed)
        reference = {
            "A": get_solver(A, cached=False).solve(b),
            "B": get_solver(B, cached=False).solve(b),
        }
        cache = FactorizationCache(capacity=1)
        for _ in range(3):  # alternate to force evictions every lookup
            xa = get_solver(A, cache=cache).solve(b)
            xb = get_solver(B, cache=cache).solve(b)
            assert np.array_equal(xa, reference["A"])
            assert np.array_equal(xb, reference["B"])
        assert cache.stats().evictions >= 4

    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_fingerprint_distinguishes_matrices(self, n, seed):
        A = _spd_matrix(n, seed)
        B = A.copy()
        B[0, 0] += 1.0
        assert matrix_fingerprint(A) == matrix_fingerprint(A.copy())
        assert matrix_fingerprint(A) != matrix_fingerprint(B.tocsr())

    @given(n=SIZES, seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_fingerprint_format_independent(self, n, seed):
        A = _spd_matrix(n, seed)
        assert matrix_fingerprint(A.tocsc()) == matrix_fingerprint(A.tocsr())
        # ... but a dense array is tagged distinctly from a sparse one.
        assert matrix_fingerprint(A.toarray()) != matrix_fingerprint(A)
