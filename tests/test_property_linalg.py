"""Property-based tests (hypothesis) for the linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.blockdiag import BlockLayout, block_diag_sparse
from repro.linalg.orthogonalization import (
    modified_gram_schmidt,
    theoretical_inner_products,
)

# Keep hypothesis examples small: each example does dense linear algebra.
SETTINGS = settings(max_examples=25, deadline=None)


finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def candidate_matrices(draw):
    rows = draw(st.integers(min_value=3, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=min(rows, 5)))
    return draw(arrays(np.float64, (rows, cols), elements=finite_floats))


@st.composite
def candidate_matrix_pairs(draw):
    """Two candidate matrices sharing the same row count."""
    rows = draw(st.integers(min_value=4, max_value=12))
    cols_a = draw(st.integers(min_value=1, max_value=4))
    cols_b = draw(st.integers(min_value=1, max_value=4))
    a = draw(arrays(np.float64, (rows, cols_a), elements=finite_floats))
    b = draw(arrays(np.float64, (rows, cols_b), elements=finite_floats))
    return a, b


class TestGramSchmidtProperties:
    @SETTINGS
    @given(candidate_matrices())
    def test_basis_is_orthonormal(self, candidates):
        basis, _ = modified_gram_schmidt(candidates)
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-8)

    @SETTINGS
    @given(candidate_matrices())
    def test_basis_never_wider_than_input(self, candidates):
        basis, stats = modified_gram_schmidt(candidates)
        assert basis.shape[1] + stats.deflations == candidates.shape[1]
        assert basis.shape[1] <= min(candidates.shape)

    @SETTINGS
    @given(candidate_matrices())
    def test_candidates_lie_in_span(self, candidates):
        basis, _ = modified_gram_schmidt(candidates)
        if basis.shape[1] == 0:
            assert np.allclose(candidates, 0.0, atol=1e-9)
            return
        residual = candidates - basis @ (basis.T @ candidates)
        scale = max(np.linalg.norm(candidates), 1.0)
        assert np.linalg.norm(residual) <= 1e-6 * scale

    @SETTINGS
    @given(candidate_matrix_pairs())
    # A first basis built from a ~1e-161 column: its norm squared is
    # subnormal, so an unscaled normalisation misses unit length and the
    # second basis comes out 3.6e-6 off orthogonal.
    @example((np.array([[2.96e-161], [0.0], [0.0], [0.0]]),
              np.array([[1.0], [1.0], [0.0], [0.0]])))
    def test_two_stage_orthogonality(self, pair):
        first, second = pair
        basis_a, _ = modified_gram_schmidt(first)
        basis_b, _ = modified_gram_schmidt(second, initial_basis=basis_a)
        if basis_a.shape[1] and basis_b.shape[1]:
            assert np.allclose(basis_a.T @ basis_b, 0.0, atol=1e-8)


def test_tiny_column_normalises_to_unit_norm():
    tiny = np.array([[2.96e-161], [0.0], [0.0], [0.0]])
    basis, stats = modified_gram_schmidt(tiny)
    assert basis.shape == (4, 1) and stats.deflations == 0
    assert np.linalg.norm(basis[:, 0]) == pytest.approx(1.0, abs=1e-15)


class TestCostFormulaProperties:
    @SETTINGS
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=1, max_value=30))
    def test_clustered_cost_never_exceeds_global(self, m, l):
        assert theoretical_inner_products(m, l, clustered=True) <= \
            theoretical_inner_products(m, l, clustered=False)

    @SETTINGS
    @given(st.integers(min_value=2, max_value=2000),
           st.integers(min_value=2, max_value=30))
    def test_cost_ratio_grows_with_ports(self, m, l):
        ratio = (theoretical_inner_products(m, l, clustered=False)
                 / max(theoretical_inner_products(m, l, clustered=True), 1))
        assert ratio >= (m * l - 1) / (l - 1) - 1e-9


class TestBlockLayoutProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                    max_size=8))
    def test_offsets_partition_the_range(self, sizes):
        layout = BlockLayout(tuple(sizes))
        covered = []
        for i in range(layout.n_blocks):
            sl = layout.block_slice(i)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(layout.total))

    @SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=6), st.integers(min_value=0, max_value=10 ** 6))
    def test_block_of_index_consistent_with_slices(self, sizes, raw_index):
        layout = BlockLayout(tuple(sizes))
        index = raw_index % layout.total
        block = layout.block_of_index(index)
        sl = layout.block_slice(block)
        assert sl.start <= index < sl.stop

    @SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=5), st.integers(min_value=0, max_value=1000))
    def test_block_diag_nnz_is_sum_of_block_areas(self, sizes, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.uniform(0.5, 1.0, size=(k, k)) for k in sizes]
        matrix = block_diag_sparse(blocks)
        assert matrix.nnz == sum(k * k for k in sizes)
        assert matrix.shape == (sum(sizes), sum(sizes))
