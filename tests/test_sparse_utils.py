"""Unit tests for repro.linalg.sparse_utils."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SingularSystemError
from repro.linalg.sparse_utils import (
    as_dense,
    estimate_dense_bytes,
    is_symmetric,
    nnz_density,
    sparsity_info,
    splu_factor,
    to_csc,
    to_csr,
)


class TestConversions:
    def test_to_csr_from_dense(self):
        m = to_csr(np.eye(3))
        assert sp.issparse(m)
        assert m.format == "csr"
        assert m.nnz == 3

    def test_to_csr_passthrough(self):
        original = sp.csr_matrix(np.eye(4))
        assert to_csr(original) is original

    def test_to_csc_from_dense(self):
        m = to_csc([[1.0, 0.0], [0.0, 2.0]])
        assert m.format == "csc"
        assert m.nnz == 2

    def test_as_dense_roundtrip(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(as_dense(sp.csr_matrix(arr)), arr)
        assert np.array_equal(as_dense(arr), arr)


class TestDensityAndNorms:
    def test_nnz_density_sparse(self):
        m = sp.eye(10, format="csr")
        assert nnz_density(m) == pytest.approx(0.1)

    def test_nnz_density_dense_ignores_exact_zeros(self):
        arr = np.zeros((4, 4))
        arr[0, 0] = 1.0
        assert nnz_density(arr) == pytest.approx(1 / 16)

    def test_nnz_density_empty(self):
        assert nnz_density(np.zeros((0, 0))) == 0.0


class TestSymmetry:
    def test_symmetric_matrix(self):
        arr = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert is_symmetric(arr)

    def test_asymmetric_matrix(self):
        arr = np.array([[2.0, -1.0], [1.0, 2.0]])
        assert not is_symmetric(arr)

    def test_non_square_is_not_symmetric(self):
        assert not is_symmetric(np.ones((2, 3)))

    def test_tolerance_scales_with_matrix(self):
        arr = np.array([[1e12, 1.0], [1.0 + 1e-4, 1e12]])
        assert is_symmetric(arr, tol=1e-10)


class TestSparsityInfo:
    def test_basic_fields(self):
        m = sp.diags([1.0, 2.0, 3.0]).tocsr()
        info = sparsity_info(m)
        assert info.shape == (3, 3)
        assert info.nnz == 3
        assert info.density == pytest.approx(1 / 3)
        assert info.bandwidth == 0
        assert info.symmetric

    def test_density_percent(self):
        info = sparsity_info(np.eye(4))
        assert info.density_percent == pytest.approx(25.0)

    def test_bandwidth_of_tridiagonal(self):
        m = sp.diags([[1.0] * 4, [1.0] * 5, [1.0] * 4], offsets=[-1, 0, 1])
        assert sparsity_info(m).bandwidth == 1

    def test_empty_matrix(self):
        info = sparsity_info(sp.csr_matrix((3, 3)))
        assert info.nnz == 0
        assert info.bandwidth == 0


class TestEstimateDenseBytes:
    def test_float64_default(self):
        assert estimate_dense_bytes(100, 200) == 100 * 200 * 8

    def test_custom_itemsize(self):
        assert estimate_dense_bytes(10, 10, itemsize=4) == 400


class TestSpluFactor:
    def test_solves_linear_system(self, rng):
        arr = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        factor = splu_factor(sp.csc_matrix(arr))
        b = rng.normal(size=6)
        x = factor.solve(b)
        assert np.allclose(arr @ x, b)

    def test_rejects_non_square(self):
        with pytest.raises(SingularSystemError):
            splu_factor(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_singular(self):
        singular = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SingularSystemError):
            splu_factor(singular)

    def test_rejects_non_finite(self):
        arr = np.eye(3)
        arr[0, 0] = np.nan
        with pytest.raises(SingularSystemError):
            splu_factor(sp.csr_matrix(arr))

    def test_complex_matrix(self):
        arr = np.eye(3) * (1.0 + 1.0j)
        factor = splu_factor(sp.csc_matrix(arr))
        x = factor.solve(np.ones(3, dtype=complex))
        assert np.allclose(x, np.full(3, 1.0 / (1.0 + 1.0j)))
