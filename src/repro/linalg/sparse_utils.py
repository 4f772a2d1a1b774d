"""Sparse-matrix helpers shared across the library.

These wrap scipy.sparse so the rest of the code can assume a consistent
format (CSC for factorisation, CSR for products) and get uniform sparsity
statistics for the Fig. 4 style structure reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import SingularSystemError

__all__ = [
    "SparsityInfo",
    "is_symmetric",
    "nnz_density",
    "sparsity_info",
    "splu_factor",
    "to_csc",
    "to_csr",
    "as_dense",
    "estimate_dense_bytes",
]


def to_csr(matrix) -> sp.csr_matrix:
    """Return ``matrix`` as a CSR sparse matrix (no copy when already CSR)."""
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix))


def to_csc(matrix) -> sp.csc_matrix:
    """Return ``matrix`` as a CSC sparse matrix (no copy when already CSC)."""
    if sp.issparse(matrix):
        return matrix.tocsc()
    return sp.csc_matrix(np.asarray(matrix))


def as_dense(matrix) -> np.ndarray:
    """Return a dense ndarray view/copy of ``matrix``."""
    if sp.issparse(matrix):
        return matrix.toarray()
    return np.asarray(matrix)


def nnz_density(matrix) -> float:
    """Fraction of structurally non-zero entries in ``matrix``.

    For a dense array, entries exactly equal to zero are not counted, so the
    value is comparable between a dense ROM (PRIMA) and a sparse ROM (BDSM).
    """
    if sp.issparse(matrix):
        total = matrix.shape[0] * matrix.shape[1]
        return matrix.nnz / total if total else 0.0
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0.0
    return float(np.count_nonzero(arr)) / arr.size


def is_symmetric(matrix, tol: float = 1e-10) -> bool:
    """Check whether ``matrix`` is (numerically) symmetric.

    RC power-grid conductance and capacitance matrices stamped by MNA are
    symmetric; this is used both in tests and to pick symmetric-aware code
    paths.
    """
    m = to_csr(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    diff = (m - m.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = max(float(spla.norm(m)), 1.0)
    return float(np.max(np.abs(diff.data))) <= tol * scale


@dataclass(frozen=True)
class SparsityInfo:
    """Structure statistics of a matrix (used for the Fig. 4 reproduction)."""

    shape: tuple[int, int]
    nnz: int
    density: float
    bandwidth: int
    symmetric: bool

    @property
    def density_percent(self) -> float:
        """Density expressed in percent, as quoted in the paper (1.9 %, 0.3 %)."""
        return 100.0 * self.density


def sparsity_info(matrix, tol: float = 1e-12) -> SparsityInfo:
    """Compute :class:`SparsityInfo` for a dense or sparse matrix."""
    m = to_csr(matrix)
    m.eliminate_zeros()
    coo = m.tocoo()
    if coo.nnz:
        bandwidth = int(np.max(np.abs(coo.row - coo.col)))
    else:
        bandwidth = 0
    square = m.shape[0] == m.shape[1]
    return SparsityInfo(
        shape=(int(m.shape[0]), int(m.shape[1])),
        nnz=int(m.nnz),
        density=nnz_density(m),
        bandwidth=bandwidth,
        symmetric=bool(square and is_symmetric(m, tol=max(tol, 1e-10))),
    )


def estimate_dense_bytes(rows: int, cols: int, itemsize: int = 8) -> int:
    """Memory needed to store a dense ``rows x cols`` matrix of floats."""
    return int(rows) * int(cols) * int(itemsize)


#: SuperLU settings per column ordering.  The symmetric ordering also
#: keeps SuperLU in ``SymmetricMode`` and pivots on the diagonal wherever
#: it is nonzero, which preserves the symmetric fill pattern of an SPD
#: pencil; ``COLAMD`` is SuperLU's default partial pivoting.
_SUPERLU_SETTINGS = {
    "COLAMD": {},
    "MMD_AT_PLUS_A": {"diag_pivot_thresh": 0.0,
                      "options": {"SymmetricMode": True}},
}


def splu_factor(matrix, *, ordering: str = "COLAMD"):
    """Sparse LU factorisation of ``matrix`` with a library-specific error.

    Parameters
    ----------
    matrix:
        Square sparse (or dense) matrix to factorise.
    ordering:
        SuperLU column ordering: ``"COLAMD"`` (any matrix) or
        ``"MMD_AT_PLUS_A"`` (the symmetric-mode settings for a symmetric
        matrix with a positive diagonal).

    Returns
    -------
    scipy.sparse.linalg.SuperLU
        Factor object exposing ``solve``.

    Raises
    ------
    SingularSystemError
        If the matrix holds NaN/Inf entries or is singular (or numerically
        singular) at this shift.
    """
    csc = to_csc(matrix)
    csc.sort_indices()
    if not csc.data.flags.c_contiguous:
        csc = sp.csc_matrix(
            (np.ascontiguousarray(csc.data), csc.indices, csc.indptr),
            shape=csc.shape)
    if csc.shape[0] != csc.shape[1]:
        raise SingularSystemError(
            f"cannot LU-factorise a non-square matrix of shape {csc.shape}"
        )
    if csc.nnz and not np.all(np.isfinite(csc.data)):
        raise SingularSystemError("matrix contains non-finite entries")
    try:
        factor = spla.splu(csc, permc_spec=ordering,
                           **_SUPERLU_SETTINGS[ordering])
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularSystemError(
            f"sparse LU factorisation failed: {exc}"
        ) from exc
    # SuperLU may succeed but produce a factor with an exactly-zero pivot for
    # structurally singular matrices; probe with a solve to catch that.
    probe = factor.solve(np.ones(csc.shape[0], dtype=csc.dtype))
    if not np.all(np.isfinite(probe)):
        raise SingularSystemError(
            "sparse LU produced non-finite solution; the pencil is singular "
            "at this expansion point"
        )
    return factor
