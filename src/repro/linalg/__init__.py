"""Low-level linear-algebra substrate used by every other subpackage.

The routines here are deliberately free of any circuit or MOR semantics:
they operate on plain numpy arrays and scipy sparse matrices.

Contents
--------
``backends``
    The one linear-solver policy — dense LAPACK LU for small pencils,
    SuperLU (symmetric or COLAMD ordering) for the rest — plus the LRU
    factorization cache every hot path shares.
``orthogonalization``
    The blocked BLAS-3 orthonormalisation kernel and its column-wise
    modified-Gram-Schmidt reference, with deflation detection and an
    operation counter used by the cost model.
``krylov``
    One (block) Krylov driver per orthonormalisation scheme — global for
    PRIMA/EKS, clustered per input column for BDSM — around a shifted
    descriptor pencil.
``recycle``
    The workspace the Krylov drivers build into (solve-skipping screening
    against a basis carried across expansion points) and fingerprint-keyed
    shard-basis reuse.
``sparse_utils``
    Sparsity statistics, symmetry checks, and safe sparse factorisations.
``moments``
    Transfer-matrix moment computation for moment-matching verification.
"""

from repro.linalg.backends import (
    CacheStats,
    FactorizationCache,
    LinearSolver,
    clear_default_cache,
    default_cache,
    get_solver,
    matrix_fingerprint,
    select_backend,
    set_default_cache,
    solve,
    temporary_default_cache,
)
from repro.linalg.krylov import (
    KrylovResult,
    ShiftedOperator,
    block_krylov_basis,
    column_clustered_krylov_bases,
)
from repro.linalg.moments import system_moments, transfer_moments
from repro.linalg.recycle import (
    DEFAULT_RECYCLE_TOL,
    RecycleStats,
    RecycleWorkspace,
    ShardBasisCache,
)
from repro.linalg.orthogonalization import (
    OrthoStats,
    block_orthonormalize,
    modified_gram_schmidt,
    orthonormalize_against,
)
from repro.linalg.sparse_utils import (
    SparsityInfo,
    is_symmetric,
    nnz_density,
    sparsity_info,
    splu_factor,
    to_csc,
    to_csr,
)

__all__ = [
    "CacheStats",
    "DEFAULT_RECYCLE_TOL",
    "FactorizationCache",
    "KrylovResult",
    "LinearSolver",
    "OrthoStats",
    "RecycleStats",
    "RecycleWorkspace",
    "ShardBasisCache",
    "ShiftedOperator",
    "SparsityInfo",
    "block_krylov_basis",
    "block_orthonormalize",
    "clear_default_cache",
    "column_clustered_krylov_bases",
    "default_cache",
    "get_solver",
    "is_symmetric",
    "matrix_fingerprint",
    "modified_gram_schmidt",
    "nnz_density",
    "orthonormalize_against",
    "select_backend",
    "set_default_cache",
    "solve",
    "sparsity_info",
    "splu_factor",
    "system_moments",
    "temporary_default_cache",
    "to_csc",
    "to_csr",
    "transfer_moments",
]
