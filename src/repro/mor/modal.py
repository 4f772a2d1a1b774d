"""Modal (pole–residue) form of one reduced block (paper Sec. III-D).

The paper diagonalises every reduced block so that it becomes a sum of
simple fractions.  For a block ``(C, G, B, L)`` with non-singular ``G``,
write ``G^{-1} C = X diag(mu) X^{-1}``; then

.. code-block:: text

    L (s C - G)^{-1} B = (L X) diag(1 / (s mu - 1)) (X^{-1} G^{-1} B)

so a transfer query costs one scaled matrix product per point instead of
a dense solve.  The poles are ``1 / mu`` (``mu = 0`` is a pole at
infinity).  :func:`modal_block` computes the three arrays ``(mu, LX, XB)``
of one block; :class:`~repro.mor.base.StructuredROM` builds them for all
its blocks once, checks them against a direct solve and serves from them.

Which LAPACK kernel decomposes a block depends on its pencil class:

* ``sygvd`` — a real pencil whose ``C`` and ``G`` are symmetric to within
  :data:`MODAL_SYM_TOL` (relative max-abs) and whose ``-G`` is positive
  definite: every congruence projection of an RC grid (PRIMA, BDSM
  blocks, densified partitioned macromodels).  The symmetric-definite
  problem ``C x = lambda (-G) x`` returns real eigenvalues and an
  eigenvector matrix with ``X^T (-G) X = I``, so ``mu = -lambda``,
  ``X^{-1} = X^T (-G)`` and ``X^{-1} G^{-1} B = -X^T B``: no LU of ``G``
  or ``X``, and no defectiveness check, because such a pencil always has
  a ``(-G)``-orthonormal eigenvector basis (it is never defective).  A
  failed Cholesky of ``-G`` (an indefinite or singular ``-G``) falls
  through to ``dgeev`` and counts nothing.
* ``dgeev`` — every other real pencil, e.g. an RLC grid, whose
  package-inductor branches leave the reduced ``G`` unsymmetric (about
  0.1 to 0.4 relative on the ckt grids).  ``G^{-1} C`` is decomposed in
  real arithmetic with the optimal workspace, overwritten; the real
  eigenvector matrix ``V`` (conjugate-pair columns hold the real and
  imaginary parts) is factorised (real LU, overwritten), its ``gecon``
  estimate rejects a numerically defective pencil, and the pairs are
  folded into ``L V`` and ``V^{-1} G^{-1} B`` afterwards.  This keeps the
  peak memory of the build at or below one direct query's.
* ``zgeev`` — a complex pencil, the same steps unfolded.

On the 1,020-state densified macromodel of the laptop
``partitioned_multilevel`` e2e workload (symmetric to 2.6e-16) ``sygvd``
takes 0.44 s where ``dgeev`` takes 1.32 s (single-threaded BLAS, 2-vCPU
VM); the ``sygvd`` form matches the direct solve to 5e-15.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.exceptions import ReductionError

__all__ = [
    "MODAL_MIN_RCOND",
    "MODAL_SYM_TOL",
    "MODAL_TOL",
    "ModalFormError",
    "modal_block",
    "probe_point",
]

#: Largest relative max-abs deviation of the modal form from the direct
#: solve at the probe point; a form beyond it is not served.
MODAL_TOL = 1e-10

#: Smallest accepted reciprocal 1-norm condition number (LAPACK
#: ``gecon``) of a block's eigenvector matrix: below it the pencil is
#: treated as defective.
MODAL_MIN_RCOND = 1e-12

#: Largest relative max-abs asymmetry ``max|A - A^T| / max|A|`` of a real
#: ``C`` and ``G`` decomposed by ``sygvd`` (a congruence projection keeps
#: it at rounding level, about one ``eps``).
MODAL_SYM_TOL = 32 * np.finfo(float).eps


class ModalFormError(ReductionError):
    """A block has no trustworthy modal form; ``reason`` is a short label
    (``singular_G``, ``eig_failed``, ``defective``, ``non_finite``,
    ``residual``) for the fallback counter."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


def _lu(getrf, A, reason: str, *, overwrite: bool = False):
    """LU of ``A``; a singular ``A`` raises :class:`ModalFormError` with
    ``reason``."""
    lu, piv, info = getrf(A, overwrite_a=overwrite)
    if info != 0:
        raise ModalFormError(reason, f"singular matrix in the modal build "
                             f"({reason}, getrf info={info})")
    return lu, piv


def _solve(getrs, lu, piv, rhs) -> np.ndarray:
    """``A^{-1} rhs`` from a real or complex LU; a complex right-hand side
    on a real factorisation is solved as its real and imaginary parts."""
    if np.iscomplexobj(rhs) and not np.iscomplexobj(lu):
        return _solve(getrs, lu, piv, rhs.real) \
            + 1j * _solve(getrs, lu, piv, rhs.imag)
    x, info = getrs(lu, piv, rhs)
    if info != 0:  # pragma: no cover - only on an invalid argument
        raise ModalFormError("eig_failed", f"getrs info={info}")
    return x


def _symmetric(A: np.ndarray) -> bool:
    """Whether the real ``A`` is symmetric to within
    :data:`MODAL_SYM_TOL`, with one ``q x q`` temporary."""
    scale = max(float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    D = A - A.T
    np.abs(D, out=D)
    return float(D.max(initial=0.0)) <= MODAL_SYM_TOL * scale


def _modal_sygvd(C: np.ndarray, G: np.ndarray, B, L):
    """``(mu, LX, XB)`` of a symmetric pencil with ``-G`` positive
    definite, from ``C x = lambda (-G) x``; ``None`` when the Cholesky of
    ``-G`` (or the eigensolver) fails."""
    sygvd, = get_lapack_funcs(("sygvd",), (G,))
    a = C + C.T
    a *= 0.5
    b = G + G.T
    b *= -0.5
    lam, X, info = sygvd(a, b, overwrite_a=True, overwrite_b=True)
    if info != 0:
        return None
    return (-lam).astype(complex), np.asarray(L @ X, dtype=complex), \
        np.asarray(-(X.T @ B), dtype=complex)


def _modal_geev(C: np.ndarray, G: np.ndarray, B, L, real: bool):
    """``(mu, LX, XB)`` of a general pencil by ``dgeev``/``zgeev`` on
    ``G^{-1} C``."""
    getrf, getrs, gecon, geev, geev_lwork = get_lapack_funcs(
        ("getrf", "getrs", "gecon", "geev", "geev_lwork"), (G,))
    q = G.shape[0]
    lu, piv = _lu(getrf, G, "singular_G")
    M = _solve(getrs, lu, piv, C)
    GB = _solve(getrs, lu, piv, np.asarray(B))
    del lu
    work, _ = geev_lwork(q, compute_vl=0, compute_vr=1)
    lwork = max(int(np.real(work)), 1)
    if real:
        wr, wi, _, V, info = geev(M, compute_vl=0, compute_vr=1,
                                  lwork=lwork, overwrite_a=True)
        mu = wr + 1j * wi
    else:
        mu, _, V, info = geev(M, compute_vl=0, compute_vr=1, lwork=lwork,
                              overwrite_a=True)
    del M
    if info != 0:
        raise ModalFormError("eig_failed", f"geev info={info}")
    LX = np.asarray(L @ V, dtype=complex)
    anorm = float(np.abs(V).sum(axis=0).max())
    lu, piv = _lu(getrf, V, "defective", overwrite=True)
    del V
    rcond, _ = gecon(lu, anorm, norm="1")
    if not rcond >= MODAL_MIN_RCOND:
        raise ModalFormError(
            "defective", f"eigenvector matrix has rcond {rcond:.1e} "
            f"(< {MODAL_MIN_RCOND:.0e}): the pencil is numerically defective")
    XB = np.asarray(_solve(getrs, lu, piv, GB), dtype=complex)
    del lu
    if real:
        # dgeev stores a conjugate pair (positive imaginary part first) as
        # the columns [Re x, Im x]; the complex X is V T with 2x2 blocks
        # T = [[1, 1], [i, -i]], so fold T into L V and T^{-1} into XB.
        first = np.flatnonzero(wi > 0)
        second = first + 1
        re, im = LX[:, first], LX[:, second]
        LX[:, first] = re + 1j * im
        LX[:, second] = re - 1j * im
        re, im = XB[first], XB[second]
        XB[first] = 0.5 * (re - 1j * im)
        XB[second] = 0.5 * (re + 1j * im)
    return mu, LX, XB


def modal_block(C, G, B, L) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     str]:
    """``(mu, LX, XB, kernel)`` of one block: the eigenvalues of
    ``G^{-1} C``, ``L X`` and ``X^{-1} G^{-1} B``, all complex and
    C-contiguous, and the LAPACK kernel that decomposed the pencil
    (``sygvd``, ``dgeev`` or ``zgeev``).

    Raises :class:`ModalFormError` for a singular ``G``, a failed or
    defective eigendecomposition and non-finite results.
    """
    real = not (np.iscomplexobj(C) or np.iscomplexobj(G))
    dtype = float if real else complex
    G = np.asarray(G, dtype=dtype)
    q = G.shape[0]
    if q == 0:
        return (np.zeros(0, dtype=complex),
                np.zeros((np.shape(L)[0], 0), dtype=complex),
                np.zeros((0, np.shape(B)[1]), dtype=complex),
                "sygvd" if real else "zgeev")
    C = np.asarray(C, dtype=dtype)
    form = (_modal_sygvd(C, G, B, L)
            if real and _symmetric(C) and _symmetric(G) else None)
    kernel = "sygvd"
    if form is None:
        form = _modal_geev(C, G, B, L, real)
        kernel = "dgeev" if real else "zgeev"
    if not all(np.isfinite(x).all() for x in form):
        raise ModalFormError("non_finite", "modal form is not finite")
    return (*(np.ascontiguousarray(x) for x in form), kernel)


def probe_point(mus) -> complex:
    """``j / median|mu|``: a point inside the band the poles span, where
    the form is checked against a direct solve."""
    magnitudes = np.abs(np.concatenate([np.ravel(mu) for mu in mus]))
    scale = float(np.median(magnitudes)) if magnitudes.size else 0.0
    return 1j / scale if scale > 0.0 else 1j
