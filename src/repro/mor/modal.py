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

A real pencil is decomposed in real arithmetic, which keeps the peak
memory of the build at or below one direct query's: LAPACK ``dgeev`` with
its optimal workspace, overwriting ``G^{-1} C``, returns a real
eigenvector matrix ``V`` whose conjugate-pair columns hold the real and
imaginary parts; ``V`` is factorised (real LU, overwritten) and the pairs
are folded into ``L V`` and ``V^{-1} G^{-1} B`` afterwards.  A complex
pencil goes through ``zgeev`` unfolded.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from repro.exceptions import ReductionError

__all__ = [
    "MODAL_MIN_RCOND",
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


def modal_block(C, G, B, L) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mu, LX, XB)`` of one block: the eigenvalues of ``G^{-1} C``,
    ``L X`` and ``X^{-1} G^{-1} B``, all complex and C-contiguous.

    Raises :class:`ModalFormError` for a singular ``G``, a failed or
    defective eigendecomposition and non-finite results.
    """
    real = not (np.iscomplexobj(C) or np.iscomplexobj(G))
    dtype = float if real else complex
    G = np.asarray(G, dtype=dtype)
    getrf, getrs, gecon, geev, geev_lwork = get_lapack_funcs(
        ("getrf", "getrs", "gecon", "geev", "geev_lwork"), (G,))
    q = G.shape[0]
    if q == 0:
        return (np.zeros(0, dtype=complex),
                np.zeros((np.shape(L)[0], 0), dtype=complex),
                np.zeros((0, np.shape(B)[1]), dtype=complex))
    lu, piv = _lu(getrf, G, "singular_G")
    M = _solve(getrs, lu, piv, np.asarray(C, dtype=dtype))
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
    if not (np.isfinite(mu).all() and np.isfinite(LX).all()
            and np.isfinite(XB).all()):
        raise ModalFormError("non_finite", "modal form is not finite")
    return (np.ascontiguousarray(mu), np.ascontiguousarray(LX),
            np.ascontiguousarray(XB))


def probe_point(mus) -> complex:
    """``j / median|mu|``: a point inside the band the poles span, where
    the form is checked against a direct solve."""
    magnitudes = np.abs(np.concatenate([np.ravel(mu) for mu in mus]))
    scale = float(np.median(magnitudes)) if magnitudes.size else 0.0
    return 1j / scale if scale > 0.0 else 1j
