"""Poor Man's TBR: sampling-based approximate balanced truncation.

The paper's reference [7] (Phillips & Silveira, "Poor Man's TBR") is the
balanced-truncation family member it contrasts Krylov projection against:
better error control, but too expensive for million-node grids.  We include
it as an accuracy anchor for small and medium systems and as an extra
baseline in the ablation benchmarks.

PMTBR approximates the controllability Gramian by numerical quadrature over
frequency samples,

    X ~= sum_k  w_k * x_k * x_k^H,     x_k = (j*omega_k*C - G)^{-1} B,

collects the (weighted) samples into a matrix ``Z``, takes its SVD and uses
the dominant left singular vectors as a congruence projection basis.  Unlike
exact balanced truncation it never forms or factorises dense ``n x n``
Gramians, so it runs fine on sparse descriptor models with singular ``C``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ReductionError
from repro.linalg.krylov import ShiftedOperator
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.mor.prima import congruence_project

__all__ = ["pmtbr_reduce"]


def pmtbr_reduce(system, order: int, *,
                 omega_min: float = 1e5, omega_max: float = 1e12,
                 n_samples: int = 20,
                 budget: ResourceBudget | None = None,
                 keep_projection: bool = False,
                 singular_value_tol: float = 1e-12):
    """Reduce ``system`` to (at most) ``order`` states with Poor Man's TBR.

    Parameters
    ----------
    system:
        Descriptor model exposing ``C, G, B, L``.
    order:
        Target reduced order (number of dominant singular vectors kept).
    omega_min, omega_max:
        Frequency band (rad/s) over which Gramian samples are taken,
        log-spaced.
    n_samples:
        Number of frequency samples; each costs one sparse factorisation and
        ``m`` solves.
    budget:
        Optional resource guard for the dense sample matrix.
    keep_projection:
        Store the projection basis on the ROM.
    singular_value_tol:
        Relative cut-off below which sample singular vectors are discarded
        even if ``order`` has not been reached.

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
        The ROM (its ``singular_values`` attribute holds the PMTBR spectrum,
        usable as an error indicator), empty orthonormalisation stats (PMTBR
        orthogonalises via SVD, not Gram-Schmidt), and the build time.
    """
    if order < 1:
        raise ReductionError("order must be >= 1")
    if n_samples < 1:
        raise ReductionError("n_samples must be >= 1")
    if omega_min <= 0 or omega_max <= omega_min:
        raise ReductionError("need 0 < omega_min < omega_max")
    budget = budget or ResourceBudget.unlimited()
    B = to_csr(system.B)
    n, m = B.shape
    budget.check_dense(n, 2 * m * n_samples, what="PMTBR sample matrix")

    start = time.perf_counter()
    omegas = np.logspace(np.log10(omega_min), np.log10(omega_max), n_samples)
    samples: list[np.ndarray] = []
    B_dense = B.toarray()
    for omega in omegas:
        op = ShiftedOperator(system.C, system.G, s0=1j * omega)
        x = op.solve(B_dense)
        # Keep the ROM real: real and imaginary parts both enter the basis.
        samples.append(np.real(x))
        samples.append(np.imag(x))
    Z = np.hstack(samples)

    U, sigma, _ = np.linalg.svd(Z, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise ReductionError("all PMTBR samples are zero")
    keep = min(order, int(np.sum(sigma > singular_value_tol * sigma[0])))
    if keep < 1:
        raise ReductionError("PMTBR retained no singular vectors")
    V = U[:, :keep]

    rom = congruence_project(
        system, V, method="PMTBR", s0=0.0, n_moments=0, reusable=True,
        keep_projection=keep_projection)
    rom.singular_values = sigma[:keep]  # type: ignore[attr-defined]
    elapsed = time.perf_counter() - start
    return rom, OrthoStats(), elapsed
