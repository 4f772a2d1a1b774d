"""EKS-style input-dependent reduction (extended Krylov subspace).

The EKS method of Wang & Nguyen (the paper's reference [10]) sidesteps the
many-port problem by folding the *known* input excitation into the input
matrix: with a prescribed input waveform whose Laplace transform is
``u(s) = w * f(s)`` (all ports sharing a common time shape ``f`` with
per-port weights ``w``), the product ``B u(s)`` becomes a single
frequency-dependent "input vector", and the system is reduced as a
single-input multi-output model.  Matching ``l`` moments then needs only an
``n x l`` basis and yields a tiny size-``l`` ROM — the "EKS" rows of
Table II.

The price, which the paper's Fig. 5 makes vivid, is that the ROM captures
moments of the *response under that particular excitation*, not of the
transfer matrix itself: change the input pattern and the ROM is no longer
valid (``reusable=False``).

This implementation supports the excitation model the paper uses in its
experiments ("all ports are assumed to be excited by unit-impulse signals"),
i.e. ``u(s) = w`` constant in ``s``, plus an optional polynomial-in-``1/s``
extension (step/ramp excitations) through ``input_moment_weights``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ReductionError
from repro.linalg.krylov import ShiftedOperator, block_krylov_basis
from repro.linalg.orthogonalization import DEFAULT_DEFLATION_TOL
from repro.linalg.sparse_utils import to_csr
from repro.mor.base import ResourceBudget
from repro.mor.prima import congruence_project

__all__ = ["eks_reduce"]


def eks_reduce(system, n_moments: int, *,
               port_weights: np.ndarray | None = None,
               input_moment_weights: list[np.ndarray] | None = None,
               s0: complex = 0.0,
               budget: ResourceBudget | None = None,
               keep_projection: bool = False,
               deflation_tol: float = DEFAULT_DEFLATION_TOL):
    """Reduce ``system`` around a prescribed excitation pattern.

    Parameters
    ----------
    system:
        Descriptor model exposing ``C, G, B, L``.
    n_moments:
        Number of response moments ``l`` to capture.  The ROM size equals
        the number of retained basis vectors (at most ``l`` for an impulse
        excitation), matching the very small "ROM size" entries of Table II.
    port_weights:
        Length-``m`` weights of the assumed excitation (default: all ones,
        i.e. every port driven by a unit impulse as in the paper's setup).
    input_moment_weights:
        Optional additional weight vectors ``w_1, w_2, ...`` describing the
        higher moments of the input signal (for step/ramp-like excitations);
        each extra vector widens the starting block by one column.
    s0:
        Expansion point.
    budget:
        Optional resource guard (EKS essentially never trips it — its basis
        is ``n x l``).
    keep_projection:
        Store the projection basis on the ROM.
    deflation_tol:
        Relative deflation tolerance.

    Returns
    -------
    tuple(ReducedSystem, OrthoStats, float)
        The (non-reusable) ROM, orthonormalisation counts and build time.
    """
    if n_moments < 1:
        raise ReductionError("n_moments must be >= 1")
    budget = budget or ResourceBudget.unlimited()
    B = to_csr(system.B)
    n, m = B.shape
    weights = (np.ones(m) if port_weights is None
               else np.asarray(port_weights, dtype=float).reshape(-1))
    if weights.shape[0] != m:
        raise ReductionError(
            f"port_weights has length {weights.shape[0]}, expected {m}")
    if not np.any(weights):
        raise ReductionError("port_weights must not be all zero")

    start_columns = [np.asarray(B @ weights).reshape(-1)]
    for extra in input_moment_weights or []:
        extra = np.asarray(extra, dtype=float).reshape(-1)
        if extra.shape[0] != m:
            raise ReductionError(
                "every input_moment_weights vector must have length m")
        start_columns.append(np.asarray(B @ extra).reshape(-1))
    start_block = np.column_stack(start_columns)

    budget.check_dense(n, n_moments * start_block.shape[1],
                       what="EKS projection basis")

    start = time.perf_counter()
    operator = ShiftedOperator(system.C, system.G, s0=s0)
    krylov = block_krylov_basis(operator, start_block, n_moments,
                                deflation_tol=deflation_tol)
    rom = congruence_project(
        system, krylov.basis, method="EKS", s0=s0, n_moments=n_moments,
        reusable=False, keep_projection=keep_projection)
    rom.reusable = False
    rom.assumed_port_weights = weights  # type: ignore[attr-defined]
    elapsed = time.perf_counter() - start
    return rom, krylov.stats, elapsed
