"""Iterative solvers for large power-grid DC/transient systems.

Before MOR became the tool of choice, large power grids were attacked with
preconditioned Krylov-subspace iterative solvers (the paper's reference [2])
— and the full-model reference simulations in this reproduction can use the
same machinery when a grid is too large to factorise comfortably.

The conductance matrix of a grounded RC power grid (in MNA form, i.e. the
*negative* of the paper-convention ``G``) is symmetric positive definite, so
conjugate gradients with a simple preconditioner is the canonical choice.
For RLC grids (package inductance adds branch rows) the matrix is no longer
symmetric and the solver falls back to GMRES.  The Jacobi and ILU
preconditioners live in :mod:`repro.linalg.backends` beside the cg/gmres
backends and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.exceptions import SimulationError
from repro.linalg.backends import ilu_preconditioner, jacobi_preconditioner
from repro.linalg.sparse_utils import is_symmetric, to_csr

__all__ = ["IterativeSolveResult", "solve_dc_iterative", "jacobi_preconditioner",
           "ilu_preconditioner"]


@dataclass
class IterativeSolveResult:
    """Solution and convergence record of an iterative solve.

    Attributes
    ----------
    x:
        Solution vector.
    iterations:
        Number of iterations taken (as counted through the callback).
    converged:
        Whether the requested tolerance was reached.
    residual_norm:
        Final relative residual ``||b - A x|| / ||b||``.
    method:
        ``"cg"`` or ``"gmres"``.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    method: str


def solve_dc_iterative(system, rhs: np.ndarray, *,
                       tol: float = 1e-10,
                       max_iterations: int = 5000,
                       preconditioner: str = "jacobi",
                       ) -> IterativeSolveResult:
    """Solve the DC system ``-G x = rhs`` iteratively.

    Parameters
    ----------
    system:
        Object exposing the paper-convention ``G`` (so ``-G`` is the MNA
        conductance matrix).
    rhs:
        Right-hand side (e.g. ``B @ load_currents``).
    tol:
        Relative residual tolerance.
    max_iterations:
        Iteration cap.
    preconditioner:
        ``"jacobi"``, ``"ilu"`` or ``"none"``.
    """
    A = to_csr(-system.G)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise SimulationError(
            f"rhs has length {b.shape[0]}, expected {A.shape[0]}")
    if preconditioner == "jacobi":
        M = jacobi_preconditioner(A)
    elif preconditioner == "ilu":
        M = ilu_preconditioner(A)
    elif preconditioner == "none":
        M = None
    else:
        raise SimulationError(
            f"unknown preconditioner {preconditioner!r}")

    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1

    symmetric = is_symmetric(A)
    if symmetric:
        x, info = spla.cg(A, b, rtol=tol, maxiter=max_iterations, M=M,
                          callback=count)
        method = "cg"
    else:
        x, info = spla.gmres(A, b, rtol=tol, maxiter=max_iterations, M=M,
                             callback=count, callback_type="pr_norm")
        method = "gmres"

    b_norm = max(float(np.linalg.norm(b)), 1e-300)
    residual = float(np.linalg.norm(b - A @ x)) / b_norm
    return IterativeSolveResult(
        x=np.asarray(x), iterations=iterations,
        converged=(info == 0), residual_norm=residual, method=method)
