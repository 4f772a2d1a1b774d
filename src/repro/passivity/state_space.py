"""Descriptor-to-state-space conversion and block diagonalisation.

The paper (Sec. III-D) converts each reduced block ``Sigma_ir`` to a standard
state-space model ``(I, A, B, C)`` at a cost of ``O(l^3)``, then eigen-
decomposes ``A = X Lambda X^{-1}`` so the block becomes a diagonal LTI
system on which passivity tests and enforcement are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PassivityError

__all__ = [
    "StateSpaceModel",
    "descriptor_to_state_space",
    "diagonalize_state_space",
    "rom_block_to_state_space",
]


@dataclass
class StateSpaceModel:
    """Standard state-space model ``dx/dt = A x + B u, y = C x + D u``.

    ``A``, ``B``, ``C`` may be complex after diagonalisation; the transfer
    function stays the same (similarity transforms preserve it), which the
    tests verify.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.A = np.atleast_2d(np.asarray(self.A))
        self.B = np.atleast_2d(np.asarray(self.B))
        self.C = np.atleast_2d(np.asarray(self.C))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise PassivityError("A must be square")
        if self.B.shape[0] != n:
            raise PassivityError(
                f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise PassivityError(
                f"C has {self.C.shape[1]} columns, expected {n}")
        if self.D is None:
            self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
        else:
            self.D = np.atleast_2d(np.asarray(self.D))

    @property
    def order(self) -> int:
        """State dimension."""
        return int(self.A.shape[0])

    @property
    def n_inputs(self) -> int:
        return int(self.B.shape[1])

    @property
    def n_outputs(self) -> int:
        return int(self.C.shape[0])

    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate ``C (sI - A)^{-1} B + D``."""
        pencil = s * np.eye(self.order, dtype=complex) - self.A
        X = np.linalg.solve(pencil, self.B.astype(complex))
        return self.C @ X + self.D

    def poles(self) -> np.ndarray:
        """Eigenvalues of ``A`` (the system poles)."""
        return np.linalg.eigvals(self.A)

    def is_stable(self, tol: float = 1e-9) -> bool:
        """All poles strictly in the closed left half plane (up to ``tol``)."""
        return bool(np.all(np.real(self.poles()) <= tol))


def descriptor_to_state_space(C, G, B, L) -> StateSpaceModel:
    """Convert ``C dx/dt = G x + B u, y = L x`` to standard form.

    Requires the descriptor matrix ``C`` to be non-singular, which holds for
    every BDSM block built from an RLC grid where each node carries
    capacitance (the congruence transform preserves positive definiteness of
    the projected ``C``).

    Raises
    ------
    PassivityError
        If ``C`` is singular, in which case the block cannot be converted
        (the paper's procedure assumes it can).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    try:
        A = np.linalg.solve(C, G)
        B_std = np.linalg.solve(C, B)
    except np.linalg.LinAlgError as exc:
        raise PassivityError(
            "descriptor matrix C is singular; cannot convert this block to "
            "standard state space") from exc
    return StateSpaceModel(A=A, B=B_std, C=L)


def rom_block_to_state_space(block) -> StateSpaceModel:
    """Convert one one-port (BDSM) :class:`~repro.mor.base.ROMBlock` to
    state space."""
    return descriptor_to_state_space(block.C, block.G,
                                     block.b.reshape(-1, 1), block.L)


def diagonalize_state_space(model: StateSpaceModel) -> StateSpaceModel:
    """Diagonalise ``A`` by eigendecomposition (paper Eq. 16).

    Returns the similar system ``(Lambda, X^{-1} B, C X, D)`` whose ``A`` is
    diagonal; the transfer function is unchanged.

    Raises
    ------
    PassivityError
        If ``A`` is defective (not diagonalisable to working precision).
    """
    eigvals, eigvecs = np.linalg.eig(model.A)
    cond = np.linalg.cond(eigvecs)
    if not np.isfinite(cond) or cond > 1e12:
        raise PassivityError(
            "A is (numerically) defective; eigenvector matrix condition "
            f"number {cond:.2e}")
    X_inv = np.linalg.inv(eigvecs)
    return StateSpaceModel(
        A=np.diag(eigvals),
        B=X_inv @ model.B.astype(complex),
        C=model.C.astype(complex) @ eigvecs,
        D=model.D,
    )
