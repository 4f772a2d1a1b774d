"""Hamiltonian-based passivity verification.

The paper points to generalized-Hamiltonian passivity tests (its references
[18], [19]) for locating non-passive frequency bands of a reduced
immittance model.  The classical test: an LTI immittance model
``(A, B, C, D)`` is non-passive at frequency ``omega`` iff the Hermitian
part of ``H(j omega)`` has a negative eigenvalue, and the boundary
crossings are the purely imaginary eigenvalues of the Hamiltonian matrix

    M = [ A - B R^{-1} C        -B R^{-1} B^T     ]
        [ C^T R^{-1} C          -A^T + C^T R^{-1} B^T ],    R = D + D^T.

The realisation is read off the ROM's modal form (paper Sec. III-D,
:meth:`~repro.mor.base.StructuredROM.modal_form`): every mode with
``mu != 0`` is one diagonal entry ``1 / mu`` of ``A``, and the static
modes (``mu = 0``, e.g. an enforced ROM's feedthrough block) fold into
``D`` — see :func:`modal_realisation`.

Power-grid ROMs usually have ``D = 0``; the implementation regularises
``R`` with a small multiple of the identity in that case (documented in the
report) and falls back to direct frequency sampling between the candidate
crossings, so the final verdict never depends on the regularisation alone.
The sampled frequencies span the ROM's spectrum (three decades beyond its
slowest and fastest pole) and include every pole magnitude: a ``D = 0``
ROM's regularised Hamiltonian shows no crossings, so its dips are found
only by sampling where its response changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PassivityError, ReductionError

__all__ = ["PassivityReport", "hamiltonian_passivity_test",
           "hermitian_part_eigenvalues", "immittance_modal_form",
           "modal_realisation"]


@dataclass
class PassivityReport:
    """Outcome of a passivity test.

    Attributes
    ----------
    is_passive:
        Verdict over the examined frequency range.
    worst_eigenvalue:
        Most negative eigenvalue of the Hermitian part seen (>= 0 when
        passive).
    worst_frequency:
        Frequency (rad/s) at which ``worst_eigenvalue`` occurred.
    crossing_frequencies:
        Candidate boundary-crossing frequencies from the Hamiltonian
        spectrum (empty when none).
    sampled_frequencies:
        Frequencies at which the Hermitian part was evaluated directly.
    notes:
        Free-form remarks (e.g. that the Hamiltonian ``R`` was regularised).
    """

    is_passive: bool
    worst_eigenvalue: float
    worst_frequency: float
    crossing_frequencies: list[float] = field(default_factory=list)
    sampled_frequencies: list[float] = field(default_factory=list)
    notes: str = ""


def hermitian_part_eigenvalues(model, omega: float) -> np.ndarray:
    """Eigenvalues of ``(H(j w) + H(j w)^H) / 2`` for a square immittance model."""
    H = np.asarray(model.transfer_function(1j * omega))
    if H.shape[0] != H.shape[1]:
        raise PassivityError(
            "passivity is only defined for square (immittance) transfer "
            f"matrices, got shape {H.shape}")
    herm = 0.5 * (H + H.conj().T)
    return np.linalg.eigvalsh(herm)


def immittance_modal_form(rom, what: str) -> tuple:
    """The modal form of a square (immittance) ``rom``, for ``what``.

    Raises
    ------
    PassivityError
        If ``rom`` is not square, or has no modal form (a bordered ROM, or
        one whose form failed its check and is served by direct solves).
    """
    if rom.n_outputs != rom.n_ports:
        raise PassivityError(
            f"{what} needs a square (immittance) ROM; got "
            f"{rom.n_outputs} outputs and {rom.n_ports} ports")
    try:
        return rom.modal_form()
    except ReductionError as exc:
        raise PassivityError(f"{what} needs the ROM's modal form: {exc}") \
            from exc


def modal_realisation(rom) -> tuple[np.ndarray, ...]:
    """State-space realisation ``(A, B, C, D)`` of a square ``rom``, read
    off its modal form: ``H(s) = C (sI - A)^{-1} B + D`` with the diagonal
    ``A = diag(1 / mu)``, ``B = diag(1 / mu) XB`` (each block's ``XB``
    scattered to its port columns) and ``C = LX`` over the modes with
    ``mu != 0``; the static modes give ``D = -sum LX_k XB_k``.

    Raises :class:`~repro.exceptions.PassivityError` as
    :func:`immittance_modal_form` does.
    """
    form = immittance_modal_form(rom, "the modal realisation")
    m = rom.n_ports
    D = np.zeros((m, m), dtype=complex)
    poles, B, C = [], [], []
    for block, (mu, LX, XB) in zip(rom.blocks, form):
        XB_ports = np.zeros((mu.size, m), dtype=complex)
        XB_ports[:, slice(None) if block.ports is None else block.ports] = XB
        static = mu == 0
        D -= LX[:, static] @ XB_ports[static]
        inv = 1.0 / mu[~static]
        poles.append(inv)
        B.append(inv[:, np.newaxis] * XB_ports[~static])
        C.append(LX[:, ~static])
    return (np.diag(np.concatenate(poles)), np.vstack(B), np.hstack(C), D)


def hamiltonian_passivity_test(rom, *, n_samples: int = 40,
                               regularization: float = 1e-8,
                               tol: float = -1e-10) -> PassivityReport:
    """Test passivity of a square immittance ROM.

    Parameters
    ----------
    rom:
        A border-free :class:`~repro.mor.base.StructuredROM` with equal
        output and port counts and a modal form.
    n_samples:
        Number of log-spaced sample frequencies (besides DC, the pole
        magnitudes and the Hamiltonian crossing candidates), spanning
        ``[min|p| / 1e3, max|p| * 1e3]`` over the finite poles ``p``.
    regularization:
        Relative ridge added to ``D + D^T`` when it is singular, so the
        Hamiltonian matrix can still be formed.
    tol:
        Eigenvalues of the Hermitian part above this (slightly negative)
        threshold count as passive, absorbing round-off.

    Returns
    -------
    PassivityReport

    Raises
    ------
    PassivityError
        For a non-square ROM or one without a modal form.
    """
    A, B, C, D = modal_realisation(rom)
    notes = []
    R = D + D.conj().T
    scale = max(float(np.linalg.norm(B) * np.linalg.norm(C)), 1.0)
    r_singular = (not np.any(R)) or np.linalg.cond(R) > 1e12
    if r_singular:
        R = R + regularization * scale * np.eye(R.shape[0])
        notes.append(
            f"D + D^T regularised with {regularization:g} * scale ridge")

    crossings: list[float] = []
    try:
        R_inv = np.linalg.inv(R)
        top_left = A - B @ R_inv @ C
        top_right = -B @ R_inv @ B.conj().T
        bottom_left = C.conj().T @ R_inv @ C
        bottom_right = -A.conj().T + C.conj().T @ R_inv @ B.conj().T
        M = np.block([[top_left, top_right], [bottom_left, bottom_right]])
        eigvals = np.linalg.eigvals(M)
        imag_tol = 1e-6 * max(np.max(np.abs(eigvals), initial=0.0), 1.0)
        for lam in eigvals:
            if abs(lam.real) <= imag_tol and lam.imag > imag_tol:
                crossings.append(float(lam.imag))
    except np.linalg.LinAlgError:
        notes.append("Hamiltonian matrix could not be formed; "
                     "falling back to pure frequency sampling")

    # Direct verification: sample the Hermitian part at DC, on a log grid
    # three decades beyond the spectrum on either side, at every pole
    # magnitude (and |Im p| of a complex pole), plus the candidate
    # crossings (and points on either side of them).
    poles = np.diag(A)
    bands = np.concatenate([np.abs(poles), np.abs(poles.imag)])
    bands = bands[bands > 0.0]
    w_min, w_max = ((bands.min() / 1e3, bands.max() * 1e3) if bands.size
                    else (1e-3, 1e3))
    samples = [0.0]
    samples.extend(np.logspace(np.log10(w_min), np.log10(w_max), n_samples))
    samples.extend(bands)
    for crossing in crossings:
        samples.extend([0.5 * crossing, crossing, 1.5 * crossing])
    samples = sorted(set(float(s) for s in samples if s >= 0.0))

    worst_eig = np.inf
    worst_freq = 0.0
    for omega in samples:
        eigs = hermitian_part_eigenvalues(rom, omega)
        low = float(np.min(eigs))
        if low < worst_eig:
            worst_eig = low
            worst_freq = omega

    return PassivityReport(
        is_passive=bool(worst_eig >= tol),
        worst_eigenvalue=float(worst_eig),
        worst_frequency=float(worst_freq),
        crossing_frequencies=sorted(crossings),
        sampled_frequencies=samples,
        notes="; ".join(notes),
    )
