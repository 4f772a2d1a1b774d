"""Laguerre-grid passivity scan for block-diagonal ROMs.

The paper (Sec. III-D) argues that thanks to the block-diagonal structure,
"the passivity test and enforcement can be simplified via Laguerre's method
at the cost of only O(q^2)": once every block is eigen-diagonalised, each
transfer-matrix entry is a sum of simple fractions and evaluating the
Hermitian part on a frequency grid is cheap.

This module implements that scan:

* the grid is built from scaled Gauss-Laguerre quadrature nodes, which cover
  ``[0, inf)`` with exponentially spaced points — a natural choice for the
  Laguerre-basis view the paper refers to;
* ``H(j omega)`` comes from the ROM's own evaluator, which serves a
  border-free ROM from its modal form (every block eigen-diagonalised
  once, see :class:`~repro.mor.base.StructuredROM`): ``O(q)`` flops per
  transfer entry and frequency (``q = sum of block orders``), so the whole
  scan over a fixed-size grid is ``O(q^2)`` in the worst case (when the
  port count grows with ``q``);
* the result is a :class:`~repro.passivity.hamiltonian.PassivityReport`
  compatible with the Hamiltonian test's, so enforcement code can consume
  either.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PassivityError
from repro.passivity.hamiltonian import PassivityReport

__all__ = ["laguerre_frequency_grid", "laguerre_passivity_scan"]


def laguerre_frequency_grid(n_points: int, time_scale: float = 1e-9,
                            ) -> np.ndarray:
    """Angular-frequency grid from scaled Gauss-Laguerre nodes.

    Parameters
    ----------
    n_points:
        Number of grid points.
    time_scale:
        Characteristic time constant of the network (seconds); the Laguerre
        nodes ``x_k`` are mapped to ``omega_k = x_k / time_scale`` so the
        grid brackets the band where an RC/RLC grid with that time constant
        has its dynamics.
    """
    if n_points < 1:
        raise PassivityError("n_points must be >= 1")
    if time_scale <= 0.0:
        raise PassivityError("time_scale must be positive")
    nodes, _weights = np.polynomial.laguerre.laggauss(n_points)
    return np.sort(nodes) / time_scale


def laguerre_passivity_scan(rom, *, n_points: int = 24,
                            time_scale: float = 1e-9,
                            tol: float = -1e-10) -> PassivityReport:
    """Scan a block-diagonal ROM for passivity violations on a Laguerre grid.

    Parameters
    ----------
    rom:
        A ROM (typically a
        :class:`~repro.core.structured_rom.BlockDiagonalROM`) whose transfer
        matrix is square (immittance parameters: the observed outputs are the
        port nodes themselves, which is the default for the power-grid
        benchmarks).
    n_points:
        Number of Laguerre grid frequencies.
    time_scale:
        Characteristic RC time constant used to scale the grid.
    tol:
        Eigenvalues of the Hermitian part above this threshold count as
        passive.

    Returns
    -------
    PassivityReport
    """
    if rom.n_outputs != rom.n_ports:
        raise PassivityError(
            "Laguerre passivity scan needs a square (immittance) ROM; got "
            f"{rom.n_outputs} outputs and {rom.n_ports} ports")

    omegas = laguerre_frequency_grid(n_points, time_scale)
    worst_eig = np.inf
    worst_freq = float(omegas[0])
    for omega in omegas:
        H = rom.transfer_function(1j * float(omega))
        herm = 0.5 * (H + H.conj().T)
        low = float(np.min(np.linalg.eigvalsh(herm)))
        if low < worst_eig:
            worst_eig = low
            worst_freq = float(omega)

    return PassivityReport(
        is_passive=bool(worst_eig >= tol),
        worst_eigenvalue=float(worst_eig),
        worst_frequency=worst_freq,
        crossing_frequencies=[],
        sampled_frequencies=[float(w) for w in omegas],
        notes=f"Laguerre grid scan, {n_points} nodes, "
              f"time_scale={time_scale:g}s",
    )
