"""Laguerre-grid passivity scan for structured ROMs.

The paper (Sec. III-D) argues that thanks to the block-diagonal structure,
"the passivity test and enforcement can be simplified via Laguerre's method
at the cost of only O(q^2)": once every block is eigen-diagonalised, each
transfer-matrix entry is a sum of simple fractions and evaluating the
Hermitian part on a frequency grid is cheap.

This module implements that scan:

* the grid is built from scaled Gauss-Laguerre quadrature nodes, which cover
  ``[0, inf)`` with exponentially spaced points — a natural choice for the
  Laguerre-basis view the paper refers to.  The scale comes from the ROM's
  own poles: the top node sits at twice the largest ``|p|``, so the band
  of every pole lies inside the grid (a fixed scale can top out below all
  of them and read a non-passive ROM as passive);
* ``H(j omega)`` comes from the ROM's own evaluator, which serves a
  border-free ROM from its modal form (every block eigen-diagonalised
  once, see :class:`~repro.mor.base.StructuredROM`): ``O(q)`` flops per
  transfer entry and frequency (``q = sum of block orders``), so the whole
  scan over a fixed-size grid is ``O(q^2)`` in the worst case (when the
  port count grows with ``q``); a bordered ROM is scanned by direct
  solves;
* the result is a :class:`~repro.passivity.hamiltonian.PassivityReport`
  compatible with the Hamiltonian test's, so enforcement code can consume
  either.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.exceptions import PassivityError, ReductionError
from repro.linalg.sparse_utils import as_dense
from repro.passivity.hamiltonian import PassivityReport

__all__ = ["TOP_NODE_OVER_MAX_POLE", "laguerre_frequency_grid",
           "laguerre_passivity_scan"]

#: Where the scan's top grid node sits, as a multiple of the ROM's largest
#: pole magnitude.  At 2 the ckt1/ckt2/ckt3-smoke BDSM impedance ROMs
#: (l = 4) read -0.459, -0.0836 and -0.0416 (their Hamiltonian worst is
#: -0.513, -0.0836, -0.0415).  A fixed 1 ns scale tops out at 8.1e10
#: rad/s, below all their poles (1.4e12 to 4.4e14 rad/s), and reads all
#: three passive.
TOP_NODE_OVER_MAX_POLE = 2.0


def _max_pole(rom) -> float:
    """Largest finite pole magnitude of ``rom`` (``1.0`` for a static
    ROM).  A ROM without a modal form (a bordered one, or one whose form
    failed its check) gets its poles from the dense assembled pencil."""
    try:
        poles = rom.poles()
    except ReductionError:
        poles = scipy.linalg.eigvals(as_dense(rom.G), as_dense(rom.C))
    magnitudes = np.abs(poles[np.isfinite(poles)])
    magnitudes = magnitudes[magnitudes > 0.0]
    return float(magnitudes.max()) if magnitudes.size else 1.0


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
                            tol: float = -1e-10) -> PassivityReport:
    """Scan a ROM for passivity violations on a Laguerre grid.

    Parameters
    ----------
    rom:
        A :class:`~repro.mor.base.StructuredROM` (a BDSM ROM, or an
        enforced one) whose transfer matrix is square (immittance
        parameters: the observed outputs are the port nodes themselves,
        which is the default for the power-grid benchmarks).
    n_points:
        Number of Laguerre grid frequencies.  The grid is scaled so its
        top node is ``TOP_NODE_OVER_MAX_POLE`` times the largest pole
        magnitude of ``rom``.
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

    nodes = laguerre_frequency_grid(n_points, time_scale=1.0)
    omegas = nodes * (TOP_NODE_OVER_MAX_POLE * _max_pole(rom) / nodes[-1])
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
        notes=f"Laguerre grid scan, {n_points} nodes up to "
              f"{omegas[-1]:.3g} rad/s (from the ROM's poles)",
    )
