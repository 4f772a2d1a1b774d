"""First-order passivity enforcement by feedthrough perturbation.

When a reduced immittance model shows (weak) non-passivity — the paper notes
this "seldom occurs" for BDSM ROMs but must be handled before system-level
simulation — the cheapest repair consistent with the paper's "fast passivity
enforcement" pointer is a feedthrough (D-term) perturbation: the Hermitian
part of ``H(j omega) + Delta`` is that of ``H`` shifted by the Hermitian
part of ``Delta``, so adding ``delta * I`` with
``delta >= -min_omega lambda_min(Herm(H(j omega)))`` lifts every sampled
violation at zero dynamic cost (the perturbation is frequency-independent
and does not move any pole).

The repaired model is a :class:`~repro.mor.base.StructuredROM` itself: the
input's blocks, unchanged, plus one static feedthrough block
``(C, G, B, L) = (0, -I_m, delta I_m, I_m)``, whose response
``I (s 0 + I)^{-1} delta I = delta I`` is the shift at every ``s``.  Its
modal form has ``mu = 0`` (a pole at infinity), so the one evaluator,
artifact codec, server and transient simulator handle it unchanged.

The perturbation magnitude equals the worst violation, so for the weak
violations the paper talks about the accuracy impact is of the same
(small) order.  The verification report only saw its sampled
frequencies, so the repaired model is re-tested (where its feedthrough
gives the Hamiltonian real crossings) and the shift raised by whatever
violation the re-test still finds, for at most
:data:`MAX_ENFORCEMENT_PASSES` passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PassivityError
from repro.mor.base import ROMBlock, StructuredROM
from repro.passivity.hamiltonian import (
    PassivityReport,
    hamiltonian_passivity_test,
    immittance_modal_form,
)

__all__ = ["EnforcementResult", "enforce_passivity"]

#: Re-tests of the repaired model before enforcement gives up.
MAX_ENFORCEMENT_PASSES = 4


@dataclass
class EnforcementResult:
    """Result of a passivity-enforcement pass.

    Attributes
    ----------
    model:
        The input ROM when it was already passive, else the repaired
        :class:`~repro.mor.base.StructuredROM` (the input's blocks plus the
        static feedthrough block).
    perturbation:
        The scalar feedthrough shift that was applied (0 when the input was
        already passive).
    was_passive:
        Whether the input model was already passive.
    """

    model: StructuredROM
    perturbation: float
    was_passive: bool


def enforce_passivity(rom: StructuredROM, report: PassivityReport, *,
                      margin: float = 1e-12) -> EnforcementResult:
    """Enforce passivity of ``rom`` given a verification ``report``.

    Parameters
    ----------
    rom:
        Square immittance ROM with a modal form (border-free).
    report:
        Output of :func:`~repro.passivity.hamiltonian.hamiltonian_passivity_test`
        or :func:`~repro.passivity.laguerre.laguerre_passivity_scan` run on
        the same ROM.
    margin:
        Extra positive shift added on top of the measured worst violation so
        the repaired model is strictly passive on the sampled grid.

    Returns
    -------
    EnforcementResult
        Its model passes :func:`hamiltonian_passivity_test`.

    Raises
    ------
    PassivityError
        For a non-square ROM or one without a modal form, or when the
        repaired model still fails its re-test after
        :data:`MAX_ENFORCEMENT_PASSES` passes.
    """
    immittance_modal_form(rom, "passivity enforcement")
    if report.is_passive:
        return EnforcementResult(model=rom, perturbation=0.0,
                                 was_passive=True)
    delta = float(-report.worst_eigenvalue) + margin
    if delta <= 0.0:
        raise PassivityError(
            "report claims non-passivity but records a non-negative worst "
            "eigenvalue; refusing to perturb")
    for _ in range(MAX_ENFORCEMENT_PASSES):
        repaired = _with_feedthrough(rom, delta)
        check = hamiltonian_passivity_test(repaired)
        if check.is_passive:
            return EnforcementResult(model=repaired, perturbation=delta,
                                     was_passive=False)
        delta += float(-check.worst_eigenvalue) + margin
    raise PassivityError(
        f"the repaired ROM still fails its passivity re-test after "
        f"{MAX_ENFORCEMENT_PASSES} passes (shift {delta:.3e})")


def _with_feedthrough(rom: StructuredROM, delta: float) -> StructuredROM:
    """``rom`` plus the static block whose response is ``delta * I``."""
    m = rom.n_ports
    feedthrough = ROMBlock(rom.n_blocks, np.zeros((m, m)), -np.eye(m),
                           delta * np.eye(m), np.eye(m))
    return StructuredROM(
        rom.blocks + [feedthrough], n_ports=m, n_outputs=m,
        method=rom.method, s0=rom.s0, n_moments=rom.n_moments,
        reusable=rom.reusable, original_size=rom.original_size,
        original_ports=rom.original_ports, name=rom.name,
        output_names=rom.output_names)
