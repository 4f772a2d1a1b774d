"""Passivity verification and enforcement for reduced models (paper Sec. III-D).

BDSM's congruence transform does not guarantee passivity of the reduced
immittance model, so the paper sketches a post-processing pipeline that the
block-diagonal structure makes cheap.  Every step reads the one ROM type,
:class:`~repro.mor.base.StructuredROM`, and its modal form:

1.  diagonalise each size-``l`` block (``O(l^3)`` per block) — done once
    per ROM by :mod:`repro.mor.modal` and read through
    :meth:`~repro.mor.base.StructuredROM.modal_form`;
2.  test passivity, either with the generalized-Hamiltonian eigenvalue test
    (references [18]/[19]) on the realisation the modal form gives —
    :mod:`repro.passivity.hamiltonian` — or with a cheap Laguerre-grid
    scan of the ROM's own evaluator (reference [17]) —
    :mod:`repro.passivity.laguerre`;
3.  if violations are found, shift the feedthrough: the repaired model is
    the same ROM plus one static block — :mod:`repro.passivity.enforcement`.
"""

from repro.passivity.enforcement import enforce_passivity
from repro.passivity.hamiltonian import (
    PassivityReport,
    hamiltonian_passivity_test,
    modal_realisation,
)
from repro.passivity.laguerre import laguerre_passivity_scan

__all__ = [
    "PassivityReport",
    "enforce_passivity",
    "hamiltonian_passivity_test",
    "laguerre_passivity_scan",
    "modal_realisation",
]
