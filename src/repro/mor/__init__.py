"""Model-order-reduction baselines the paper compares BDSM against.

Contents
--------
``base``
    Common :class:`ReducedSystem` container, the :class:`ResourceBudget`
    guard reproducing the "break down" entries of Table II, and the
    :class:`ReductionSummary` record used by the benchmark harness.
``prima``
    PRIMA: block-Arnoldi congruence projection (Odabasioglu et al.) at one
    or more expansion points — the multi-point (rational Krylov) extension
    the paper mentions for wide-band inputs, with single-point PRIMA its
    one-point case.
``svdmor``
    SVDMOR: SVD-based terminal reduction followed by PRIMA on the thin
    system (Feldmann).
``eks``
    EKS: extended-Krylov-subspace style input-dependent reduction
    (Wang & Nguyen) — fast but not reusable under new excitations.
``btrunc``
    Poor Man's TBR sampling-based balanced truncation (Phillips & Silveira),
    the paper's reference [7], usable on small systems as an accuracy anchor.
"""

from repro.mor.base import (
    ReducedSystem,
    ReductionSummary,
    ResourceBudget,
)
from repro.mor.btrunc import pmtbr_reduce
from repro.mor.eks import eks_reduce
from repro.mor.prima import (
    multipoint_prima_reduce,
    prima_reduce,
    prima_store_options,
)
from repro.mor.svdmor import svdmor_reduce

__all__ = [
    "ReducedSystem",
    "ReductionSummary",
    "ResourceBudget",
    "eks_reduce",
    "multipoint_prima_reduce",
    "pmtbr_reduce",
    "prima_reduce",
    "prima_store_options",
    "svdmor_reduce",
]
