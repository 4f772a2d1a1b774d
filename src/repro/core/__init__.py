"""The paper's contribution: block-diagonal structured MOR (BDSM).

Contents
--------
``splitting``
    Input-matrix splitting (paper Eq. 6-8): ``B = sum_i B_i`` and the
    equivalent parallel composition of split systems.
``structured_rom``
    :class:`BlockDiagonalROM` — the sparse, block-diagonal reduced model of
    Eq. (14), with block-wise transfer-function evaluation and the same
    analysis interface as the full descriptor system.
``bdsm``
    :func:`multipoint_bdsm_reduce` — Algorithm 1 of the paper at one or
    more expansion points (the multi-point extension the paper mentions
    for wide-band excitations), with chunked, optionally fanned-out port
    processing so memory stays bounded on many-port grids — and
    :func:`bdsm_reduce`, its one-point case.
``cost_model``
    Closed-form cost expressions of Sec. III-B (orthonormalisation counts,
    ROM non-zeros, simulation flops) used by the ablation benchmarks.
"""

from repro.core.bdsm import (
    BDSMOptions,
    bdsm_reduce,
    bdsm_store_options,
    multipoint_bdsm_reduce,
)
from repro.core.cost_model import (
    CostComparison,
    orthonormalization_inner_products,
    rom_nonzeros,
    simulation_flops,
    sweep_cost_model,
)
from repro.core.splitting import (
    parallel_composition,
    split_input_matrix,
    split_system,
)
from repro.core.structured_rom import BlockDiagonalROM

__all__ = [
    "BDSMOptions",
    "BlockDiagonalROM",
    "CostComparison",
    "bdsm_reduce",
    "bdsm_store_options",
    "multipoint_bdsm_reduce",
    "orthonormalization_inner_products",
    "parallel_composition",
    "rom_nonzeros",
    "simulation_flops",
    "split_input_matrix",
    "split_system",
    "sweep_cost_model",
]
