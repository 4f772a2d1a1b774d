"""Transient simulation of block-diagonal ROMs.

The paper's ``O(m l^3)`` simulation claim (Sec. III-B) needs no dedicated
integrator.  A BDSM ROM's reduced blocks are decoupled except through the
shared input vector, so the assembled pencil ``C_r/h - G_r`` is block
diagonal and the sparse LU of
:class:`~repro.analysis.transient.TransientAnalysis` keeps its factors
inside the blocks: one ``O(m l^3)`` factorisation, then ``O(m l^2)`` work
per step — versus ``O((m l)^2)`` per step for a dense ROM of the same
order.  That one integrator is the structure-exploiting path, and
:func:`simulate_blockwise` is its BDSM-typed entry point.
"""

from __future__ import annotations

from repro.analysis.sources import SourceBank
from repro.analysis.transient import TransientAnalysis, TransientResult
from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import SimulationError

__all__ = ["simulate_blockwise"]


def simulate_blockwise(rom: BlockDiagonalROM, sources: SourceBank, *,
                       t_stop: float, dt: float,
                       method: str = "backward_euler") -> TransientResult:
    """Fixed-step transient of a BDSM ROM (zero initial state); the same
    result as ``TransientAnalysis(t_stop=, dt=, method=).run(rom, sources)``."""
    if not isinstance(rom, BlockDiagonalROM):
        raise SimulationError(
            "simulate_blockwise only accepts a BlockDiagonalROM; use "
            "TransientAnalysis for other systems")
    return TransientAnalysis(t_stop=t_stop, dt=dt,
                             method=method).run(rom, sources)
