"""The block-diagonal structured reduced-order model (paper Eq. 14).

A BDSM ROM consists of ``m`` independent blocks, one per input port:

* ``C_ir = V(i)^T C V(i)`` and ``G_ir = V(i)^T G V(i)`` — small ``l x l``
  matrices forming the diagonal blocks of ``C_r`` / ``G_r``;
* ``b_ir = V(i)^T b_i`` — a length-``l`` vector sitting in column ``i`` of
  the otherwise-zero block-row ``i`` of ``B_r``;
* ``L_ir = L V(i)`` — the ``p x l`` slice of ``L_r``.

:class:`BlockDiagonalROM` is the :class:`~repro.mor.base.StructuredROM`
whose block ``i`` is driven by port ``i`` alone: the shared evaluator then
solves one ``l x l`` block per column (all blocks of equal order in one
stacked solve), which is where the ``O(m l^3)`` vs ``O(m^3 l^3)``
simulation advantage comes from.
"""

from __future__ import annotations

import numpy as np

from repro.mor.base import ROMBlock, StructuredROM

__all__ = ["ROMBlock", "BlockDiagonalROM"]


class BlockDiagonalROM(StructuredROM):
    """Block-diagonal structured ROM produced by BDSM (paper Eq. 14).

    Parameters
    ----------
    blocks:
        One :class:`~repro.mor.base.ROMBlock` per input port, in port
        order (block ``i`` is driven by port ``i``).
    n_outputs:
        Number of outputs ``p`` (checked against every block's ``L``).
    s0:
        Expansion point(s) used during reduction.
    n_moments:
        Moments matched per column.
    original_size, original_ports:
        Dimensions of the full model.
    name:
        Label used in reports.
    """

    def __init__(self, blocks: list[ROMBlock], *, n_outputs: int,
                 s0: complex | list[complex] = 0.0, n_moments: int = 0,
                 original_size: int = 0, original_ports: int = 0,
                 name: str = "bdsm-rom") -> None:
        for pos, block in enumerate(blocks):
            if block.ports is None:
                block.ports = np.array([pos], dtype=np.int64)
        super().__init__(blocks, n_ports=len(blocks), n_outputs=n_outputs,
                         method="BDSM", s0=s0, n_moments=n_moments,
                         original_size=original_size,
                         original_ports=original_ports, name=name)
