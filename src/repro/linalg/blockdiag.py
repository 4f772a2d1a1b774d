"""Block-diagonal matrix bookkeeping.

BDSM's reduced matrices ``C_r`` and ``G_r`` are block-diagonal with one
``l x l`` block per input port (paper Eq. 14).  This module provides the
layout object that records where each block lives (see
``BlockDiagonalROM.layout``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["BlockLayout"]


@dataclass(frozen=True)
class BlockLayout:
    """Row/column partition of a block-diagonal matrix.

    Attributes
    ----------
    sizes:
        Size of each diagonal block, in order.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.sizes):
            raise ValidationError("block sizes must be positive")

    @classmethod
    def uniform(cls, n_blocks: int, block_size: int) -> "BlockLayout":
        """Layout with ``n_blocks`` equal blocks of ``block_size``."""
        if n_blocks <= 0 or block_size <= 0:
            raise ValidationError("n_blocks and block_size must be positive")
        return cls(tuple([block_size] * n_blocks))

    @classmethod
    def from_blocks(cls, blocks: Sequence[np.ndarray]) -> "BlockLayout":
        """Layout inferred from a sequence of square blocks."""
        sizes = []
        for i, block in enumerate(blocks):
            arr = np.asarray(block)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError(
                    f"block {i} is not square (shape {arr.shape})"
                )
            sizes.append(arr.shape[0])
        return cls(tuple(sizes))

    @property
    def n_blocks(self) -> int:
        """Number of diagonal blocks."""
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total matrix dimension (sum of block sizes)."""
        return int(sum(self.sizes))

    @property
    def offsets(self) -> tuple[int, ...]:
        """Starting row/column index of each block."""
        offsets = [0]
        for size in self.sizes[:-1]:
            offsets.append(offsets[-1] + size)
        return tuple(offsets)

    def block_slice(self, index: int) -> slice:
        """Slice of the global index range covered by block ``index``."""
        if not 0 <= index < self.n_blocks:
            raise IndexError(
                f"block index {index} out of range (n_blocks={self.n_blocks})"
            )
        start = self.offsets[index]
        return slice(start, start + self.sizes[index])

    def block_of_index(self, global_index: int) -> int:
        """Return which block a global row/column index belongs to."""
        if not 0 <= global_index < self.total:
            raise IndexError(
                f"index {global_index} out of range (total={self.total})"
            )
        for block, (start, size) in enumerate(zip(self.offsets, self.sizes)):
            if start <= global_index < start + size:
                return block
        raise AssertionError("unreachable")  # pragma: no cover

    def __iter__(self):
        return iter(self.sizes)
