"""Unit tests for repro.linalg.blockdiag."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.blockdiag import BlockLayout


class TestBlockLayout:
    def test_uniform(self):
        layout = BlockLayout.uniform(4, 3)
        assert layout.n_blocks == 4
        assert layout.total == 12
        assert layout.sizes == (3, 3, 3, 3)

    def test_offsets_and_slices(self):
        layout = BlockLayout((2, 3, 1))
        assert layout.offsets == (0, 2, 5)
        assert layout.block_slice(1) == slice(2, 5)
        assert layout.block_slice(2) == slice(5, 6)

    def test_block_of_index(self):
        layout = BlockLayout((2, 3, 1))
        assert layout.block_of_index(0) == 0
        assert layout.block_of_index(4) == 1
        assert layout.block_of_index(5) == 2

    def test_block_of_index_out_of_range(self):
        layout = BlockLayout((2, 2))
        with pytest.raises(IndexError):
            layout.block_of_index(4)

    def test_from_blocks(self):
        layout = BlockLayout.from_blocks([np.eye(2), np.eye(4)])
        assert layout.sizes == (2, 4)

    def test_from_blocks_rejects_non_square(self):
        with pytest.raises(ValidationError):
            BlockLayout.from_blocks([np.ones((2, 3))])

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValidationError):
            BlockLayout((2, 0))

    def test_slice_out_of_range(self):
        with pytest.raises(IndexError):
            BlockLayout((2,)).block_slice(1)

    def test_iter(self):
        assert list(BlockLayout((1, 2, 3))) == [1, 2, 3]
