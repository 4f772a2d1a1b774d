"""ROM structure reports (the Fig. 4 reproduction).

The paper's Fig. 4 contrasts the matrix structures of ckt1's ROMs: BDSM's
``G_r`` has about 1.9 % non-zeros and its ``B_r`` about 0.3 %, while PRIMA's
matrices are fully dense.  :func:`rom_structure_report` computes those
numbers (plus block-structure metadata) for any ROM produced by this
library so the benchmark can print the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import ValidationError
from repro.linalg.sparse_utils import nnz_density

__all__ = ["RomStructureReport", "rom_structure_report"]


@dataclass
class RomStructureReport:
    """Structure summary of one ROM.

    Attributes
    ----------
    method:
        Reduction method name.
    rom_size:
        Reduced order ``q``.
    densities:
        Mapping matrix name -> fraction of non-zero entries.
    nnz_total:
        Total stored non-zeros over ``C_r``, ``G_r``, ``B_r``.
    block_sizes:
        Diagonal block sizes of a BDSM ROM (empty for any other ROM).
    """

    method: str
    rom_size: int
    densities: dict[str, float]
    nnz_total: int
    block_sizes: list[int] = field(default_factory=list)

    def density_percent(self, matrix: str) -> float:
        """Density of one matrix in percent (paper quotes 1.9 %, 0.3 %)."""
        if matrix not in self.densities:
            raise ValidationError(
                f"no density recorded for matrix {matrix!r}")
        return 100.0 * self.densities[matrix]

    def as_row(self) -> dict[str, object]:
        """Flatten into a report row."""
        row: dict[str, object] = {
            "method": self.method,
            "ROM size": self.rom_size,
            "nnz": self.nnz_total,
        }
        for name, value in sorted(self.densities.items()):
            row[f"{name} density %"] = round(100.0 * value, 3)
        if self.block_sizes:
            row["blocks"] = len(self.block_sizes)
        return row


def rom_structure_report(rom) -> RomStructureReport:
    """Build a :class:`RomStructureReport` for a dense or block-diagonal ROM."""
    densities = {
        "C": nnz_density(rom.C),
        "G": nnz_density(rom.G),
        "B": nnz_density(rom.B),
    }
    block_sizes = ([block.order for block in rom.blocks]
                   if isinstance(rom, BlockDiagonalROM) else [])
    return RomStructureReport(
        method=getattr(rom, "method", type(rom).__name__),
        rom_size=int(rom.size),
        densities=densities,
        nnz_total=int(rom.nnz),
        block_sizes=block_sizes,
    )
