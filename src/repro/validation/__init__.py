"""Validation helpers: error metrics, moment checks, sparsity reports.

These are the measuring instruments for EXPERIMENTS.md: relative-error
curves (Fig. 5b), moment-matching verification (the ``l``-moment claims of
both PRIMA and BDSM), and ROM structure statistics (Fig. 4).
"""

from repro.validation.error_metrics import (
    max_relative_error,
    relative_error_curve,
    rom_agreement_report,
)
from repro.validation.moment_check import (
    MomentCheckResult,
    count_matched_moments,
    verify_moment_matching,
)
from repro.validation.sparsity import RomStructureReport, rom_structure_report

__all__ = [
    "MomentCheckResult",
    "RomStructureReport",
    "count_matched_moments",
    "max_relative_error",
    "relative_error_curve",
    "rom_agreement_report",
    "rom_structure_report",
    "verify_moment_matching",
]
