"""Simulation substrate: frequency sweeps, transient integration, IR drop.

These analyses operate uniformly on the full MNA model, a dense
PRIMA/SVDMOR/EKS ROM, or a BDSM
:class:`~repro.core.structured_rom.BlockDiagonalROM` — transient and IR-drop
analyses read the descriptor quadruple ``(C, G, B, L)``, frequency sweeps
call the model's own ``transfer_function`` / ``transfer_entry`` — so the
benchmark harness can compare "simulate the full model" against "simulate
the ROM" without special cases.
"""

from repro.analysis.engine import AdaptiveSweepResult, SweepEngine
from repro.analysis.frequency import FrequencyAnalysis, FrequencySweepResult
from repro.analysis.ir_drop import (
    IRDropResult,
    dynamic_ir_drop,
    ir_drop_analysis,
    ir_drop_batch,
)
from repro.analysis.sources import (
    ConstantSource,
    PulseSource,
    SourceBank,
    StepSource,
    Waveform,
)
from repro.analysis.transient import TransientAnalysis, TransientResult

__all__ = [
    "AdaptiveSweepResult",
    "ConstantSource",
    "FrequencyAnalysis",
    "FrequencySweepResult",
    "IRDropResult",
    "PulseSource",
    "SourceBank",
    "StepSource",
    "SweepEngine",
    "TransientAnalysis",
    "TransientResult",
    "Waveform",
    "dynamic_ir_drop",
    "ir_drop_analysis",
    "ir_drop_batch",
]
