"""Property-based tests (hypothesis) for the analysis substrate.

The key invariant exploited throughout the paper is *linearity*: the power
grid and every ROM of it are LTI systems, so responses superpose and scale.
These properties must hold for the full descriptor model, for the dense
PRIMA ROM and for the block-diagonal BDSM ROM alike — they are what makes
"reduce once, reuse for any excitation" sound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SourceBank, TransientAnalysis
from repro.analysis.sources import (
    ConstantSource,
    PulseSource,
    StepSource,
)
from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid
from repro.core import bdsm_reduce

SETTINGS = settings(max_examples=10, deadline=None)


def _small_system(seed: int):
    spec = PowerGridSpec(rows=4, cols=4, n_ports=3, n_pads=2,
                         package_inductance=0.0, seed=seed,
                         name=f"prop-grid-{seed}")
    return assemble_mna(build_power_grid(spec))


@st.composite
def waveforms(draw):
    kind = draw(st.sampled_from(["constant", "step", "pulse", "ramp"]))
    amplitude = draw(st.floats(min_value=1e-4, max_value=5e-3))
    if kind == "constant":
        return ConstantSource(amplitude)
    if kind == "step":
        return StepSource(amplitude, t0=draw(
            st.floats(min_value=0.0, max_value=5e-10)))
    if kind == "pulse":
        return PulseSource(amplitude, period=1e-9, width=3e-10,
                           rise=1e-10, fall=1e-10)
    return StepSource(amplitude, rise_time=5e-10)


class TestLinearityProperties:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=50), waveforms(),
           st.floats(min_value=0.5, max_value=3.0))
    def test_scaling_of_transient_response(self, seed, waveform, factor):
        """Scaling every input by a factor scales the output by the same."""
        system = _small_system(seed)
        transient = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        base_bank = SourceBank.uniform(system.n_ports, waveform)

        scaled_bank = SourceBank(system.n_ports)
        for port in range(system.n_ports):
            original = base_bank.waveform(port)
            scaled_bank.assign(port, _wrap_scaled(original, factor))

        base = transient.run(system, base_bank)
        scaled = transient.run(system, scaled_bank)
        assert np.allclose(scaled.outputs, factor * base.outputs,
                           rtol=1e-9, atol=1e-15)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=50), waveforms(), waveforms())
    def test_superposition_on_full_model(self, seed, wave_a, wave_b):
        """Response to (a + b) equals response to a plus response to b."""
        system = _small_system(seed)
        transient = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        bank_a = SourceBank(system.n_ports)
        bank_a.assign(0, wave_a)
        bank_b = SourceBank(system.n_ports)
        bank_b.assign(1 % system.n_ports, wave_b)
        bank_sum = SourceBank(system.n_ports)
        bank_sum.assign(0, wave_a)
        if system.n_ports > 1:
            bank_sum.assign(1, wave_b)
        else:
            bank_sum.assign(0, _wrap_sum(wave_a, wave_b))

        resp_a = transient.run(system, bank_a)
        resp_b = transient.run(system, bank_b)
        resp_sum = transient.run(system, bank_sum)
        assert np.allclose(resp_sum.outputs,
                           resp_a.outputs + resp_b.outputs,
                           rtol=1e-9, atol=1e-15)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=50), waveforms())
    def test_rom_inherits_linearity(self, seed, waveform):
        """The BDSM ROM obeys the same scaling law as the full model."""
        system = _small_system(seed)
        rom, _, _ = bdsm_reduce(system, 3)
        transient = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        bank = SourceBank.uniform(system.n_ports, waveform)
        doubled = SourceBank(system.n_ports)
        for port in range(system.n_ports):
            doubled.assign(port, _wrap_scaled(waveform, 2.0))
        base = transient.run(rom, bank)
        twice = transient.run(rom, doubled)
        assert np.allclose(twice.outputs, 2.0 * base.outputs,
                           rtol=1e-9, atol=1e-15)


def _wrap_scaled(waveform, factor):
    """A waveform equal to ``factor * waveform(t)``."""
    from repro.analysis.sources import Waveform

    class _ScaledWaveform(Waveform):
        def __call__(self, t: float) -> float:
            return factor * waveform(t)

    return _ScaledWaveform()


def _wrap_sum(wave_a, wave_b):
    """A waveform equal to ``wave_a(t) + wave_b(t)``."""
    from repro.analysis.sources import Waveform

    class _SumWaveform(Waveform):
        def __call__(self, t: float) -> float:
            return wave_a(t) + wave_b(t)

    return _SumWaveform()
