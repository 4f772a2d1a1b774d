"""Unit tests for repro.analysis.sources."""

import numpy as np
import pytest

from repro.analysis.sources import (
    ConstantSource,
    PulseSource,
    SourceBank,
    StepSource,
)
from repro.exceptions import SimulationError


class TestConstantAndStep:
    def test_constant(self):
        w = ConstantSource(2.5)
        assert w(0.0) == 2.5
        assert w(1e9) == 2.5

    def test_step_without_rise(self):
        w = StepSource(1.0, t0=1e-9)
        assert w(0.0) == 0.0
        assert w(1e-9) == 1.0
        assert w(2e-9) == 1.0

    def test_step_with_rise(self):
        w = StepSource(2.0, t0=0.0, rise_time=1e-9)
        assert w(0.5e-9) == pytest.approx(1.0)
        assert w(2e-9) == 2.0

    def test_negative_rise_rejected(self):
        with pytest.raises(SimulationError):
            StepSource(1.0, rise_time=-1.0)

    def test_sample_vectorised(self):
        w = StepSource(1.0, t0=1.0)
        values = w.sample(np.array([0.0, 0.5, 1.0, 2.0]))
        assert np.allclose(values, [0.0, 0.0, 1.0, 1.0])


class TestPulse:
    def test_trapezoid_shape(self):
        w = PulseSource(amplitude=1.0, period=10.0, width=4.0,
                        rise=1.0, fall=1.0, delay=0.0)
        assert w(0.5) == pytest.approx(0.5)    # rising edge
        assert w(3.0) == 1.0                   # flat top
        assert w(5.5) == pytest.approx(0.5)    # falling edge
        assert w(8.0) == 0.0                   # off
        assert w(13.0) == 1.0                  # next period, flat top

    def test_delay(self):
        w = PulseSource(amplitude=1.0, period=5.0, width=1.0, delay=2.0)
        assert w(1.0) == 0.0
        assert w(2.5) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            PulseSource(1.0, period=0.0, width=1.0)
        with pytest.raises(SimulationError):
            PulseSource(1.0, period=2.0, width=1.0, rise=1.0, fall=1.0)


class TestSourceBank:
    def test_default_is_zero(self):
        bank = SourceBank(3)
        assert np.allclose(bank(1.0), 0.0)

    def test_assign_and_evaluate(self):
        bank = SourceBank(3)
        bank.assign(1, ConstantSource(2.0))
        assert np.allclose(bank(0.0), [0.0, 2.0, 0.0])

    def test_uniform(self):
        bank = SourceBank.uniform(4, ConstantSource(1.5))
        assert np.allclose(bank(0.0), 1.5)

    def test_sample_shape(self):
        bank = SourceBank.uniform(2, StepSource(1.0, t0=1.0))
        U = bank.sample(np.array([0.0, 1.0, 2.0]))
        assert U.shape == (2, 3)
        assert np.allclose(U[:, 0], 0.0)
        assert np.allclose(U[:, 2], 1.0)

    def test_out_of_range_port(self):
        bank = SourceBank(2)
        with pytest.raises(SimulationError):
            bank.assign(5, ConstantSource(1.0))

    def test_non_waveform_rejected(self):
        bank = SourceBank(2)
        with pytest.raises(SimulationError):
            bank.assign(0, lambda t: 1.0)  # type: ignore[arg-type]

    def test_needs_positive_ports(self):
        with pytest.raises(SimulationError):
            SourceBank(0)
