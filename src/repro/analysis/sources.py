"""Input waveforms for transient simulation.

A power-grid ROM is excited by the currents drawn by transistor blocks.
The paper stresses that BDSM ROMs are *reusable* under different excitations,
whereas EKS ROMs are tied to the waveform assumed during reduction — so the
reproduction needs a small waveform library to switch excitations around.

All waveforms are callables ``w(t) -> float`` for scalar ``t`` and expose a
vectorised :meth:`Waveform.sample` for time grids.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "Waveform",
    "ConstantSource",
    "StepSource",
    "PulseSource",
    "SourceBank",
]


class Waveform:
    """Base class of all scalar input waveforms."""

    def __call__(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate the waveform on a time grid."""
        times = np.asarray(times, dtype=float)
        return np.array([self(float(t)) for t in times])


class ConstantSource(Waveform):
    """Constant (DC) waveform ``w(t) = value``."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __call__(self, t: float) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantSource({self.value})"


class StepSource(Waveform):
    """Step from 0 to ``amplitude`` at ``t0`` with optional linear rise time."""

    def __init__(self, amplitude: float, t0: float = 0.0,
                 rise_time: float = 0.0) -> None:
        if rise_time < 0.0:
            raise SimulationError("rise_time must be non-negative")
        self.amplitude = float(amplitude)
        self.t0 = float(t0)
        self.rise_time = float(rise_time)

    def __call__(self, t: float) -> float:
        if t < self.t0:
            return 0.0
        if self.rise_time == 0.0 or t >= self.t0 + self.rise_time:
            return self.amplitude
        return self.amplitude * (t - self.t0) / self.rise_time


class PulseSource(Waveform):
    """Periodic trapezoidal pulse (SPICE ``PULSE`` semantics, zero baseline).

    Parameters
    ----------
    amplitude:
        Peak value.
    period:
        Repetition period.
    width:
        Flat-top duration.
    rise, fall:
        Edge durations.
    delay:
        Time before the first pulse starts.
    """

    def __init__(self, amplitude: float, period: float, width: float,
                 rise: float = 0.0, fall: float = 0.0,
                 delay: float = 0.0) -> None:
        if period <= 0.0:
            raise SimulationError("pulse period must be positive")
        if width < 0.0 or rise < 0.0 or fall < 0.0:
            raise SimulationError("pulse width/rise/fall must be non-negative")
        if rise + width + fall > period:
            raise SimulationError(
                "rise + width + fall must not exceed the period")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.width = float(width)
        self.rise = float(rise)
        self.fall = float(fall)
        self.delay = float(delay)

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return 0.0
        phase = (t - self.delay) % self.period
        if self.rise > 0.0 and phase < self.rise:
            return self.amplitude * phase / self.rise
        phase -= self.rise
        if phase < self.width:
            return self.amplitude
        phase -= self.width
        if self.fall > 0.0 and phase < self.fall:
            return self.amplitude * (1.0 - phase / self.fall)
        return 0.0


class SourceBank:
    """Maps each input port of a system to a waveform.

    Parameters
    ----------
    n_ports:
        Number of input ports of the system being driven.
    default:
        Waveform used for ports without an explicit assignment
        (defaults to zero input).
    """

    def __init__(self, n_ports: int,
                 default: Waveform | None = None) -> None:
        if n_ports < 1:
            raise SimulationError("SourceBank needs at least one port")
        self.n_ports = int(n_ports)
        self._default = default or ConstantSource(0.0)
        self._sources: dict[int, Waveform] = {}

    def assign(self, port: int, waveform: Waveform) -> None:
        """Attach ``waveform`` to input port ``port``."""
        if not 0 <= port < self.n_ports:
            raise SimulationError(
                f"port index {port} out of range (n_ports={self.n_ports})")
        if not isinstance(waveform, Waveform):
            raise SimulationError("waveform must be a Waveform instance")
        self._sources[port] = waveform

    def assign_all(self, waveform: Waveform) -> None:
        """Attach the same waveform to every port."""
        for port in range(self.n_ports):
            self.assign(port, waveform)

    def waveform(self, port: int) -> Waveform:
        """Return the waveform attached to ``port`` (or the default)."""
        return self._sources.get(port, self._default)

    def __call__(self, t: float) -> np.ndarray:
        """Evaluate the full input vector ``u(t)``."""
        return np.array([self.waveform(port)(t)
                         for port in range(self.n_ports)])

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate the input matrix ``U`` of shape ``(n_ports, len(times))``."""
        times = np.asarray(times, dtype=float)
        return np.column_stack([self(float(t)) for t in times])

    @classmethod
    def uniform(cls, n_ports: int, waveform: Waveform) -> "SourceBank":
        """Bank where every port carries the same waveform."""
        bank = cls(n_ports)
        bank.assign_all(waveform)
        return bank
