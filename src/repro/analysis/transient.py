"""Transient (time-domain) simulation of descriptor systems and ROMs.

Implements the standard fixed-step one-step integrators used by power-grid
simulators:

* backward Euler:      ``(C/h - G) x_{k+1} = (C/h) x_k + B u_{k+1}``
* trapezoidal rule:    ``(2C/h - G) x_{k+1} = (2C/h + G) x_k + B (u_k + u_{k+1})``

Both only require a single factorisation of the (shifted) pencil because the
step size is fixed, which is also why a *sparse block-diagonal* ROM is so
much cheaper to simulate than a dense one — the claim quantified in the
paper's Sec. III-B (``O(m l^3)`` vs ``O(m^3 l^3)`` per factorisation).

The integrator is format-agnostic: it works on the full sparse MNA system,
on dense reduced systems and on block-diagonal ROMs.  The stepping pencil
is factored by :func:`repro.linalg.backends.get_solver` (dense LAPACK for
small ROMs, SuperLU above) and re-simulations reuse the cached
factorisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.sources import SourceBank
from repro.exceptions import SimulationError
from repro.linalg.backends import get_solver
from repro.linalg.sparse_utils import to_csc, to_csr

__all__ = ["TransientAnalysis", "TransientResult"]


@dataclass
class TransientResult:
    """Time-domain simulation output.

    Attributes
    ----------
    times:
        Simulation time grid (length ``N``).
    outputs:
        Output samples ``y(t_k)``, shape ``(p, N)``.
    states:
        State samples ``x(t_k)``, shape ``(n, N)`` — only stored when
        requested (it can be large for the full model).
    label:
        Name of the simulated system.
    method:
        Integration method used.
    """

    times: np.ndarray
    outputs: np.ndarray
    states: np.ndarray | None = None
    label: str = ""
    method: str = "backward_euler"

    @property
    def n_steps(self) -> int:
        """Number of time points."""
        return int(self.times.shape[0])

    def output(self, index: int) -> np.ndarray:
        """Time series of a single output."""
        return self.outputs[index, :]

    def max_abs_error_to(self, reference: "TransientResult") -> float:
        """Maximum absolute output deviation against a reference run."""
        if self.outputs.shape != reference.outputs.shape:
            raise SimulationError(
                "cannot compare transient results with different shapes "
                f"{self.outputs.shape} vs {reference.outputs.shape}")
        return float(np.max(np.abs(self.outputs - reference.outputs)))

    def rms_error_to(self, reference: "TransientResult") -> float:
        """Root-mean-square output deviation against a reference run."""
        if self.outputs.shape != reference.outputs.shape:
            raise SimulationError(
                "cannot compare transient results with different shapes "
                f"{self.outputs.shape} vs {reference.outputs.shape}")
        diff = self.outputs - reference.outputs
        return float(np.sqrt(np.mean(diff ** 2)))


@dataclass
class TransientAnalysis:
    """Fixed-step transient simulation driver.

    Parameters
    ----------
    t_stop:
        Final simulation time (seconds).
    dt:
        Fixed step size.
    method:
        ``"backward_euler"`` (robust default) or ``"trapezoidal"``
        (second-order accurate).
    store_states:
        Keep the full state trajectory in the result.

    Notes
    -----
    The stepping pencil ``(C/h - G)`` is factored through the process-wide
    cache, so a re-simulation of the same system with the same step size
    reuses the factorisation — this is what makes repeated what-if
    transient runs cheap.
    """

    t_stop: float
    dt: float
    method: str = "backward_euler"
    store_states: bool = False

    _METHODS = ("backward_euler", "trapezoidal")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_stop) and math.isfinite(self.dt)):
            raise SimulationError(
                f"t_stop and dt must be finite, got t_stop={self.t_stop}, "
                f"dt={self.dt}")
        if self.t_stop <= 0.0:
            raise SimulationError("t_stop must be positive")
        if self.dt <= 0.0 or self.dt > self.t_stop:
            raise SimulationError("dt must satisfy 0 < dt <= t_stop")
        if self.method not in self._METHODS:
            raise SimulationError(
                f"unknown method {self.method!r}; choose from {self._METHODS}")

    @property
    def times(self) -> np.ndarray:
        """The fixed time grid ``0, dt, 2 dt, ..., <= t_stop``."""
        n_steps = int(np.floor(self.t_stop / self.dt + 1e-12)) + 1
        return np.arange(n_steps) * self.dt

    def run(self, system, sources: SourceBank, *,
            x0: np.ndarray | None = None,
            label: str | None = None) -> TransientResult:
        """Simulate ``system`` driven by ``sources`` from ``x0`` (default 0).

        Parameters
        ----------
        system:
            Any object exposing sparse-compatible ``C, G, B, L`` matrices
            in the paper's convention ``C dx/dt = G x + B u``.
        sources:
            A :class:`~repro.analysis.sources.SourceBank` with one waveform
            per input port.
        x0:
            Optional initial state (length ``n``).
        label:
            Name recorded in the result (defaults to ``system.name``).
        """
        return self.run_batch(system, [sources], x0s=[x0],
                              labels=[label])[0]

    def run_batch(self, system, source_banks, *,
                  x0s: list[np.ndarray | None] | None = None,
                  labels: list[str | None] | None = None,
                  ) -> list[TransientResult]:
        """Simulate several source scenarios of one system in a batch.

        Independent scenarios (process corners, per-block load patterns,
        what-if source banks) share the stepping pencil ``(C/h - G)``, so
        the batch carries one ``(n, K)`` state block for all ``K``
        scenarios and performs a single multi-RHS triangular solve per
        time step — one factorisation, one block solve per step, regardless
        of ``K``.  The block kernels reassociate the sparse products, so
        outputs agree with per-scenario :meth:`run` calls to machine
        precision (last-ULP differences) rather than bit-for-bit.

        Parameters
        ----------
        system:
            Any object exposing sparse-compatible ``C, G, B, L`` matrices.
        source_banks:
            One :class:`~repro.analysis.sources.SourceBank` per scenario.
        x0s:
            Optional per-scenario initial states (``None`` entries mean 0).
        labels:
            Optional per-scenario labels (default ``system.name``).

        Raises
        ------
        SimulationError
            On an empty batch, mismatched lengths or port counts, and on
            non-finite initial states or source samples.
        """
        banks = list(source_banks)
        if not banks:
            raise SimulationError("run_batch needs at least one source bank")
        if x0s is None:
            x0s = [None] * len(banks)
        if labels is None:
            labels = [None] * len(banks)
        if len(x0s) != len(banks) or len(labels) != len(banks):
            raise SimulationError(
                f"got {len(banks)} source banks but {len(x0s)} initial "
                f"states and {len(labels)} labels")
        return self._run_stacked(system, banks, x0s, labels)

    def _run_stacked(self, system, banks: list, x0s: list,
                     labels: list) -> list[TransientResult]:
        """Step all scenarios at once with one multi-RHS solve per step."""
        C = to_csr(system.C)
        G = to_csr(system.G)
        B = to_csr(system.B)
        L = to_csr(system.L)
        n = C.shape[0]
        m = B.shape[1]
        n_scen = len(banks)
        for bank in banks:
            if bank.n_ports != m:
                raise SimulationError(
                    f"source bank drives {bank.n_ports} ports but the "
                    f"system has {m}")
        # A complex B or L (ROMBlock keeps complex blocks on purpose)
        # must not be truncated to real samples.
        state_dtype = np.result_type(C.dtype, G.dtype, B.dtype, float)
        out_dtype = np.result_type(state_dtype, L.dtype)
        const = getattr(system, "const_input", None)
        const_vec = (np.zeros(n) if const is None
                     else np.asarray(const, dtype=float).reshape(-1))
        const_col = const_vec[:, np.newaxis]

        times = self.times
        X = np.zeros((n, n_scen), dtype=state_dtype)
        for j, x0 in enumerate(x0s):
            if x0 is None:
                continue
            x0 = np.asarray(x0).reshape(-1)
            if x0.shape[0] != n:
                raise SimulationError(
                    f"initial state has length {x0.shape[0]}, expected {n}")
            if not np.all(np.isfinite(x0)):
                raise SimulationError(
                    f"initial state of scenario {j} has non-finite entries")
            X[:, j] = x0

        def bank_values(t: float) -> np.ndarray:
            U = np.column_stack([bank(t) for bank in banks])
            if not np.all(np.isfinite(U)):
                raise SimulationError(
                    f"source samples at t={t:g} are not finite")
            return U

        n_steps = times.shape[0]
        outputs = np.empty((L.shape[0], n_scen, n_steps), dtype=out_dtype)
        states = (np.empty((n, n_scen, n_steps), dtype=state_dtype)
                  if self.store_states else None)
        outputs[:, :, 0] = np.asarray(L @ X)
        if states is not None:
            states[:, :, 0] = X

        # One factorisation of the stepping pencil serves every scenario
        # and every step; for a block-diagonal ROM the sparse LU keeps its
        # factors inside the blocks (O(m l^3) once, O(m l^2) per step).
        h = self.dt
        scale = 1.0 / h if self.method == "backward_euler" else 2.0 / h
        lhs = to_csc(C.multiply(scale) - G).astype(state_dtype, copy=False)
        factor = get_solver(lhs)
        if self.method == "backward_euler":
            for k in range(1, n_steps):
                U_next = bank_values(float(times[k]))
                rhs = np.asarray(C @ X) / h \
                    + np.asarray(B @ U_next) + const_col
                X = factor.solve(rhs)
                outputs[:, :, k] = np.asarray(L @ X)
                if states is not None:
                    states[:, :, k] = X
        else:  # trapezoidal
            rhs_mat = to_csr(C.multiply(2.0 / h) + G)
            U_prev = bank_values(float(times[0]))
            for k in range(1, n_steps):
                U_next = bank_values(float(times[k]))
                rhs = np.asarray(rhs_mat @ X) \
                    + np.asarray(B @ (U_prev + U_next)) \
                    + 2.0 * const_col
                X = factor.solve(rhs)
                outputs[:, :, k] = np.asarray(L @ X)
                if states is not None:
                    states[:, :, k] = X
                U_prev = U_next

        default_label = getattr(system, "name", "")
        return [
            TransientResult(
                times=times,
                outputs=np.ascontiguousarray(outputs[:, j, :]),
                states=(None if states is None
                        else np.ascontiguousarray(states[:, j, :])),
                label=labels[j] or default_label,
                method=self.method)
            for j in range(n_scen)
        ]
