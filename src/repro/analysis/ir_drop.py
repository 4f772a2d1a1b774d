"""Static and dynamic IR-drop analysis on power grids.

IR drop — how far each observed node's voltage sags below the ideal supply —
is the quantity power-grid analysis ultimately cares about, and the paper's
application section motivates BDSM exactly with "IR-drop or package
resonance analysis".  This module provides:

* :func:`ir_drop_analysis` — static (DC) IR drop for a given load-current
  vector, on the full model or on a ROM;
* :meth:`IRDropResult.worst` — the worst-case drop and where it occurs;
* :func:`dynamic_ir_drop` — the worst sag over one
  :class:`~repro.analysis.transient.TransientAnalysis` run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.sources import SourceBank
from repro.analysis.transient import TransientAnalysis
from repro.exceptions import SimulationError
from repro.linalg.krylov import ShiftedOperator

__all__ = ["IRDropResult", "ir_drop_analysis", "ir_drop_batch",
           "dynamic_ir_drop"]


@dataclass
class IRDropResult:
    """Result of a static IR-drop analysis.

    Attributes
    ----------
    node_names:
        Names of the observed outputs (one per row of ``L``).
    voltages:
        Small-signal voltage deviation at each observed node caused by the
        load currents (negative values mean the node sags).
    """

    node_names: list[str]
    voltages: np.ndarray

    @property
    def drops(self) -> np.ndarray:
        """IR drop per observed node (positive numbers, volts)."""
        return np.maximum(0.0, -self.voltages)

    def worst(self) -> tuple[str, float]:
        """Return ``(node_name, drop)`` of the worst-hit observed node."""
        idx = int(np.argmax(self.drops))
        name = self.node_names[idx] if self.node_names else f"output{idx}"
        return name, float(self.drops[idx])


def ir_drop_analysis(system, load_currents: np.ndarray) -> IRDropResult:
    """Static IR-drop: solve ``-G x = B i_load`` and read the observed nodes.

    The one-scenario case of :func:`ir_drop_batch`.

    Parameters
    ----------
    system:
        Full :class:`~repro.circuit.mna.DescriptorSystem` or any ROM exposing
        ``C, G, B, L`` (the DC solve only uses ``G``, ``B`` and ``L``).
    load_currents:
        Length-``m`` vector of DC currents drawn at each port.

    The DC pencil is factored through the process-wide cache, so an
    analysis right after a reduction at ``s0 = 0`` reuses its
    factorisation.
    """
    loads = np.asarray(load_currents, dtype=float).reshape(1, -1)
    return ir_drop_batch(system, loads)[0]


def ir_drop_batch(system, load_scenarios) -> list[IRDropResult]:
    """Static IR-drop for a batch of load corners in one multi-RHS solve.

    All scenarios share the DC pencil ``-G``, so instead of one
    factorisation + solve per corner, the load vectors are stacked into an
    ``(n, K)`` right-hand-side block and pushed through a single factorized
    solve — the batched decomposition the paper's ``O(m l^3)``
    block-simulation argument relies on.

    Parameters
    ----------
    system:
        Full :class:`~repro.circuit.mna.DescriptorSystem` or any ROM
        exposing ``C, G, B, L``.
    load_scenarios:
        ``(K, m)`` array (or sequence of length-``m`` vectors) of DC port
        currents, one row per corner.

    Returns
    -------
    One :class:`IRDropResult` per scenario, in input order.

    Raises
    ------
    SimulationError
        On a wrong shape, an empty batch or non-finite load currents.
    """
    loads = np.atleast_2d(np.asarray(load_scenarios, dtype=float))
    m = system.B.shape[1]
    if loads.ndim != 2 or loads.shape[1] != m:
        raise SimulationError(
            f"expected load scenarios of shape (K, {m}), got {loads.shape}")
    if loads.shape[0] == 0:
        raise SimulationError("need at least one load scenario")
    if not np.all(np.isfinite(loads)):
        raise SimulationError("load currents must be finite")
    op = ShiftedOperator(system.C, system.G, s0=0.0)
    rhs = np.asarray(system.B @ loads.T)
    X = np.asarray(op.solve(rhs))
    Y = np.asarray(system.L @ X)
    names = list(getattr(system, "output_names", []) or [])
    return [IRDropResult(node_names=names,
                         voltages=np.ascontiguousarray(Y[:, j]))
            for j in range(loads.shape[0])]


def dynamic_ir_drop(system, sources: SourceBank, *, t_stop: float, dt: float,
                    method: str = "backward_euler") -> IRDropResult:
    """Worst-case dynamic IR drop over a transient run.

    Runs a transient simulation and reports, per observed node, the largest
    sag seen at any time point.  Because the analysis only touches the
    descriptor interface, swapping the full model for a BDSM ROM changes
    nothing except the runtime.
    """
    result = TransientAnalysis(t_stop=t_stop, dt=dt,
                               method=method).run(system, sources)
    return IRDropResult(
        node_names=list(getattr(system, "output_names", []) or []),
        voltages=result.outputs.min(axis=1))
