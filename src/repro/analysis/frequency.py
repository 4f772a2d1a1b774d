"""Frequency-domain analysis of descriptor systems and ROMs.

Reproduces the kind of data behind Fig. 5 of the paper: transfer-function
curves ``|H(j*omega)[output, port]|`` over a log-spaced frequency band, for
the full model and for each ROM, plus the relative-error curves between
them.

Any model with its own ``transfer_function`` works (and its
``transfer_entry``, when it has one, serves single-entry sweeps): the
full MNA model, every ROM — whose evaluator exploits the block
structure — and a state-space model.

Point evaluation is delegated to the
:class:`~repro.analysis.engine.SweepEngine`: the default engine runs
serially, and passing one with ``jobs >= 2`` fans the frequency points
across a worker pool with bit-identical results.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.engine import SweepEngine
from repro.exceptions import SimulationError

__all__ = ["FrequencyAnalysis", "FrequencySweepResult"]


@dataclass
class FrequencySweepResult:
    """Transfer-function samples over a frequency grid.

    Attributes
    ----------
    omegas:
        Angular frequencies (rad/s) of the sweep.
    values:
        Complex samples; shape ``(len(omegas), p, m)`` for full-matrix sweeps
        or ``(len(omegas),)`` for single-entry sweeps.
    output, port:
        Set for single-entry sweeps; ``None`` otherwise.
    label:
        Name of the system the sweep was run on.
    """

    omegas: np.ndarray
    values: np.ndarray
    output: int | None = None
    port: int | None = None
    label: str = ""

    @property
    def magnitude(self) -> np.ndarray:
        """Magnitude of the sampled transfer function."""
        return np.abs(self.values)

    def entry(self, output: int, port: int) -> np.ndarray:
        """Extract a single ``(output, port)`` series from a full sweep."""
        if self.values.ndim == 1:
            if output == self.output and port == self.port:
                return self.values
            raise SimulationError(
                "this sweep stored a single entry "
                f"({self.output}, {self.port}), not ({output}, {port})")
        return self.values[:, output, port]

    def relative_error_to(self, reference: "FrequencySweepResult",
                          floor: float = 1e-300) -> np.ndarray:
        """Pointwise relative error of this sweep against ``reference``.

        Both sweeps must share the frequency grid and shape.  The error is
        ``|H - H_ref| / max(|H_ref|, floor)`` evaluated entrywise; for
        full-matrix sweeps the maximum entrywise error per frequency is
        returned (a conservative summary matching the paper's "relative
        error" axis).
        """
        if self.values.shape != reference.values.shape:
            raise SimulationError(
                "sweeps have different shapes: "
                f"{self.values.shape} vs {reference.values.shape}")
        if not np.allclose(self.omegas, reference.omegas):
            raise SimulationError("sweeps use different frequency grids")
        err = np.abs(self.values - reference.values)
        den = np.maximum(np.abs(reference.values), floor)
        rel = err / den
        if rel.ndim == 1:
            return rel
        return rel.reshape(rel.shape[0], -1).max(axis=1)


@dataclass
class FrequencyAnalysis:
    """Frequency sweep driver.

    Parameters
    ----------
    omega_min, omega_max:
        Sweep band in rad/s (log-spaced).
    n_points:
        Number of frequency samples.
    engine:
        Optional :class:`~repro.analysis.engine.SweepEngine`.  ``None``
        (default) evaluates serially; an engine with ``jobs >= 2`` fans the
        frequency points across its thread pool with bit-identical results.

    Notes
    -----
    Each model evaluates itself: a ROM solves its small blocks, the full
    MNA model factors each frequency's pencil uncached — a sweep touches
    ``n_points`` distinct pencils, which would only thrash the shared LRU
    cache and evict factors other analyses still need.
    """

    omega_min: float = 1e5
    omega_max: float = 1e12
    n_points: int = 60
    engine: SweepEngine | None = None
    _omegas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.omega_min <= 0 or self.omega_max <= self.omega_min:
            raise SimulationError(
                "need 0 < omega_min < omega_max for a log-spaced sweep")
        if self.n_points < 2:
            raise SimulationError("n_points must be at least 2")
        self._omegas = np.logspace(np.log10(self.omega_min),
                                   np.log10(self.omega_max),
                                   self.n_points)

    @property
    def omegas(self) -> np.ndarray:
        """The angular-frequency grid of the sweep."""
        return self._omegas.copy()

    def _engine(self) -> SweepEngine:
        return self.engine if self.engine is not None else SweepEngine(jobs=1)

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep(self, system, *, label: str | None = None,
              ) -> FrequencySweepResult:
        """Sample the full ``p x m`` transfer matrix over the band.

        Evaluated by the system's own ``transfer_function`` (which for a
        ROM exploits the block structure and for the full MNA model is one
        multi-RHS sparse solve per frequency pencil).
        """
        values = self._engine().sample_matrix(
            system, 1j * self._omegas)
        return FrequencySweepResult(
            omegas=self.omegas, values=values,
            label=label or getattr(system, "name", ""))

    def sweep_entry(self, system, output: int, port: int, *,
                    label: str | None = None) -> FrequencySweepResult:
        """Sample a single transfer-matrix entry over the band (Fig. 5a)."""
        values = self._engine().sample_entry(
            system, 1j * self._omegas, output, port)
        return FrequencySweepResult(
            omegas=self.omegas, values=values, output=output, port=port,
            label=label or getattr(system, "name", ""))

    def sweep_many(self, systems: Mapping[str, object],
                   ) -> dict[str, "FrequencySweepResult"]:
        """Full-matrix sweeps of several models, fanned across the engine.

        Each model is swept serially inside a worker (nesting parallel
        dispatches of one engine would risk pool starvation); with an
        engine of ``jobs >= 2`` the *models* run concurrently, which is the
        shape a model-serving front end needs — many small ROMs, one sweep
        each.  Results are keyed like ``systems`` and each is identical to
        a standalone :meth:`sweep` of that model.
        """
        labels = list(systems)
        serial = replace(self, engine=None)
        tasks = [(serial, systems[label], label) for label in labels]
        results = self._engine().map_scenarios(_sweep_one_model, tasks)
        return dict(zip(labels, results))

    def compare(self, reference, candidates: dict, *, output: int,
                port: int, adaptive: bool = False,
                target_error: float = 1e-3,
                ) -> dict[str, dict[str, np.ndarray]]:
        """Sweep one entry on a reference model and several ROMs.

        Returns a mapping ``label -> {"magnitude": ..., "relative_error": ...}``
        plus a ``"reference"`` entry, i.e. exactly the series plotted in
        Fig. 5(a)/(b).

        With ``adaptive=True`` the engine refines the frequency grid
        instead of sweeping it densely: points are solved exactly only
        where the interpolated relative-error estimate is near or above
        ``target_error`` (or changes too fast to trust), and the remaining
        samples are interpolated.  The report then carries an extra
        ``"adaptive"`` entry with the evaluation mask and the number of
        per-model point evaluations saved.
        """
        if adaptive:
            return self._compare_adaptive(reference, candidates,
                                          output=output, port=port,
                                          target_error=target_error)
        ref_sweep = self.sweep_entry(reference, output, port,
                                     label="reference")
        report: dict[str, dict[str, np.ndarray]] = {
            "reference": {
                "omegas": self.omegas,
                "magnitude": ref_sweep.magnitude,
            }
        }
        for label, model in candidates.items():
            sweep = self.sweep_entry(model, output, port, label=label)
            report[label] = {
                "omegas": self.omegas,
                "magnitude": sweep.magnitude,
                "relative_error": sweep.relative_error_to(ref_sweep),
            }
        return report

    def _compare_adaptive(self, reference, candidates: dict, *, output: int,
                          port: int, target_error: float,
                          ) -> dict[str, dict[str, np.ndarray]]:
        result = self._engine().adaptive_entry_sweep(
            reference, candidates, self._omegas, output, port,
            target_error=target_error)
        report: dict[str, dict[str, np.ndarray]] = {
            "reference": {
                "omegas": self.omegas,
                "magnitude": np.abs(result.reference),
            }
        }
        for label in candidates:
            report[label] = {
                "omegas": self.omegas,
                "magnitude": np.abs(result.candidates[label]),
                "relative_error": result.errors[label],
            }
        report["adaptive"] = {
            "evaluated": result.evaluated,
            "n_evaluated": result.n_evaluated,
            "n_points": result.n_points,
            "target_error": target_error,
            "evaluations_saved": result.evaluations_saved,
        }
        return report


def _sweep_one_model(task) -> FrequencySweepResult:
    """Pool kernel for :meth:`FrequencyAnalysis.sweep_many`."""
    analysis, system, label = task
    return analysis.sweep(system, label=label)
