"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so downstream users can catch library failures with a
single ``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` from bugs, ...) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "CircuitError",
    "DeflationError",
    "NetlistParseError",
    "PartitionError",
    "PassivityError",
    "ReductionError",
    "ReproError",
    "ResourceBudgetExceeded",
    "ServeError",
    "SimulationError",
    "SingularSystemError",
    "SolverBackendError",
    "StampingError",
    "ValidationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Raised when a circuit description is malformed or inconsistent."""


class NetlistParseError(CircuitError):
    """Raised when a SPICE-subset netlist cannot be parsed."""

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None) -> None:
        self.line_number = line_number
        self.line = line
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if line is not None:
            message = f"{message!s} [{line.strip()!r}]"
        super().__init__(message)


class StampingError(CircuitError):
    """Raised when MNA stamping fails (e.g. dangling node, bad element)."""


class ReductionError(ReproError):
    """Raised when a model-order-reduction run cannot be completed."""


class DeflationError(ReductionError):
    """Raised when a Krylov basis deflates to nothing (rank loss)."""


class PartitionError(ReductionError):
    """Raised by the partitioned-reduction subsystem.

    Covers infeasible partition requests (more subdomains than the node
    graph can support, a subdomain swallowed whole by the interface
    separator) and assembly inconsistencies between subdomain ROMs and the
    interface coupling blocks.
    """


class SingularSystemError(ReproError):
    """Raised when ``(s0*C - G)`` is singular at the chosen expansion point."""


class SimulationError(ReproError):
    """Raised when a frequency- or time-domain simulation fails."""


class SolverBackendError(ReproError):
    """Raised by the linear-solver layer on a malformed request: a
    non-square matrix, a right-hand side of the wrong length, or a cache
    of no capacity.
    """


class PassivityError(ReproError):
    """Raised by passivity verification / enforcement routines."""


class ValidationError(ReproError):
    """Raised by validation helpers when inputs are inconsistent."""


class ServeError(ReproError):
    """One or more requests of a served batch failed.

    Attributes
    ----------
    failures:
        ``{request_index: exception}`` for every failed request.
    failed_indices:
        The failed request indices, sorted.
    results:
        The full batch's results with ``None`` at failed indices, so
        callers can keep the work that did succeed.
    """

    def __init__(self, failures: dict[int, Exception],
                 results: list | None = None) -> None:
        self.failures = dict(failures)
        self.failed_indices = sorted(self.failures)
        self.results = results
        first = self.failures[self.failed_indices[0]]
        super().__init__(
            f"{len(self.failed_indices)} of the batch's requests failed "
            f"(indices {self.failed_indices}); first error: {first}")


class ResourceBudgetExceeded(ReductionError):
    """Raised when a reducer would exceed its configured memory/size budget.

    This mirrors the "break down" entries of Table II in the paper: dense
    projection bases and dense ROMs of PRIMA / SVDMOR exhaust memory on the
    largest many-port benchmarks.  The budget guard lets the benchmark harness
    report the same failure mode deterministically on laptop-scale inputs.
    """

    def __init__(self, message: str, required_bytes: int | None = None,
                 budget_bytes: int | None = None) -> None:
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(message)
