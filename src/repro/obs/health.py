"""Numerical-health monitors: threshold watchdogs over the metrics core.

The tracing/metrics layer answers *where did the time go*; this module
answers *are the numerics (and the service) still healthy*.  Call sites
throughout the library — the blocked orthonormalisation kernel, the
solver backends, the reducers, the interface-reduction SVD, the serving
stats — compute a cheap scalar (orthogonality loss, relative residual,
deflation rate, SVD tail energy, p99 latency) and hand it to
:meth:`HealthMonitors.record`, which

* classifies it against per-monitor warn/fail thresholds into a
  structured :class:`HealthCheck`,
* publishes it as a ``health.<monitor>`` gauge in the default metrics
  registry (so ``/metrics`` and ``repro stats`` expose the latest
  value), and
* appends it to a bounded in-memory log from which :meth:`report`
  assembles a :class:`HealthReport` — the object reducers attach to
  ``rom.health`` and ``/healthz`` serves as its verdict.

Monitoring is **off by default** (:func:`health_enabled` is the single
cheap gate every instrumented call site checks first), so the disabled
path costs one function call and stays inside the ``obs_overhead``
budget; the ``health_overhead`` perf workload pins the *enabled* cost to
within 5% of a monitors-off reduce.

Like the rest of :mod:`repro.obs`, this module is stdlib-only: the
numerics (GEMMs, residual norms, singular values) happen at the call
sites, which pass plain floats in.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import default_metrics

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HealthCheck",
    "HealthMonitors",
    "HealthReport",
    "begin_reduce_health",
    "classify",
    "default_health",
    "disable_health_monitors",
    "enable_health_monitors",
    "finish_reduce_health",
    "health_enabled",
]

#: Severity order used to pick a report's overall status.
_STATUS_RANK = {"ok": 0, "warn": 1, "fail": 2}

#: Checks retained in one :class:`HealthMonitors` log.  Old checks fall
#: off the front, like the span buffer — a watchdog is about *recent*
#: behaviour.
DEFAULT_CHECK_BUFFER = 4096

#: Built-in warn/fail thresholds per monitor name.  ``direction`` says
#: which side of the threshold is unhealthy: ``"above"`` (the default —
#: losses, residuals, rates, latencies) or ``"below"``.  Call sites can
#: override any of these per call; :meth:`HealthMonitors.configure`
#: overrides them per registry.
DEFAULT_THRESHOLDS: dict[str, dict] = {
    # ||Q^T Q - I||_max of a merged basis after block_orthonormalize.
    # Healthy CGS2 + Householder merges sit at a few ulp (1e-15-ish);
    # 1e-8 means re-orthogonalisation is failing, 1e-6 means the basis
    # is numerically losing rank.
    "ortho.loss": {"warn_at": 1e-8, "fail_at": 1e-6},
    # Relative residual ||A x - b|| / ||b|| of sampled backend solves.
    # Both backends factor directly, so healthy solves sit near machine
    # precision; 1e-8 means an ill-conditioned or badly pivoted pencil.
    "solve.residual": {"warn_at": 1e-8, "fail_at": 1e-4},
    # Fraction of Krylov candidates deflated during one reduce.  Some
    # deflation is normal; losing most of the block means the expansion
    # points or moment counts are mis-chosen.
    "reduce.deflation_rate": {"warn_at": 0.5, "fail_at": 0.95},
    # Fraction of screened recycle candidates captured by the recycled
    # basis.  Informational (no thresholds): a low rate wastes screening
    # work but produces correct results.
    "recycle.screen_rate": {},
    # Relative energy sqrt(sum(sv_discarded^2) / sum(sv^2)) the
    # interface-reduction SVD truncation throws away.  Thresholds are
    # passed by the call site relative to its --interface-tol.
    "interface.svd_tail": {},
    # One check per shard a multilevel reduce could not split again and
    # reduced directly instead (value 1): the hierarchy is shallower than
    # asked for there, so every such fallback is a warn.
    "partition.recursion_fallback": {"warn_at": 0.0},
    # One check per ROM whose modal form failed its guard (singular G_r,
    # a defective pencil, a probe error above MODAL_TOL) and which is
    # served by direct solves instead (value 1): correct but slow.
    "rom.modal_fallback": {"warn_at": 0.0},
    # Serving SLOs (per request kind, seconds / queue entries / rate).
    "serve.p99_seconds": {"warn_at": 0.5, "fail_at": 2.0},
    "serve.queue_depth": {"warn_at": 32, "fail_at": 256},
    "serve.error_rate": {"warn_at": 0.01, "fail_at": 0.1},
}


@dataclass
class HealthCheck:
    """One monitor observation, classified against its thresholds."""

    monitor: str
    value: float
    status: str = "ok"
    warn_at: float | None = None
    fail_at: float | None = None
    direction: str = "above"
    detail: str = ""
    labels: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"monitor": self.monitor, "value": self.value,
               "status": self.status, "direction": self.direction}
        if self.warn_at is not None:
            out["warn_at"] = self.warn_at
        if self.fail_at is not None:
            out["fail_at"] = self.fail_at
        if self.detail:
            out["detail"] = self.detail
        if self.labels:
            out["labels"] = dict(self.labels)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HealthCheck":
        return cls(monitor=data["monitor"], value=float(data["value"]),
                   status=data.get("status", "ok"),
                   warn_at=data.get("warn_at"), fail_at=data.get("fail_at"),
                   direction=data.get("direction", "above"),
                   detail=data.get("detail", ""),
                   labels=dict(data.get("labels") or {}))


@dataclass
class HealthReport:
    """An ordered collection of checks with an aggregate verdict."""

    checks: list[HealthCheck] = field(default_factory=list)

    @property
    def status(self) -> str:
        """The worst status across all checks (``"ok"`` when empty)."""
        worst = "ok"
        for check in self.checks:
            if _STATUS_RANK.get(check.status, 0) > _STATUS_RANK[worst]:
                worst = check.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def failed(self) -> list[HealthCheck]:
        return [c for c in self.checks if c.status == "fail"]

    def warned(self) -> list[HealthCheck]:
        return [c for c in self.checks if c.status == "warn"]

    def worst(self, monitor: str) -> HealthCheck | None:
        """The most severe (then most recent) check of one monitor."""
        best: HealthCheck | None = None
        for check in self.checks:
            if check.monitor != monitor:
                continue
            if best is None or (_STATUS_RANK.get(check.status, 0)
                                >= _STATUS_RANK.get(best.status, 0)):
                best = check
        return best

    def as_dict(self) -> dict:
        return {"status": self.status,
                "checks": [c.as_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        return cls(checks=[HealthCheck.from_dict(c)
                           for c in data.get("checks", ())])

    def summary(self) -> str:
        """One-line ``status (ok=a warn=b fail=c)`` rendering."""
        counts = {"ok": 0, "warn": 0, "fail": 0}
        for check in self.checks:
            counts[check.status] = counts.get(check.status, 0) + 1
        return (f"{self.status} (ok={counts['ok']} warn={counts['warn']} "
                f"fail={counts['fail']})")


def classify(value: float, *, warn_at: float | None,
             fail_at: float | None, direction: str = "above") -> str:
    """Classify ``value`` against thresholds into ok/warn/fail."""
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', "
                         f"got {direction!r}")
    bad = ((lambda v, t: v > t) if direction == "above"
           else (lambda v, t: v < t))
    if fail_at is not None and bad(value, fail_at):
        return "fail"
    if warn_at is not None and bad(value, warn_at):
        return "warn"
    return "ok"


class HealthMonitors:
    """Thread-safe registry of health checks with threshold watchdogs."""

    def __init__(self, *, buffer: int = DEFAULT_CHECK_BUFFER,
                 metrics=None) -> None:
        self._lock = threading.Lock()
        self._checks: deque[HealthCheck] = deque(maxlen=buffer)
        self._dropped = 0
        self._thresholds = {name: dict(spec)
                            for name, spec in DEFAULT_THRESHOLDS.items()}
        self._metrics = metrics

    def configure(self, monitor: str, *, warn_at: float | None = None,
                  fail_at: float | None = None,
                  direction: str | None = None) -> None:
        """Override the default thresholds of one monitor."""
        with self._lock:
            spec = self._thresholds.setdefault(monitor, {})
            if warn_at is not None:
                spec["warn_at"] = warn_at
            if fail_at is not None:
                spec["fail_at"] = fail_at
            if direction is not None:
                spec["direction"] = direction

    def record(self, monitor: str, value: float, *,
               warn_at: float | None = None, fail_at: float | None = None,
               direction: str | None = None, detail: str = "",
               **labels) -> HealthCheck:
        """Classify and log one observation; returns the check.

        Explicit ``warn_at``/``fail_at``/``direction`` override the
        registry's configured thresholds for this call only.  ``labels``
        become gauge labels in the metrics registry, so keep their
        cardinality bounded (backend names, request kinds — not values).
        """
        # Lock-free read: _thresholds maps to per-monitor dicts that
        # configure() mutates in place, and dict reads are atomic under
        # the GIL — record() is hot, configure() is setup-time.
        spec = self._thresholds.get(monitor, {})
        if warn_at is None:
            warn_at = spec.get("warn_at")
        if fail_at is None:
            fail_at = spec.get("fail_at")
        if direction is None:
            direction = spec.get("direction", "above")
        value = float(value)
        status = classify(value, warn_at=warn_at, fail_at=fail_at,
                          direction=direction)
        check = HealthCheck(monitor=monitor, value=value, status=status,
                            warn_at=warn_at, fail_at=fail_at,
                            direction=direction, detail=detail,
                            labels=dict(labels))
        with self._lock:
            if len(self._checks) == self._checks.maxlen:
                self._dropped += 1
            self._checks.append(check)
        metrics = self._metrics or default_metrics()
        metrics.set_gauge(f"health.{monitor}", value, **labels)
        if status != "ok":
            metrics.increment("health.verdict", status=status,
                              monitor=monitor)
        return check

    def mark(self) -> int:
        """Opaque position marker for :meth:`report`'s ``since``.

        ``report(since=mark)`` later returns only checks recorded after
        this call — how reducers scope ``rom.health`` to their own run.
        """
        with self._lock:
            return self._dropped + len(self._checks)

    def report(self, *, since: int = 0) -> HealthReport:
        """Assemble a report of the checks recorded after ``since``."""
        with self._lock:
            skip = max(0, since - self._dropped)
            checks = list(self._checks)[skip:]
        return HealthReport(checks=checks)

    def reset(self) -> None:
        with self._lock:
            self._checks.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._checks)


_DEFAULT_HEALTH = HealthMonitors()
_HEALTH_ENABLED = False


def default_health() -> HealthMonitors:
    """The process-wide monitor registry instrumented call sites use."""
    return _DEFAULT_HEALTH


def health_enabled() -> bool:
    """Cheap gate every instrumented call site checks before computing
    its health scalar (the scalar, not the gate, is the real cost)."""
    return _HEALTH_ENABLED


def enable_health_monitors() -> None:
    global _HEALTH_ENABLED
    _HEALTH_ENABLED = True


def disable_health_monitors() -> None:
    global _HEALTH_ENABLED
    _HEALTH_ENABLED = False


def begin_reduce_health() -> int | None:
    """Mark the monitor log at the start of one reduce (``None`` while
    monitoring is off — pass it straight to :func:`finish_reduce_health`,
    which then does nothing)."""
    return default_health().mark() if health_enabled() else None


def finish_reduce_health(mark: int | None, rom, ortho_stats, *,
                         method: str, recycle_stats=None):
    """Record the end-of-reduce rate monitors and attach ``rom.health``.

    Shared by every reducer: records the deflation rate (deflated /
    candidate columns) and — when the reduce recycled bases — the
    recycle screen rate, then scoops every check recorded since ``mark``
    (orthogonality losses, solve residuals, interface tails included)
    into a :class:`HealthReport` attached to the ROM by plain attribute
    assignment, the same idiom as ``rom.solve_counts``.

    ``rom`` and the stats objects are duck-typed (``rom.size``,
    ``ortho_stats.deflations``, ``recycle_stats.hits/screened``) so this
    module stays a stdlib-only leaf.
    """
    if mark is None:
        return None
    monitors = default_health()
    deflations = int(getattr(ortho_stats, "deflations", 0))
    kept = int(getattr(rom, "size", 0))
    monitors.record(
        "reduce.deflation_rate",
        deflations / max(1, deflations + kept),
        method=method, detail=f"deflated={deflations} kept={kept}")
    screened = int(getattr(recycle_stats, "screened", 0) or 0)
    if screened:
        hits = int(getattr(recycle_stats, "hits", 0))
        monitors.record(
            "recycle.screen_rate", hits / screened, method=method,
            detail=f"hits={hits} screened={screened} solves_skipped="
                   f"{getattr(recycle_stats, 'solves_skipped', 0)}")
    report = monitors.report(since=mark)
    rom.health = report
    return report
