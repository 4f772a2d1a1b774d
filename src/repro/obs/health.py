"""Numerical-health monitors: threshold watchdogs over the metrics core.

The tracing/metrics layer answers *where did the time go*; this module
answers *are the numerics (and the service) still healthy*.  Call sites
throughout the library — the blocked orthonormalisation kernel, the
solver backends, the reducers, the interface-reduction SVD — compute a
cheap scalar (orthogonality loss, relative residual, deflation rate, SVD
tail energy) and hand it to :func:`record_health`, which

* classifies it against per-monitor warn/fail thresholds into a
  structured :class:`HealthCheck`,
* publishes it as a ``health.<monitor>`` gauge in the default metrics
  registry (so ``/metrics`` and ``repro stats`` expose the latest
  value), and
* appends it to every :func:`collect_health` scope open in the calling
  context.

Monitoring is a **scope, not a switch**: ``with collect_health() as
report`` turns the monitors on for the code it runs (and for the copies
of its context that the library's thread hand-offs run pooled work in),
and nowhere else.  Scopes nest: every reducer opens its own inside an
open one (:func:`reduce_with_health`) and attaches it as ``rom.health``,
so two reduces running at once never see each other's checks.
Outside any scope :func:`health_enabled` — the single cheap gate every
instrumented call site checks first — is false, so the disabled path
costs one context-variable read and stays inside the ``obs_overhead``
budget; the ``health_overhead`` perf workload pins the *enabled* cost
to within 5% of a monitors-off reduce.

Like the rest of :mod:`repro.obs`, this module is stdlib-only: the
numerics (GEMMs, residual norms, singular values) happen at the call
sites, which pass plain floats in.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.metrics import default_metrics
from repro.obs.tracing import current_span

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HealthCheck",
    "HealthReport",
    "classify",
    "collect_health",
    "health_enabled",
    "record_health",
    "reduce_with_health",
    "scope_sample",
]

#: Severity order used to pick a report's overall status.
_STATUS_RANK = {"ok": 0, "warn": 1, "fail": 2}

#: Built-in warn/fail thresholds per monitor name.  ``direction`` says
#: which side of the threshold is unhealthy: ``"above"`` (the default —
#: losses, residuals, rates, latencies) or ``"below"``.  Call sites can
#: override any of these per call.
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
    def evaluate(cls, monitor: str, value: float, *,
                 warn_at: float | None = None,
                 fail_at: float | None = None,
                 direction: str | None = None, detail: str = "",
                 **labels) -> "HealthCheck":
        """Classify ``value`` against the thresholds of ``monitor`` in
        :data:`DEFAULT_THRESHOLDS`, each overridable by argument."""
        spec = DEFAULT_THRESHOLDS.get(monitor, {})
        if warn_at is None:
            warn_at = spec.get("warn_at")
        if fail_at is None:
            fail_at = spec.get("fail_at")
        if direction is None:
            direction = spec.get("direction", "above")
        value = float(value)
        return cls(monitor=monitor, value=value,
                   status=classify(value, warn_at=warn_at, fail_at=fail_at,
                                   direction=direction),
                   warn_at=warn_at, fail_at=fail_at, direction=direction,
                   detail=detail, labels=labels)

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
    #: Call counter of :func:`scope_sample` while this is the innermost
    #: open scope.
    _samples: itertools.count = field(default_factory=itertools.count,
                                      init=False, repr=False, compare=False)

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


_SCOPES: ContextVar[tuple[HealthReport, ...]] = ContextVar(
    "repro_obs_health_scopes", default=())


def health_enabled() -> bool:
    """Whether a :func:`collect_health` scope is open in this context:
    the cheap gate every instrumented call site checks before computing
    its health scalar (the scalar, not the gate, is the real cost)."""
    return bool(_SCOPES.get())


@contextmanager
def collect_health():
    """Open a health scope; yields the :class:`HealthReport` it fills.

    Every check recorded in this context (and in every copy of it a
    library thread hand-off runs work in) until the block exits is
    appended to the yielded report and to every enclosing scope's."""
    report = HealthReport()
    token = _SCOPES.set(_SCOPES.get() + (report,))
    try:
        yield report
    finally:
        _SCOPES.reset(token)


def scope_sample(every: int) -> bool:
    """One-in-``every`` sampling counted per scope: true on the first
    call in the innermost open scope and on every ``every``-th after it,
    false outside any scope.  A probe sampled this way takes the same
    checks in a reduce whatever ran before it or beside it."""
    scopes = _SCOPES.get()
    return bool(scopes) and next(scopes[-1]._samples) % every == 0


def record_health(monitor: str, value: float, *,
                  warn_at: float | None = None,
                  fail_at: float | None = None,
                  direction: str | None = None, detail: str = "",
                  **labels) -> HealthCheck:
    """Classify one observation, publish it and add it to the open scopes.

    Explicit ``warn_at``/``fail_at``/``direction`` override the
    :data:`DEFAULT_THRESHOLDS` of ``monitor`` for this call only.  The
    value becomes the ``health.<monitor>`` gauge of the default metrics
    registry and a non-ok status one ``health.verdict`` count; ``labels``
    become gauge labels there, so keep their cardinality bounded
    (backend names, request kinds — not values).
    """
    check = HealthCheck.evaluate(monitor, value, warn_at=warn_at,
                                 fail_at=fail_at, direction=direction,
                                 detail=detail, **labels)
    metrics = default_metrics()
    metrics.set_gauge(f"health.{monitor}", check.value, **labels)
    if check.status != "ok":
        metrics.increment("health.verdict", status=check.status,
                          monitor=monitor)
    for report in _SCOPES.get():
        report.checks.append(check)
    return check


def reduce_with_health(build, *, method: str):
    """Run one reduce ``build() -> (rom, ortho_stats, seconds)`` in its
    own nested health scope and attach that scope as ``rom.health``.

    Shared by every reducer: inside the scope it records the deflation
    rate (deflated / candidate columns) and — when the ROM carries
    ``recycle_stats`` — the recycle screen rate, so ``rom.health`` holds
    exactly the checks of this reduce (orthogonality losses, solve
    residuals, interface tails included).  With no scope open this is
    just ``build()`` plus the cost tags: the open span (the reducer's
    root, ``bdsm.reduce``, ``prima.reduce`` or ``partition.*``) is
    tagged with the ``inner_products``/``deflations``/``normalizations``
    of ``ortho_stats``, ``solve_columns`` (the sum of
    ``rom.solve_counts``) and, when recycling, ``recycle_hits`` and
    ``solves_skipped``.  The ROM and stats objects are duck-typed
    (``rom.size``, ``ortho_stats.deflations``,
    ``recycle_stats.hits/screened``) so this module stays a stdlib-only
    leaf.
    """
    if not health_enabled():
        return _tag_costs(*build())
    with collect_health() as report:
        rom, ortho_stats, seconds = _tag_costs(*build())
        deflations = int(getattr(ortho_stats, "deflations", 0))
        kept = int(getattr(rom, "size", 0))
        record_health(
            "reduce.deflation_rate",
            deflations / max(1, deflations + kept),
            method=method, detail=f"deflated={deflations} kept={kept}")
        recycle_stats = getattr(rom, "recycle_stats", None)
        screened = int(getattr(recycle_stats, "screened", 0) or 0)
        if screened:
            hits = int(getattr(recycle_stats, "hits", 0))
            record_health(
                "recycle.screen_rate", hits / screened, method=method,
                detail=f"hits={hits} screened={screened} solves_skipped="
                       f"{getattr(recycle_stats, 'solves_skipped', 0)}")
    rom.health = report
    return rom, ortho_stats, seconds


def _tag_costs(rom, ortho_stats, seconds):
    """Tag the open span with the reduce's cost counts (see
    :func:`reduce_with_health`); returns its arguments."""
    span = current_span()
    if span is not None:
        for key in ("inner_products", "deflations", "normalizations"):
            span.set_tag(key, int(getattr(ortho_stats, key, 0)))
        solve_counts = getattr(rom, "solve_counts", None)
        if solve_counts is not None:
            span.set_tag("solve_columns", int(sum(solve_counts)))
        recycle_stats = getattr(rom, "recycle_stats", None)
        if recycle_stats is not None:
            span.set_tag("recycle_hits", int(recycle_stats.hits))
            span.set_tag("solves_skipped",
                         int(recycle_stats.solves_skipped))
    return rom, ortho_stats, seconds
