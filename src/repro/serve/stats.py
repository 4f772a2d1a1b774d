"""Serving statistics: a read-only view of a server's metrics series.

A :class:`~repro.store.server.ModelServer` records its serving telemetry
straight into the process-wide :func:`~repro.obs.metrics.default_metrics`
registry, every series labelled ``server=<ModelServer.server_id>`` (so two
servers in one process keep separate counts) and, per request kind,
``kind=<kind>``:

* counters — requests, errors, engine evaluations (``batches``), requests
  answered **without their own evaluation** (``coalesced``: deduplicated
  against an identical request or folded into a shared multi-point
  evaluation) and planned batches (``plans``, no ``kind`` label);
* a histogram — per-request latency, seconds (a request answered by a
  shared evaluation sees that evaluation's latency, so percentiles answer
  "what did a request see", not "what did a batch see");
* gauges — the current and peak queue depth (steps submitted to the
  worker pool but not yet finished; no ``kind`` label).

The warm set adds its own series under the same ``server=`` label: the
``serve.warm_set{result=hit|miss}`` and ``serve.warm_evictions``
counters and the ``serve.warm_resident_bytes`` gauge.

Those series are what ``/metrics``, ``repro stats --serve`` and the
``otherData.metrics`` of a ``--trace-out`` run artifact export (a server
closed before the run ends has already dropped them).
:class:`ServingStats` reads them back into the attribute view callers use
(``ModelServer.serving_stats()``), and builds the serving-SLO verdict
``/healthz`` serves.  Model loads are counted by the registry's
``warm_stats()``, which outlives ``close()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.health import HealthCheck, HealthReport
from repro.serve.planner import REQUEST_KINDS

__all__ = ["KindStats", "ServingStats"]

#: Metric names of the serving series (see the module docstring).
REQUESTS = "serve.requests"
ERRORS = "serve.errors"
BATCHES = "serve.batches"
COALESCED = "serve.coalesced"
PLANS = "serve.plans"
LATENCY = "serve.latency_seconds"
QUEUE_DEPTH = "serve.queue_depth"
QUEUE_DEPTH_PEAK = "serve.queue_depth_peak"

_KIND_COUNTERS = {REQUESTS: "requests", ERRORS: "errors",
                  BATCHES: "batches", COALESCED: "coalesced"}


@dataclass(frozen=True)
class KindStats:
    """Counters and latency percentiles (seconds) of one request kind."""

    requests: int = 0
    errors: int = 0
    batches: int = 0
    coalesced: int = 0
    p50: float = 0.0
    p99: float = 0.0


@dataclass(frozen=True)
class ServingStats:
    """Aggregated serving statistics across all request kinds.

    Attributes
    ----------
    kinds:
        Per-kind counters/latency (see :class:`KindStats`); every kind of
        :data:`REQUEST_KINDS` is present, zeroed before its first request.
    plans:
        Number of execution plans built and run.
    queue_depth:
        Steps currently submitted to the worker pool but not yet finished.
    queue_depth_peak:
        The high-water mark of ``queue_depth``.
    """

    kinds: dict[str, KindStats] = field(
        default_factory=lambda: {kind: KindStats()
                                 for kind in REQUEST_KINDS})
    plans: int = 0
    queue_depth: int = 0
    queue_depth_peak: int = 0

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "ServingStats":
        """The view of one server's series, given a
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` filtered to
        its ``server=`` label."""
        fields = {kind: {} for kind in REQUEST_KINDS}
        plans = 0
        for entry in snapshot["counters"]:
            if entry["name"] == PLANS:
                plans = int(entry["value"])
            elif entry["name"] in _KIND_COUNTERS:
                kind = fields.setdefault(entry["labels"]["kind"], {})
                kind[_KIND_COUNTERS[entry["name"]]] = int(entry["value"])
        for entry in snapshot["histograms"]:
            if entry["name"] == LATENCY:
                fields.setdefault(entry["labels"]["kind"], {}).update(
                    p50=entry["p50"], p99=entry["p99"])
        gauges = {entry["name"]: int(entry["value"])
                  for entry in snapshot["gauges"]}
        return cls(kinds={kind: KindStats(**values)
                          for kind, values in fields.items()},
                   plans=plans,
                   queue_depth=gauges.get(QUEUE_DEPTH, 0),
                   queue_depth_peak=gauges.get(QUEUE_DEPTH_PEAK, 0))

    @property
    def requests(self) -> int:
        """Total requests observed across all kinds."""
        return sum(entry.requests for entry in self.kinds.values())

    @property
    def errors(self) -> int:
        """Total failed requests across all kinds."""
        return sum(entry.errors for entry in self.kinds.values())

    @property
    def batches(self) -> int:
        """Total engine evaluations executed across all kinds."""
        return sum(entry.batches for entry in self.kinds.values())

    @property
    def coalesced(self) -> int:
        """Requests answered without their own engine evaluation."""
        return sum(entry.coalesced for entry in self.kinds.values())

    @property
    def coalescing_rate(self) -> float:
        """Fraction of requests absorbed by dedup/coalescing."""
        total = self.requests
        return self.coalesced / total if total else 0.0

    def health_report(self) -> "HealthReport":
        """Classify the serving SLOs into a :class:`HealthReport`.

        Three monitor families, thresholds from
        :data:`~repro.obs.health.DEFAULT_THRESHOLDS`:

        * ``serve.p99_seconds`` per request kind (kinds that saw no
          traffic are skipped — an idle kind is not unhealthy),
        * ``serve.queue_depth`` on the *current* depth, and
        * ``serve.error_rate`` over all requests so far.

        Built on demand from a snapshot; it publishes nothing and adds
        nothing to any open health scope — this is the verdict
        ``/healthz`` serves and ``serve-bench`` prints, not a hot-path
        watchdog.
        """
        checks = [HealthCheck.evaluate(
            "serve.p99_seconds", entry.p99, kind=kind,
            detail=f"requests={entry.requests} p50={entry.p50:.6f}")
            for kind, entry in sorted(self.kinds.items()) if entry.requests]
        checks.append(HealthCheck.evaluate(
            "serve.queue_depth", self.queue_depth,
            detail=f"peak={self.queue_depth_peak}"))
        total = self.requests
        if total:
            checks.append(HealthCheck.evaluate(
                "serve.error_rate", self.errors / total,
                detail=f"errors={self.errors} requests={total}"))
        return HealthReport(checks=checks)
