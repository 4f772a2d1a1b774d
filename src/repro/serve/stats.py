"""Serving statistics: per-kind latency, queue depth and coalescing counters.

This is the observability layer of the serving stack
(``ModelServer.serving_stats()``; model loads are counted by the
registry's ``warm_stats()``).  A traffic-scale front end needs to answer
operational questions — *what is the p99 sweep latency?  how deep is the
queue?  how much work is the coalescer actually saving?* — so every planned
batch records, per request kind:

* request / error / batch counters,
* how many requests were answered **without their own engine evaluation**
  (deduplicated against an identical in-flight request, or coalesced into a
  shared multi-point evaluation),
* wall-clock latency samples (bounded reservoir) from which p50/p99 are
  derived, and
* the executor's current and peak queue depth (steps submitted but not yet
  finished).

:class:`StatsRecorder` is the thread-safe mutation facade used by the
executor; :meth:`StatsRecorder.snapshot` returns an immutable-by-convention
:class:`ServingStats` copy for callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.health import (
    DEFAULT_THRESHOLDS,
    HealthCheck,
    HealthReport,
    classify,
)
from repro.obs.metrics import Reservoir

__all__ = ["KindStats", "ServingStats", "StatsRecorder", "REQUEST_KINDS"]

#: The request kinds the serving stack understands, in dispatch order.
REQUEST_KINDS = ("transfer", "sweep", "transient", "ir_drop")

#: Latency samples retained per kind (a bounded reservoir: old samples fall
#: off the front, so percentiles describe *recent* traffic).
LATENCY_WINDOW = 4096


@dataclass
class KindStats:
    """Counters and latency reservoir for one request kind."""

    requests: int = 0
    errors: int = 0
    batches: int = 0
    coalesced: int = 0
    seconds: float = 0.0
    latencies: Reservoir = field(
        default_factory=lambda: Reservoir(maxlen=LATENCY_WINDOW))

    def observe(self, seconds: float, *, n_requests: int = 1) -> None:
        """Record one executed batch covering ``n_requests`` requests.

        Every covered request experienced the batch's latency, so the
        sample is entered once per request — percentiles then answer "what
        latency did a request see", not "what latency did a batch see".
        """
        self.batches += 1
        self.seconds += float(seconds)
        for _ in range(max(1, int(n_requests))):
            self.latencies.observe(float(seconds))

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0..100) over the reservoir, seconds.

        Delegates to the shared :class:`~repro.obs.metrics.Reservoir`
        implementation (0.0 while the window is empty)."""
        return self.latencies.percentile(q)

    @property
    def p50(self) -> float:
        """Median observed latency in seconds."""
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        """99th-percentile observed latency in seconds."""
        return self.percentile(99.0)

    def copy(self) -> "KindStats":
        """Independent snapshot of this kind's counters."""
        return KindStats(requests=self.requests, errors=self.errors,
                         batches=self.batches, coalesced=self.coalesced,
                         seconds=self.seconds,
                         latencies=self.latencies.copy())


@dataclass
class ServingStats:
    """Aggregated serving statistics across all request kinds.

    Attributes
    ----------
    kinds:
        Per-kind counters/latency (see :class:`KindStats`).
    plans:
        Number of execution plans built and run.
    queue_depth:
        Steps currently submitted to the executor but not yet finished.
    queue_depth_peak:
        The high-water mark of ``queue_depth``.
    """

    kinds: dict[str, KindStats] = field(
        default_factory=lambda: {kind: KindStats()
                                 for kind in REQUEST_KINDS})
    plans: int = 0
    queue_depth: int = 0
    queue_depth_peak: int = 0

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

        Built on demand from a snapshot, with no side effects on the
        process-wide monitor log — this is the verdict ``/healthz``
        serves and ``serve-bench`` prints, not a hot-path watchdog.
        """
        checks: list[HealthCheck] = []

        def check(monitor: str, value: float, detail: str,
                  **labels) -> None:
            spec = DEFAULT_THRESHOLDS.get(monitor, {})
            warn_at = spec.get("warn_at")
            fail_at = spec.get("fail_at")
            direction = spec.get("direction", "above")
            checks.append(HealthCheck(
                monitor=monitor, value=float(value),
                status=classify(float(value), warn_at=warn_at,
                                fail_at=fail_at, direction=direction),
                warn_at=warn_at, fail_at=fail_at, direction=direction,
                detail=detail, labels=dict(labels)))

        for kind, entry in sorted(self.kinds.items()):
            if not entry.requests:
                continue
            check("serve.p99_seconds", entry.p99,
                  f"requests={entry.requests} p50={entry.p50:.6f}",
                  kind=kind)
        check("serve.queue_depth", self.queue_depth,
              f"peak={self.queue_depth_peak}")
        total = self.requests
        if total:
            check("serve.error_rate", self.errors / total,
                  f"errors={self.errors} requests={total}")
        return HealthReport(checks=checks)


class StatsRecorder:
    """Thread-safe mutation facade over one :class:`ServingStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats = ServingStats()

    def record_plan(self) -> None:
        """Record one planned-and-executed request batch."""
        with self._lock:
            self._stats.plans += 1

    def record_requests(self, kind: str, n: int = 1) -> None:
        """Count ``n`` incoming requests of ``kind``."""
        with self._lock:
            self._kind(kind).requests += n

    def record_batch(self, kind: str, seconds: float, *,
                     n_requests: int = 1) -> None:
        """Record one executed step of ``kind`` covering ``n_requests``."""
        with self._lock:
            entry = self._kind(kind)
            entry.observe(seconds, n_requests=n_requests)
            if n_requests > 1:
                entry.coalesced += n_requests - 1

    def record_coalesced(self, kind: str, n: int) -> None:
        """Count ``n`` extra requests absorbed without an evaluation."""
        if n <= 0:
            return
        with self._lock:
            self._kind(kind).coalesced += n

    def record_errors(self, kind: str, n: int = 1) -> None:
        """Count ``n`` failed requests of ``kind``."""
        with self._lock:
            self._kind(kind).errors += n

    def queue_enter(self) -> None:
        """A step was submitted to the executor pool."""
        with self._lock:
            self._stats.queue_depth += 1
            self._stats.queue_depth_peak = max(self._stats.queue_depth_peak,
                                               self._stats.queue_depth)

    def queue_exit(self) -> None:
        """A submitted step finished (successfully or not)."""
        with self._lock:
            self._stats.queue_depth -= 1

    def snapshot(self) -> ServingStats:
        """A consistent deep copy of the current statistics."""
        with self._lock:
            return ServingStats(
                kinds={kind: entry.copy()
                       for kind, entry in self._stats.kinds.items()},
                plans=self._stats.plans,
                queue_depth=self._stats.queue_depth,
                queue_depth_peak=self._stats.queue_depth_peak)

    def _kind(self, kind: str) -> KindStats:
        return self._stats.kinds.setdefault(kind, KindStats())
