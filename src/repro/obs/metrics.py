"""Unified metrics core: counters, gauges and reservoir histograms.

This module is the single home of the library's aggregates and of the
percentile arithmetic :mod:`repro.serve.stats` also builds on.  Span
timings land here too: every span close observes the ``span.seconds``
histogram (see :mod:`repro.obs.tracing`).

* :func:`percentile` — linear-interpolated percentile of a sample list,
  pinned to ``0.0`` for the empty sample (serving dashboards expect a
  number, not an exception, before the first request lands);
* :class:`Reservoir` — a bounded sliding window of observations with
  ``p50``/``p99`` accessors built on :func:`percentile`;
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the classic
  metric trio, keyed by name + label tuple;
* :class:`MetricsRegistry` — a thread-safe bag of the above with
  ``snapshot()`` / ``merge_snapshot()`` so worker-process metrics can be
  shipped back to the parent (see ``SweepEngine``).

Everything here is stdlib-only so any layer of the library can import it
without cycles.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "default_metrics",
    "percentile",
]

#: Default bound of a :class:`Reservoir`; matches the serving layer's
#: historical latency window so percentiles stay O(window log window).
DEFAULT_RESERVOIR_SIZE = 4096


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``samples``.

    The empty sample is pinned to ``0.0`` (not an error): callers render
    dashboards and report lines before the first observation arrives.
    ``q`` is clamped to ``[0, 100]``.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    q = min(100.0, max(0.0, float(q)))
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Reservoir:
    """Bounded sliding window of float observations with percentiles.

    Keeps the most recent ``maxlen`` observations (older ones roll off)
    plus lifetime count/total/min/max, so means stay exact even after the
    window wraps.  Not thread-safe on its own — owners lock around it.
    """

    __slots__ = ("_window", "count", "total", "min", "max")

    def __init__(self, maxlen: int = DEFAULT_RESERVOIR_SIZE,
                 samples=None) -> None:
        self._window = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        if samples:
            for value in samples:
                self.observe(value)

    def observe(self, value: float) -> None:
        value = float(value)
        self._window.append(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        return percentile(self._window, q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> list[float]:
        """The current window, oldest first."""
        return list(self._window)

    @property
    def maxlen(self) -> int:
        return self._window.maxlen

    def copy(self) -> "Reservoir":
        dup = Reservoir(maxlen=self._window.maxlen)
        dup._window.extend(self._window)
        dup.count = self.count
        dup.total = self.total
        dup.min = self.min
        dup.max = self.max
        return dup

    def extend_window(self, samples) -> None:
        """Append ``samples`` to the percentile window only — lifetime
        count/total/min/max are untouched (used when scalars were merged
        separately from a snapshot)."""
        self._window.extend(float(v) for v in samples)

    def merge(self, other: "Reservoir") -> None:
        """Fold ``other`` into this reservoir (window + lifetime stats)."""
        self._window.extend(other._window)
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
        }


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted((labels or {}).items()))


@dataclass
class Counter:
    """Monotonic counter (one name, one label set)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Set-to-current-value metric (queue depths, warm-set bytes, ...)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Reservoir-backed distribution metric (one name, one label set)."""

    __slots__ = ("name", "labels", "reservoir")

    def __init__(self, name: str, labels: dict | None = None,
                 maxlen: int = DEFAULT_RESERVOIR_SIZE) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.reservoir = Reservoir(maxlen=maxlen)

    def observe(self, value: float) -> None:
        self.reservoir.observe(value)


class MetricsRegistry:
    """Thread-safe bag of counters, gauges and histograms.

    Metrics are identified by ``(name, sorted label items)``; the helpers
    create on first touch.  ``snapshot()`` returns a plain picklable dict
    (what crosses process boundaries) and ``merge_snapshot()`` folds such
    a dict back in — counters and histogram lifetimes add, gauges take
    the incoming value (last writer wins, which is the only sane merge
    for a point-in-time reading).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- write side ---------------------------------------------------- #
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, dict(labels))
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, dict(labels))
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, dict(labels))
        return metric

    def increment(self, name: str, amount: float = 1.0, **labels) -> None:
        with self._lock:
            key = (name, _label_key(labels))
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, dict(labels))
            metric.value += amount

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, labels)
            metric.reservoir.observe(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        with self._lock:
            key = (name, _label_key(labels))
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, dict(labels))
            metric.value = float(value)

    # -- read side ----------------------------------------------------- #
    def snapshot(self) -> dict:
        """Picklable point-in-time view of every metric."""
        with self._lock:
            return {
                "counters": [
                    {"name": c.name, "labels": dict(c.labels),
                     "value": c.value}
                    for c in self._counters.values()
                ],
                "gauges": [
                    {"name": g.name, "labels": dict(g.labels),
                     "value": g.value}
                    for g in self._gauges.values()
                ],
                "histograms": [
                    {"name": h.name, "labels": dict(h.labels),
                     **h.reservoir.as_dict(),
                     "samples": h.reservoir.samples()}
                    for h in self._histograms.values()
                ],
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker process) in."""
        with self._lock:
            for entry in snapshot.get("counters", ()):
                key = (entry["name"], _label_key(entry.get("labels")))
                metric = self._counters.get(key)
                if metric is None:
                    metric = self._counters[key] = Counter(
                        entry["name"], dict(entry.get("labels") or {}))
                metric.value += entry["value"]
            for entry in snapshot.get("gauges", ()):
                key = (entry["name"], _label_key(entry.get("labels")))
                metric = self._gauges.get(key)
                if metric is None:
                    metric = self._gauges[key] = Gauge(
                        entry["name"], dict(entry.get("labels") or {}))
                metric.value = entry["value"]
            for entry in snapshot.get("histograms", ()):
                key = (entry["name"], _label_key(entry.get("labels")))
                metric = self._histograms.get(key)
                if metric is None:
                    metric = self._histograms[key] = Histogram(
                        entry["name"], dict(entry.get("labels") or {}))
                incoming = Reservoir(maxlen=metric.reservoir.maxlen,
                                     samples=entry.get("samples") or ())
                # Lifetime stats come from the snapshot, not the window
                # replay (the window may have rolled off observations).
                incoming.count = entry.get("count", incoming.count)
                incoming.total = entry.get("total", incoming.total)
                if incoming.count:
                    incoming.min = entry.get("min", incoming.min)
                    incoming.max = entry.get("max", incoming.max)
                metric.reservoir.merge(incoming)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_DEFAULT_METRICS = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    """The process-wide metrics registry instrumentation writes into."""
    return _DEFAULT_METRICS
