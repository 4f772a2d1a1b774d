"""Unified metrics core: counters, gauges and reservoir histograms.

This module is the single home of the library's aggregates and of the
percentile arithmetic.  Span timings land here (every span close
observes the ``span.seconds`` histogram, see :mod:`repro.obs.tracing`),
and so do a ``ModelServer``'s serving counters, latency histogram and
queue-depth gauges (read back by :mod:`repro.serve.stats`).

* :func:`percentile` — linear-interpolated percentile of a sample list,
  pinned to ``0.0`` for the empty sample (serving dashboards expect a
  number, not an exception, before the first request lands);
* :class:`Reservoir` — a bounded sliding window of observations with
  ``p50``/``p99`` accessors built on :func:`percentile`;
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the classic
  metric trio, keyed by name + label tuple (plain records: only the
  registry mutates them, under its lock);
* :class:`MetricsRegistry` — a thread-safe bag of the above with a
  plain-dict ``snapshot()`` for the exporters and the ``--trace-out``
  run artifact.

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

    def __init__(self, maxlen: int = DEFAULT_RESERVOIR_SIZE) -> None:
        self._window = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

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


@dataclass
class Gauge:
    """Set-to-current-value metric (queue depths, warm-set bytes, ...)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0


class Histogram:
    """Reservoir-backed distribution metric (one name, one label set)."""

    __slots__ = ("name", "labels", "reservoir")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.reservoir = Reservoir()


class MetricsRegistry:
    """Thread-safe bag of counters, gauges and histograms.

    Metrics are identified by ``(name, sorted label items)``; the helpers
    create on first touch.  ``snapshot()`` returns a plain
    JSON-serialisable dict of every metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- write side (every mutation holds the registry lock) ----------- #
    @staticmethod
    def _series(table: dict, factory, name: str, labels: dict):
        """The series ``name{labels}`` of ``table``, created on first
        touch (the caller holds the lock)."""
        key = (name, _label_key(labels))
        metric = table.get(key)
        if metric is None:
            metric = table[key] = factory(name, dict(labels))
        return metric

    def increment(self, name: str, amount: float = 1.0, **labels) -> None:
        with self._lock:
            counter = self._series(self._counters, Counter, name, labels)
            counter.value += amount

    def observe(self, name: str, value: float, **labels) -> None:
        with self._lock:
            histogram = self._series(self._histograms, Histogram, name,
                                     labels)
            histogram.reservoir.observe(value)

    def set_gauge(self, name: str, value: float, *, peak: str | None = None,
                  **labels) -> None:
        """Set a gauge; with ``peak``, raise the gauge named ``peak``
        (same labels) to the new value in the same locked step, so a
        depth and its high-water mark never disagree."""
        with self._lock:
            gauge = self._series(self._gauges, Gauge, name, labels)
            gauge.value = float(value)
            if peak is not None:
                high = self._series(self._gauges, Gauge, peak, labels)
                high.value = max(high.value, gauge.value)

    def remove(self, **labels) -> int:
        """Drop every series whose labels include all of ``labels`` (a
        closed server's, say); returns how many were dropped."""
        match = labels.items()
        dropped = 0
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for key in [key for key, metric in table.items()
                            if match <= metric.labels.items()]:
                    del table[key]
                    dropped += 1
        return dropped

    # -- read side ----------------------------------------------------- #
    def snapshot(self, **labels) -> dict:
        """Plain-dict point-in-time view of every metric — or, given
        ``labels``, of the series whose labels include every one of
        them (one server's serving series, say)."""
        match = labels.items()

        def selected(table: dict) -> list:
            return [m for m in table.values() if match <= m.labels.items()]

        with self._lock:
            return {
                "counters": [
                    {"name": c.name, "labels": dict(c.labels),
                     "value": c.value}
                    for c in selected(self._counters)
                ],
                "gauges": [
                    {"name": g.name, "labels": dict(g.labels),
                     "value": g.value}
                    for g in selected(self._gauges)
                ],
                "histograms": [
                    {"name": h.name, "labels": dict(h.labels),
                     **h.reservoir.as_dict(),
                     "samples": h.reservoir.samples()}
                    for h in selected(self._histograms)
                ],
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_DEFAULT_METRICS = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    """The process-wide metrics registry instrumentation writes into."""
    return _DEFAULT_METRICS
