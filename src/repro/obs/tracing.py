"""Hierarchical span tracer with cross-thread/process propagation.

A *span* is a named, timed section of work with a parent: PRIMA's Krylov
phase is a child of the reduce call that ran it, a solver factorization
is a child of whatever phase needed the factor, a serve step is a child
of the ``serve.plan`` request that scheduled it.  Parenthood is tracked
through a :class:`contextvars.ContextVar`, so ordinary nested ``with``
blocks produce the right tree with no plumbing.

Three properties drive the design:

* **Every span close is aggregated.**  Tracing on or off, a closing
  span observes its duration into the ``span.seconds`` histogram of the
  default :class:`~repro.obs.metrics.MetricsRegistry`, labelled
  ``span=<name>`` only (tags never become labels, so keys and shift
  values cannot grow the label set).  That histogram is the one timing
  record ``repro bench``, ``repro stats`` and ``/metrics`` read.
* **Cheap when disabled.**  ``trace_span()`` then returns a small
  slotted timer — one clock read each way and one histogram observe, no
  contextvar touch, no buffering.  The ``obs_overhead`` perf workload
  gates this (disabled-tracing overhead must stay <= 3 % on a cold
  PRIMA reduce).
* **Exception safety.**  The span context manager always closes the span
  and flags ``status="error"`` (with the exception repr) on the way out
  of a raising block; the original exception propagates untouched.
* **Explicit cross-worker propagation.**  Contextvars do not follow work
  onto pool threads or worker processes, so the submitting side calls
  :func:`capture_context` (a tiny picklable :class:`TraceContext`) and
  the worker re-attaches with :func:`attach_context`; worker spans then
  carry the submitting span as parent.  Process workers additionally
  ship their finished spans home as dicts for :meth:`Tracer.ingest`
  and their ``span.seconds`` histograms in the metrics snapshot (see
  ``SweepEngine``), so ingesting does not observe again.

Stdlib plus :mod:`repro.obs.metrics`; any layer of the library may
import this module.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.metrics import default_metrics

__all__ = [
    "SPAN_SECONDS",
    "Span",
    "TraceContext",
    "Tracer",
    "attach_context",
    "capture_context",
    "current_span",
    "default_tracer",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "trace_span",
    "traced",
    "tracing_enabled",
]

#: Finished spans kept in a tracer buffer before the oldest are dropped.
#: Big enough for a full serve-bench run, small enough to never matter.
DEFAULT_SPAN_BUFFER = 65536

#: Histogram every span close observes its duration into (seconds),
#: labelled ``span=<name>``.
SPAN_SECONDS = "span.seconds"

_METRICS = default_metrics()

_id_counter = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_id_counter):x}"


@dataclass
class Span:
    """One finished (or in-flight) section of traced work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_time: float = 0.0       # wall clock (time.time), cross-process
    duration: float = 0.0         # seconds, from perf_counter
    tags: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    pid: int = 0
    thread: str = ""
    _t0: float = field(default=0.0, repr=False, compare=False)

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "tags": dict(self.tags),
            "status": self.status,
            "error": self.error,
            "pid": self.pid,
            "thread": self.thread,
        }

    @staticmethod
    def from_dict(data: dict) -> "Span":
        return Span(name=data["name"], trace_id=data["trace_id"],
                    span_id=data["span_id"],
                    parent_id=data.get("parent_id"),
                    start_time=data.get("start_time", 0.0),
                    duration=data.get("duration", 0.0),
                    tags=dict(data.get("tags") or {}),
                    status=data.get("status", "ok"),
                    error=data.get("error"),
                    pid=data.get("pid", 0),
                    thread=data.get("thread", ""))


class _TimedSpan:
    """What ``trace_span`` returns while tracing is disabled: times the
    block into ``span.seconds`` (also when it raises), keeps no record
    and ignores tags."""

    __slots__ = ("name", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_TimedSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        _METRICS.observe(SPAN_SECONDS, time.perf_counter() - self._t0,
                         span=self.name)

    def set_tag(self, key: str, value) -> None:
        return None


@dataclass(frozen=True)
class TraceContext:
    """Picklable handle to the current span, for cross-worker hand-off."""

    trace_id: str | None = None
    span_id: str | None = None
    enabled: bool = False


class Tracer:
    """Span factory + bounded buffer of finished spans."""

    def __init__(self, buffer_size: int = DEFAULT_SPAN_BUFFER) -> None:
        self._current: ContextVar[Span | None] = ContextVar(
            "repro_obs_current_span", default=None)
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._buffer_size = buffer_size
        self.dropped = 0

    # -- span lifecycle ------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **tags):
        parent = self._current.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _new_id(), None
        record = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                      parent_id=parent_id, start_time=time.time(),
                      tags=dict(tags), pid=os.getpid(),
                      thread=threading.current_thread().name)
        record._t0 = time.perf_counter()
        token = self._current.set(record)
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.error = repr(exc)
            raise
        finally:
            record.duration = time.perf_counter() - record._t0
            self._current.reset(token)
            self._store(record)
            _METRICS.observe(SPAN_SECONDS, record.duration, span=name)

    def _store(self, record: Span) -> None:
        with self._lock:
            if len(self._finished) >= self._buffer_size:
                self.dropped += 1
            else:
                self._finished.append(record)

    # -- context hand-off ---------------------------------------------- #
    def current(self) -> Span | None:
        return self._current.get()

    def capture_context(self) -> TraceContext:
        span = self._current.get()
        if span is None:
            return TraceContext(enabled=tracing_enabled())
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id,
                            enabled=tracing_enabled())

    @contextmanager
    def attach(self, context: TraceContext | None):
        """Re-parent spans opened in this block under ``context``."""
        if context is None or context.span_id is None:
            yield
            return
        # A synthetic, never-stored anchor standing in for the remote
        # parent: children link to its ids, it is not itself a span.
        anchor = Span(name="<attached>", trace_id=context.trace_id,
                      span_id=context.span_id)
        token = self._current.set(anchor)
        try:
            yield
        finally:
            self._current.reset(token)

    # -- buffer management --------------------------------------------- #
    def drain(self) -> list[Span]:
        """Return and clear the finished-span buffer (oldest first)."""
        with self._lock:
            spans, self._finished = self._finished, []
            return spans

    def spans(self) -> list[Span]:
        """Finished spans without clearing the buffer."""
        with self._lock:
            return list(self._finished)

    def ingest(self, span_dicts) -> None:
        """Fold spans shipped home from a worker (as dicts) into the
        buffer.  Their durations are not observed again: the worker's
        ``span.seconds`` histogram arrives in its metrics snapshot."""
        for data in span_dicts:
            self._store(Span.from_dict(data))

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0


_DEFAULT_TRACER = Tracer()
_TRACING_ENABLED = False


def default_tracer() -> Tracer:
    """The process-wide tracer instrumentation writes into."""
    return _DEFAULT_TRACER


def enable_tracing() -> None:
    """Turn span recording on process-wide."""
    global _TRACING_ENABLED
    _TRACING_ENABLED = True


def disable_tracing() -> None:
    """Turn span recording off (``trace_span`` reverts to the
    aggregate-only timer)."""
    global _TRACING_ENABLED
    _TRACING_ENABLED = False


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _TRACING_ENABLED


def trace_span(name: str, **tags):
    """Open a span on the default tracer — or, while tracing is
    disabled, an aggregate-only timer.  Either way the close observes
    the duration into ``span.seconds{span=name}``.  This is the one call
    sprinkled through hot paths, so the disabled branch keeps no record
    and touches no contextvar.
    """
    if not _TRACING_ENABLED:
        return _TimedSpan(name)
    return _DEFAULT_TRACER.span(name, **tags)


def current_span() -> Span | None:
    """The span currently open in this context, if any."""
    return _DEFAULT_TRACER.current()


def capture_context() -> TraceContext:
    """Picklable handle to the current span (for worker hand-off)."""
    return _DEFAULT_TRACER.capture_context()


def attach_context(context: TraceContext | None):
    """Context manager re-parenting spans in the block under
    ``context`` (captured on the submitting side).  Also re-enables
    tracing inside a worker process when the submitter had it on."""
    if context is not None and context.enabled and not _TRACING_ENABLED:
        enable_tracing()
    return _DEFAULT_TRACER.attach(context)


def drain_spans() -> list[Span]:
    """Drain the default tracer's finished spans."""
    return _DEFAULT_TRACER.drain()


def traced(name: str, **tags):
    """Decorator opening a :func:`trace_span` named ``name`` around every
    call — the idiom for root spans on public entry points
    (``bdsm.reduce``, ``prima.reduce``, ...)."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace_span(name, **tags):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
