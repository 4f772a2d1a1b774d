"""Hierarchical span tracer with cross-thread propagation.

A *span* is a named, timed section of work with a parent: PRIMA's Krylov
phase is a child of the reduce call that ran it, a solver factorization
is a child of whatever phase needed the factor, a serve step is a child
of the ``serve.plan`` request that scheduled it.  Parenthood is tracked
through a :class:`contextvars.ContextVar`, so ordinary nested ``with``
blocks produce the right tree with no plumbing.

Four properties drive the design:

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
* **Cross-thread parenthood by context copy.**  Contextvars do not
  follow work onto other threads by themselves, so every thread hand-off
  the library makes (``SweepEngine`` tasks, ``ModelServer`` steps, the
  load generator's clients) runs its task in
  :func:`contextvars.copy_context` of the submitter; worker spans then
  carry the submitting span as parent, and the open health scopes of
  :mod:`repro.obs.health` travel with it.

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
    "Tracer",
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
    block into ``span.seconds`` (also when it raises) and into its own
    ``duration``, keeps no record and ignores tags."""

    __slots__ = ("name", "_t0", "duration")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_TimedSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration = time.perf_counter() - self._t0
        _METRICS.observe(SPAN_SECONDS, self.duration, span=self.name)

    def set_tag(self, key: str, value) -> None:
        return None


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

    def current(self) -> Span | None:
        return self._current.get()

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
    the duration into ``span.seconds{span=name}`` and leaves it on the
    yielded object's ``duration``.  This is the one call sprinkled
    through hot paths, so the disabled branch keeps no record and
    touches no contextvar.
    """
    if not _TRACING_ENABLED:
        return _TimedSpan(name)
    return _DEFAULT_TRACER.span(name, **tags)


def current_span() -> Span | None:
    """The span currently open in this context, if any."""
    return _DEFAULT_TRACER.current()


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
