"""Unified observability layer: hierarchical spans + metrics core.

``repro.obs`` is the library's single source of truth for "where did the
time go".  It has two halves:

* :mod:`repro.obs.tracing` — a hierarchical span tracer with contextvar
  parent propagation (``SweepEngine`` and ``ModelServer`` worker threads
  run their tasks in a copy of the submitter's context), exception-safe
  closing, and a cheap disabled path (gated by the ``obs_overhead`` perf
  workload);
* :mod:`repro.obs.metrics` — counters, gauges and bounded-reservoir
  histograms with the one shared percentile implementation; a
  ``ModelServer`` records its serving counters, latency and queue depth
  here too (read back by :mod:`repro.serve.stats`).

The two meet in one place: every span close, tracing on or off, observes
its duration into the ``span.seconds`` histogram labelled
``span=<name>``.  That histogram is the only timing aggregate.

Exporters (:mod:`repro.obs.export`) render either half as Chrome
trace-event JSON (Perfetto), Prometheus text exposition, or an indented
span-tree report; the ``repro trace`` / ``repro stats`` subcommands and
the ``--trace-out`` flags are thin wrappers over them.

The *consume* side sits on top of those producers:

* :mod:`repro.obs.health` — numerical-health monitors with threshold
  watchdogs, collected by context-scoped :func:`collect_health` blocks
  into structured :class:`HealthReport` verdicts (each reducer opens a
  nested scope and attaches it to ``rom.health``);
* :mod:`repro.obs.ledger` — the append-only JSONL run flight recorder
  behind ``--ledger`` / ``repro obs report``;
* :mod:`repro.obs.diff` — trace profiles and the phase-attributed
  trace diff gating ``repro trace --diff BASELINE --budget 20%``;
* :mod:`repro.obs.endpoint` — the stdlib ``/metrics`` + ``/healthz``
  HTTP sidecar a live ``ModelServer`` exposes via ``--metrics-port``.

This package deliberately imports nothing from the rest of the library
(stdlib only), so every layer — linalg, mor, partition, analysis, store,
serve, perf — can instrument itself without import cycles.
"""

from repro.obs.diff import (
    PhaseDelta,
    check_budget,
    diff_profiles,
    format_diff,
    load_profile,
    parse_budget,
    span_rollup,
    trace_profile,
    write_profile,
)
from repro.obs.endpoint import TelemetryServer
from repro.obs.export import (
    span_tree_report,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
)
from repro.obs.health import (
    HealthCheck,
    HealthReport,
    classify,
    collect_health,
    health_enabled,
    record_health,
)
from repro.obs.ledger import (
    RunLedger,
    config_fingerprint,
    read_ledger,
    summarize_ledger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    default_metrics,
    percentile,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_span,
    default_tracer,
    disable_tracing,
    drain_spans,
    enable_tracing,
    trace_span,
    traced,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "PhaseDelta",
    "Reservoir",
    "RunLedger",
    "Span",
    "TelemetryServer",
    "Tracer",
    "check_budget",
    "classify",
    "collect_health",
    "config_fingerprint",
    "current_span",
    "default_metrics",
    "default_tracer",
    "diff_profiles",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "format_diff",
    "health_enabled",
    "load_profile",
    "parse_budget",
    "percentile",
    "read_ledger",
    "record_health",
    "span_rollup",
    "span_tree_report",
    "summarize_ledger",
    "to_chrome_trace",
    "to_prometheus",
    "trace_profile",
    "trace_span",
    "traced",
    "tracing_enabled",
    "write_chrome_trace",
    "write_profile",
]
