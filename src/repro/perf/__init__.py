"""Performance regression-gated benchmarking.

Phase timings are not kept here: every ``trace_span`` close records its
duration into the ``span.seconds`` histogram of
:func:`repro.obs.default_metrics`, which is what the workloads read.

Contents
--------
``bench``
    :class:`BenchmarkRunner` — times named workloads, writes
    ``benchmarks/results/*.json`` payloads, and
    :func:`check_regressions` gates speedup ratios against a checked-in
    baseline.
``workloads``
    The named reduction workloads behind the ``repro bench`` CLI
    subcommand (imported lazily by the CLI — not re-exported here, so
    plain ``import repro.perf`` stays light).
"""

from repro.perf.bench import (
    BenchmarkRunner,
    check_regressions,
    format_workloads,
    load_results,
)

__all__ = [
    "BenchmarkRunner",
    "check_regressions",
    "format_workloads",
    "load_results",
]
