"""Exporters for traces and metrics.

Three output formats, matching the three audiences:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing`` for interactive flame-chart inspection of a
  reduce or a serve-bench run.  It is also the one run artifact of
  ``--trace-out``: the format's ``otherData`` slot carries the run
  record, the metrics snapshot and the health verdict beside the spans;
* :func:`to_prometheus` — the Prometheus text exposition format, for
  scraping counters/gauges/histograms (span timings included) into a
  monitoring stack;
* :func:`span_tree_report` — a human-readable indented span tree for
  terminals, the quickest "where did the time go" view.

Everything operates on plain :class:`~repro.obs.tracing.Span` lists and
snapshot dicts, so exporters work identically on live tracers and on
spans shipped home from worker processes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.tracing import Span

__all__ = [
    "span_tree_report",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
]

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _as_span(span) -> Span:
    return span if isinstance(span, Span) else Span.from_dict(span)


def to_chrome_trace(spans, *, run: dict | None = None,
                    metrics: dict | None = None, health=None) -> dict:
    """Render spans as a Chrome trace-event JSON document (dict).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; thread-name metadata events make the Perfetto track
    labels readable.  ``args`` carries the span/parent ids, tags and
    error status so the hierarchy survives into the UI.

    ``run`` (what ran: command, arguments, git revision, duration, exit
    code), ``metrics`` (a :meth:`MetricsRegistry.snapshot
    <repro.obs.metrics.MetricsRegistry.snapshot>`, stored with its
    histograms as summaries, without their reservoir samples) and
    ``health`` (a :class:`~repro.obs.health.HealthReport`, stored as its
    ``as_dict``) go under ``otherData``, the format's metadata slot that
    trace viewers show and ignore.
    """
    events = []
    tids: dict[tuple[int, str], int] = {}
    for raw in spans:
        span = _as_span(raw)
        tid_key = (span.pid, span.thread)
        tid = tids.get(tid_key)
        if tid is None:
            tid = tids[tid_key] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": span.pid,
                "tid": tid, "args": {"name": span.thread or f"tid{tid}"},
            })
        args = {"span_id": span.span_id, "trace_id": span.trace_id}
        if span.parent_id:
            args["parent_id"] = span.parent_id
        if span.tags:
            args.update({str(k): v for k, v in span.tags.items()})
        if span.status != "ok":
            args["status"] = span.status
            if span.error:
                args["error"] = span.error
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start_time * 1e6,
            "dur": span.duration * 1e6,
            "pid": span.pid,
            "tid": tid,
            "args": args,
        })
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    other = {}
    if run is not None:
        other["run"] = run
    if metrics is not None:
        other["metrics"] = {
            **metrics,
            "histograms": [{k: v for k, v in entry.items() if k != "samples"}
                           for entry in metrics.get("histograms", ())]}
    if health is not None:
        other["health"] = health.as_dict()
    if other:
        document["otherData"] = other
    return document


def write_chrome_trace(spans, path, **other_data) -> Path:
    """Write :func:`to_chrome_trace` output (``other_data`` being its
    ``run``/``metrics``/``health`` keywords) to ``path`` and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(spans, **other_data),
                               default=str, indent=1))
    return path


def _metric_name(name: str) -> str:
    name = _METRIC_NAME_RE.sub("_", name)
    return name if name.startswith("repro_") else f"repro_{name}"


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        # Exposition-format escapes: backslash, quote AND newline — an
        # unescaped newline in a label value splits the sample line and
        # corrupts everything after it.
        value = (str(labels[key]).replace("\\", "\\\\")
                 .replace('"', '\\"').replace("\n", "\\n"))
        parts.append(f'{_LABEL_NAME_RE.sub("_", str(key))}="{value}"')
    return "{" + ",".join(parts) + "}"


def to_prometheus(metrics_snapshot: dict | None = None) -> str:
    """Render a :meth:`MetricsRegistry.snapshot
    <repro.obs.metrics.MetricsRegistry.snapshot>` dict in the Prometheus
    text exposition format.

    Histograms come out as summaries (quantiles + ``_sum``/``_count``);
    span timings are the ``span.seconds`` histogram, so they render as
    ``repro_span_seconds{quantile="...",span="..."}``.
    """
    lines: list[str] = []
    snapshot = metrics_snapshot or {}
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = _metric_name(entry["name"]) + "_total"
        declare(name, "counter")
        lines.append(
            f"{name}{_labels_text(entry.get('labels') or {})}"
            f" {entry['value']:g}")
    for entry in snapshot.get("gauges", ()):
        name = _metric_name(entry["name"])
        declare(name, "gauge")
        lines.append(
            f"{name}{_labels_text(entry.get('labels') or {})}"
            f" {entry['value']:g}")
    for entry in snapshot.get("histograms", ()):
        name = _metric_name(entry["name"])
        declare(name, "summary")
        labels = dict(entry.get("labels") or {})
        for q, value in (("0.5", entry.get("p50", 0.0)),
                         ("0.99", entry.get("p99", 0.0))):
            lines.append(
                f"{name}{_labels_text({**labels, 'quantile': q})}"
                f" {value:g}")
        lines.append(f"{name}_sum{_labels_text(labels)}"
                     f" {entry.get('total', 0.0):g}")
        lines.append(f"{name}_count{_labels_text(labels)}"
                     f" {entry.get('count', 0):g}")
    return "\n".join(lines) + "\n" if lines else ""


def span_tree_report(spans, *, min_duration: float = 0.0) -> str:
    """Human-readable indented tree of spans (roots first, children by
    start time).  ``min_duration`` (seconds) prunes noise spans."""
    records = [_as_span(s) for s in spans]
    by_id = {s.span_id: s for s in records}
    children: dict[str | None, list[Span]] = {}
    roots: list[Span] = []
    for span in records:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    roots.sort(key=lambda s: s.start_time)

    lines: list[str] = []

    def survives(span: Span) -> bool:
        """A span stays when it (or any descendant) beats the floor —
        pruning a fast parent must not orphan its slow children."""
        if span.duration >= min_duration:
            return True
        return any(survives(child)
                   for child in children.get(span.span_id, ()))

    def render(span: Span, depth: int) -> None:
        if not survives(span):
            return
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        flag = "" if span.status == "ok" else f"  !! {span.status}"
        suffix = f"  [{tags}]" if tags else ""
        lines.append(f"{'  ' * depth}{span.name:<{max(1, 40 - 2 * depth)}}"
                     f" {span.duration * 1e3:10.3f} ms{suffix}{flag}")
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda s: s.start_time):
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    if not lines:
        return "(no spans recorded)\n"
    header = f"{'span':<40} {'duration':>13}"
    return "\n".join([header, "-" * len(header), *lines]) + "\n"
