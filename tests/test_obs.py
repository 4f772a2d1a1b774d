"""Tests for the unified observability layer (repro.obs).

Covers the span tracer (nesting/parent attribution, exception safety, the
disabled no-op path, bounded buffers), explicit context propagation across
``SweepEngine`` thread *and* process workers (with bit-identity of the
traced numerics), process-worker telemetry merging back into the parent
registries, the ``span.seconds`` aggregate every span close feeds
(tracing on or off), the shared Reservoir/percentile core that
``repro.serve.stats`` builds on, the three exporters (Chrome trace-event JSON, Prometheus text exposition, span-tree
report), the serve-stack span topology of a coalesced batch, and the
committed ``obs_overhead`` acceptance JSON.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import (
    FrequencyAnalysis,
    ModelServer,
    ModelStore,
    QueryRequest,
    SweepEngine,
    bdsm_reduce,
    make_benchmark,
)
from repro.obs import (
    MetricsRegistry,
    Reservoir,
    Span,
    Tracer,
    capture_context,
    default_metrics,
    disable_tracing,
    drain_spans,
    enable_tracing,
    percentile,
    span_tree_report,
    to_chrome_trace,
    to_prometheus,
    trace_span,
    traced,
    tracing_enabled,
)
from repro.obs.tracing import SPAN_SECONDS, attach_context
from repro.serve.stats import KindStats


@pytest.fixture()
def tracing():
    """Enable tracing for one test, leaving the process clean after."""
    drain_spans()
    enable_tracing()
    yield
    drain_spans()
    disable_tracing()


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


# --------------------------------------------------------------------- #
# Span lifecycle
# --------------------------------------------------------------------- #
class TestSpans:
    def test_nested_spans_share_trace_and_chain_parents(self, tracing):
        with trace_span("outer") as outer:
            with trace_span("middle") as middle:
                with trace_span("inner", depth=2) as inner:
                    pass
        spans = drain_spans()
        assert [s.name for s in spans] == ["inner", "middle", "outer"]
        assert inner.parent_id == middle.span_id
        assert middle.parent_id == outer.span_id
        assert outer.parent_id is None
        assert len({s.trace_id for s in spans}) == 1
        assert inner.tags == {"depth": 2}
        assert all(s.duration >= 0.0 for s in spans)

    def test_siblings_share_parent(self, tracing):
        with trace_span("parent") as parent:
            with trace_span("a"):
                pass
            with trace_span("b"):
                pass
        spans = {s.name: s for s in drain_spans()}
        assert spans["a"].parent_id == parent.span_id
        assert spans["b"].parent_id == parent.span_id

    def test_exception_closes_and_flags_span(self, tracing):
        with pytest.raises(ValueError, match="boom"):
            with trace_span("outer"):
                with trace_span("failing"):
                    raise ValueError("boom")
        spans = {s.name: s for s in drain_spans()}
        assert spans["failing"].status == "error"
        assert "boom" in spans["failing"].error
        # The exception propagated through the parent, flagging it too,
        # and both spans still closed with the context unwound.
        assert spans["outer"].status == "error"
        assert spans["outer"].duration >= spans["failing"].duration
        with trace_span("after") as after:
            pass
        assert after.parent_id is None

    def test_disabled_path_keeps_no_record_but_times(self):
        disable_tracing()
        assert not tracing_enabled()
        metrics = default_metrics()
        metrics.reset()
        with trace_span("ignored", tag=1) as s:
            s.set_tag("still", "ignored")
        assert drain_spans() == []
        assert _span_counts(metrics) == {"ignored": 1}
        metrics.reset()

    def test_traced_decorator_wraps_calls(self, tracing):
        @traced("unit.work", flavor="test")
        def work(x):
            return x + 1

        assert work(41) == 42
        assert work.__name__ == "work"
        (span,) = drain_spans()
        assert span.name == "unit.work"
        assert span.tags == {"flavor": "test"}

    def test_buffer_bounds_and_drops(self):
        tracer = Tracer(buffer_size=2)
        for k in range(4):
            with tracer.span(f"s{k}"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.spans() == [] and tracer.dropped == 0

    def test_span_dict_round_trip(self, tracing):
        with pytest.raises(RuntimeError):
            with trace_span("rt", a=1):
                raise RuntimeError("x")
        (span,) = drain_spans()
        clone = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert clone == span


# --------------------------------------------------------------------- #
# Cross-worker propagation
# --------------------------------------------------------------------- #
class TestContextPropagation:
    def test_capture_attach_reparents(self, tracing):
        with trace_span("submitter") as parent:
            ctx = capture_context()
        with attach_context(ctx):
            with trace_span("worker.side"):
                pass
        worker = _by_name(drain_spans(), "worker.side")[0]
        assert worker.parent_id == parent.span_id
        assert worker.trace_id == parent.trace_id

    def test_attach_none_is_inert(self, tracing):
        with attach_context(None):
            with trace_span("rootless"):
                pass
        assert _by_name(drain_spans(), "rootless")[0].parent_id is None

    def test_thread_workers_attach_to_submitting_span(
            self, tracing, smoke_benchmark):
        serial = FrequencyAnalysis(n_points=8).sweep(smoke_benchmark)
        drain_spans()
        with trace_span("sweep.root") as root:
            parallel = FrequencyAnalysis(
                n_points=8,
                engine=SweepEngine(jobs=2)).sweep(smoke_benchmark)
        assert np.array_equal(serial.values, parallel.values)
        chunks = _by_name(drain_spans(), "engine.chunk")
        assert len(chunks) >= 2
        assert all(c.parent_id == root.span_id for c in chunks)
        assert {c.tags["executor"] for c in chunks} == {"thread"}

    def test_process_workers_ship_spans_home(
            self, tracing, smoke_benchmark):
        serial = FrequencyAnalysis(n_points=6).sweep(smoke_benchmark)
        drain_spans()
        with trace_span("sweep.root") as root:
            with SweepEngine(jobs=2, executor="process") as engine:
                parallel = FrequencyAnalysis(
                    n_points=6, engine=engine).sweep(smoke_benchmark)
        assert np.array_equal(serial.values, parallel.values)
        chunks = _by_name(drain_spans(), "engine.chunk")
        assert len(chunks) >= 2
        assert all(c.parent_id == root.span_id for c in chunks)
        assert all(c.pid != os.getpid() for c in chunks)

    def test_serial_engine_never_wraps(self, tracing, smoke_benchmark):
        FrequencyAnalysis(n_points=5,
                          engine=SweepEngine(jobs=1)).sweep(smoke_benchmark)
        assert _by_name(drain_spans(), "engine.chunk") == []


def _instrumented_scenario(k: int) -> int:
    """Module-level (picklable) worker body carrying telemetry."""
    from repro.obs import default_metrics

    with trace_span("worker.payload", k=k):
        default_metrics().increment("worker.calls", parity=str(k % 2))
    return k * k


def _span_histograms(metrics) -> dict:
    return {e["labels"]["span"]: e for e in metrics.snapshot()["histograms"]
            if e["name"] == SPAN_SECONDS}


def _span_counts(metrics) -> dict:
    return {span: e["count"] for span, e in _span_histograms(metrics).items()}


class TestWorkerTelemetryMerge:
    def test_process_worker_counters_and_timers_merge(self):
        metrics = default_metrics()
        metrics.reset()
        with SweepEngine(jobs=2, executor="process") as engine:
            out = engine.map_scenarios(_instrumented_scenario,
                                       list(range(6)))
        assert out == [k * k for k in range(6)]
        stat = _span_histograms(metrics)["worker.payload"]
        assert stat["count"] == 6
        assert stat["total"] > 0.0
        assert stat["p99"] >= stat["p50"] >= 0.0
        counts = {tuple(sorted(e["labels"].items())): e["value"]
                  for e in metrics.snapshot()["counters"]
                  if e["name"] == "worker.calls"}
        assert counts[(("parity", "0"),)] == 3
        assert counts[(("parity", "1"),)] == 3
        metrics.reset()

    @pytest.mark.parametrize("traced_run", [False, True])
    def test_process_fan_out_counts_each_span_once(self, traced_run):
        # Workers ship span.seconds inside their metrics snapshot and the
        # parent ingests their spans without observing them again, so the
        # count is exact with tracing off and on.  The second engine's
        # workers fork from a parent that already holds 6 observations;
        # they must not ship those home again.
        metrics = default_metrics()
        metrics.reset()
        drain_spans()
        if traced_run:
            enable_tracing()
        try:
            for expected in (6, 12):
                with SweepEngine(jobs=2, executor="process") as engine:
                    engine.map_scenarios(_instrumented_scenario,
                                         list(range(6)))
                counts = _span_counts(metrics)
                assert counts["worker.payload"] == expected
            spans = _by_name(drain_spans(), "worker.payload")
            assert len(spans) == (12 if traced_run else 0)
        finally:
            disable_tracing()
            drain_spans()
            metrics.reset()


# --------------------------------------------------------------------- #
# Metrics core
# --------------------------------------------------------------------- #
class TestReservoir:
    def test_empty_percentiles_pinned_to_zero(self):
        assert percentile([], 50) == 0.0
        r = Reservoir()
        assert r.p50 == 0.0 and r.p99 == 0.0

    def test_kind_stats_empty_percentiles_are_zero(self):
        stats = KindStats()
        assert stats.p50 == 0.0
        assert stats.p99 == 0.0

    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0

    def test_window_is_bounded_but_count_is_lifetime(self):
        r = Reservoir(maxlen=4)
        for v in range(10):
            r.observe(float(v))
        assert r.count == 10
        assert len(r.samples()) == 4
        assert r.min == 0.0 and r.max == 9.0

    def test_extend_window_leaves_lifetime_scalars(self):
        r = Reservoir()
        r.observe(1.0)
        r.extend_window([5.0, 6.0])
        assert r.count == 1
        assert r.total == 1.0
        assert sorted(r.samples()) == [1.0, 5.0, 6.0]

    def test_merge_combines_everything(self):
        a, b = Reservoir(), Reservoir()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2 and a.total == 4.0 and a.max == 3.0


class TestMetricsRegistry:
    def test_counters_keyed_by_labels(self):
        reg = MetricsRegistry()
        reg.increment("hits", kind="a")
        reg.increment("hits", kind="a")
        reg.increment("hits", kind="b")
        snap = {tuple(sorted(e["labels"].items())): e["value"]
                for e in reg.snapshot()["counters"]}
        assert snap[(("kind", "a"),)] == 2
        assert snap[(("kind", "b"),)] == 1

    def test_merge_snapshot_adds_counters_and_replays_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("n")
        b.increment("n", 4)
        b.observe("lat", 0.25)
        b.set_gauge("depth", 7)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"][0]["value"] == 5
        (hist,) = snap["histograms"]
        assert hist["count"] == 1 and hist["p50"] == pytest.approx(0.25)
        (gauge,) = snap["gauges"]
        assert gauge["value"] == 7


class TestSpanAggregate:
    """``span.seconds``: the one timing record, fed by every span close."""

    @pytest.fixture()
    def metrics(self):
        metrics = default_metrics()
        metrics.reset()
        yield metrics
        disable_tracing()
        drain_spans()
        metrics.reset()

    @pytest.mark.parametrize("traced_run", [False, True])
    def test_duration_recorded_when_block_raises(self, metrics, traced_run):
        if traced_run:
            enable_tracing()
        with pytest.raises(RuntimeError):
            with trace_span("broken"):
                raise RuntimeError("boom")
        (entry,) = _span_histograms(metrics).values()
        assert entry["labels"] == {"span": "broken"}
        assert entry["count"] == 1 and entry["total"] >= 0.0

    def test_counts_exact_under_threads(self, metrics):
        def work():
            for _ in range(200):
                with trace_span("t"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert _span_counts(metrics) == {"t": 800}

    def test_percentiles(self, metrics):
        for v in (0.1, 0.2, 0.3):
            metrics.observe(SPAN_SECONDS, v, span="phase")
        entry = _span_histograms(metrics)["phase"]
        assert entry["p50"] == pytest.approx(0.2)
        assert entry["p99"] == pytest.approx(0.3, rel=0.02)

    def test_snapshot_merge_and_reset(self, metrics):
        with trace_span("phase"):
            pass
        snap = metrics.snapshot()
        json.dumps(snap)  # what crosses process boundaries and --json-out
        other = MetricsRegistry()
        other.merge_snapshot(snap)
        (merged,) = other.snapshot()["histograms"]
        assert merged["count"] == 1 and len(merged["samples"]) == 1
        metrics.reset()
        assert metrics.snapshot() == {"counters": [], "gauges": [],
                                      "histograms": []}

    def test_tags_never_become_labels(self, metrics):
        for key in ("a", "b", "c"):
            with trace_span("store.get", key=key):
                pass
        enable_tracing()
        with trace_span("store.get", key="d"):
            pass
        assert _span_counts(metrics) == {"store.get": 4}

    def test_ingest_does_not_observe(self, metrics):
        tracer = Tracer()
        with tracer.span("remote"):
            pass
        shipped = [span.as_dict() for span in tracer.drain()]
        metrics.reset()
        tracer.ingest(shipped)
        assert len(tracer.spans()) == 1
        assert _span_counts(metrics) == {}


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
class TestExporters:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("root", phase="x") as root:
            with tracer.span("child"):
                pass
        return tracer.drain(), root

    def test_chrome_trace_round_trips_hierarchy(self, tmp_path):
        spans, root = self._spans()
        doc = json.loads(json.dumps(to_chrome_trace(spans)))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"root", "child"}
        child = next(e for e in events if e["name"] == "child")
        assert child["args"]["parent_id"] == root.span_id
        assert all(e["dur"] >= 0 for e in events)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "thread_name"

    def test_chrome_trace_accepts_dicts(self):
        spans, _ = self._spans()
        from_dicts = to_chrome_trace([s.as_dict() for s in spans])
        assert from_dicts == to_chrome_trace(spans)

    def test_prometheus_exposition_shape(self):
        metrics = MetricsRegistry()
        metrics.increment("store.fetch", result="hit")
        metrics.set_gauge("queue.depth", 3)
        metrics.observe("latency", 0.5)
        metrics.observe(SPAN_SECONDS, 0.25, span="bdsm.project")
        text = to_prometheus(metrics.snapshot())
        assert '# TYPE repro_store_fetch_total counter' in text
        assert 'repro_store_fetch_total{result="hit"} 1' in text
        assert 'repro_queue_depth 3' in text
        assert 'repro_latency{quantile="0.5"} 0.5' in text
        assert 'repro_latency_count 1' in text
        assert 'repro_span_seconds_count{span="bdsm.project"} 1' in text
        assert ('repro_span_seconds{quantile="0.5",span="bdsm.project"}'
                ' 0.25') in text
        # every sample line's metric name was TYPE-declared
        declared = {line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            base = name
            for suffix in ("_sum", "_count"):
                if base.endswith(suffix) and base[:-len(suffix)] in declared:
                    base = base[:-len(suffix)]
            assert base in declared

    def test_span_tree_report_indents_and_flags(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("bad"):
                    raise RuntimeError("nope")
        report = span_tree_report(tracer.drain())
        lines = report.splitlines()
        root_line = next(line for line in lines if "root" in line)
        bad_line = next(line for line in lines if "bad" in line)
        assert bad_line.startswith("  ")
        assert not root_line.startswith(" ")
        assert "!! error" in bad_line

    def test_span_tree_report_empty(self):
        assert span_tree_report([]) == "(no spans recorded)\n"

    def test_prometheus_empty_snapshots_are_empty(self):
        assert to_prometheus(None) == ""
        assert to_prometheus({}) == ""
        assert to_prometheus(MetricsRegistry().snapshot()) == ""

    def test_prometheus_escapes_label_newlines(self):
        # Regression: an unescaped newline in a label value splits the
        # sample line and corrupts every sample after it.
        metrics = MetricsRegistry()
        metrics.increment("store.fetch", detail='line1\nline2"quoted"\\')
        text = to_prometheus(metrics.snapshot())
        sample_lines = [line for line in text.splitlines()
                        if not line.startswith("#")]
        assert len(sample_lines) == 1
        assert '\\n' in sample_lines[0]
        assert '\\"quoted\\"' in sample_lines[0]
        assert sample_lines[0].endswith(" 1")

    def test_prometheus_type_lines_deduplicated(self):
        metrics = MetricsRegistry()
        metrics.increment("store.fetch", result="hit")
        metrics.increment("store.fetch", result="miss")
        metrics.set_gauge("queue.depth", 1, kind="a")
        metrics.set_gauge("queue.depth", 2, kind="b")
        text = to_prometheus(metrics.snapshot())
        type_lines = [line for line in text.splitlines()
                      if line.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines)) == 2

    def test_span_tree_pruning_keeps_parents_of_slow_children(self):
        def span(name, span_id, parent_id, duration):
            return {"name": name, "trace_id": "t", "span_id": span_id,
                    "parent_id": parent_id, "duration": duration}

        report = span_tree_report(
            [span("root", "a", None, 0.001),
             span("slow", "b", "a", 0.5),
             span("fast", "c", "a", 0.001)],
            min_duration=0.1)
        # The fast root survives because its slow child does; the fast
        # leaf is pruned.
        assert "root" in report
        assert "slow" in report
        assert "fast" not in report


# --------------------------------------------------------------------- #
# Serve-stack topology
# --------------------------------------------------------------------- #
class TestServeSpans:
    def test_coalesced_batch_has_plan_step_lock_eval_scatter(
            self, tracing, tmp_path):
        system = make_benchmark("ckt1", scale="smoke")
        store = ModelStore(tmp_path / "store")
        bdsm_reduce(system, 3, store=store)
        drain_spans()
        with ModelServer(store) as server:
            server.warm()
            (name,) = server.registry.known_names()
            requests = [
                QueryRequest("transfer", name,
                             {"s_values": [1e6j * (k + 1)]})
                for k in range(3)]
            server.serve(requests)
        spans = drain_spans()
        by_name = {s.name: s for s in spans}
        plan = by_name["serve.plan"]
        assert plan.tags["n_requests"] == 3
        steps = _by_name(spans, "serve.step")
        assert steps and all(s.parent_id == plan.span_id for s in steps)
        # Coalescing folded the per-model transfers into one step.
        assert any(s.tags.get("n_requests", 0) == 3 for s in steps)
        step_ids = {s.span_id for s in steps}
        assert by_name["serve.lock_wait"].parent_id in step_ids
        assert by_name["serve.engine_eval"].parent_id in step_ids
        assert by_name["serve.scatter"].parent_id == plan.span_id

    def test_warm_set_metrics_counted(self, tmp_path):
        metrics = default_metrics()
        metrics.reset()
        system = make_benchmark("ckt1", scale="smoke")
        store = ModelStore(tmp_path / "store")
        bdsm_reduce(system, 3, store=store)
        with ModelServer(store) as server:
            server.warm()
            (name,) = server.registry.known_names()
            server.transfer(name, np.array([1e6j]))
            server.transfer(name, np.array([1e7j]))
        hits = [e for e in metrics.snapshot()["counters"]
                if e["name"] == "serve.warm_set"
                and e["labels"].get("result") == "hit"]
        assert hits and hits[0]["value"] >= 2
        metrics.reset()


# --------------------------------------------------------------------- #
# Committed acceptance artifact
# --------------------------------------------------------------------- #
class TestObsOverheadArtifact:
    def test_committed_overhead_within_budget(self):
        path = Path(__file__).resolve().parents[1] / "benchmarks" \
            / "results" / "obs_overhead.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["scales"], "no recorded scales"
        for scale, entry in payload["scales"].items():
            budget = entry["overhead_budget"]
            assert budget <= 0.03
            assert entry["disabled_overhead_fraction"] <= budget, scale
            assert entry["spans_per_run"] > 0
            assert entry["seconds"] > 0.0
