"""Tests for the numerical-health layer (repro.obs.health), the
trace-diff regression gate (repro.obs.diff), the run flight recorder
(repro.obs.ledger) and the HTTP telemetry endpoint (repro.obs.endpoint).

The fault-injection cases are the core: a deliberately de-orthogonalised
merge basis must come back flagged by the ortho watchdog, two reduces
running at once must each report only their own checks, a seeded
slow-phase profile must trip ``check_budget``, and a live server's
``/healthz`` must answer with the stats layer's actual verdict.
"""

from __future__ import annotations

import contextvars
import json
import threading
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro import (
    ModelRegistry,
    ModelServer,
    QueryRequest,
    SweepEngine,
    bdsm_reduce,
    clear_default_cache,
    make_benchmark,
    partitioned_reduce,
    prima_reduce,
)
from repro.linalg.orthogonalization import block_orthonormalize
from repro.obs.diff import (
    PhaseDelta,
    check_budget,
    diff_profiles,
    load_profile,
    parse_budget,
    span_rollup,
    trace_profile,
    write_profile,
)
from repro.obs.endpoint import TelemetryServer
from repro.obs.health import (
    HealthReport,
    classify,
    collect_health,
    health_enabled,
    record_health,
    reduce_with_health,
)
from repro.obs.ledger import (
    RunLedger,
    config_fingerprint,
    read_ledger,
    summarize_ledger,
)
from repro.obs.metrics import MetricsRegistry, default_metrics


# --------------------------------------------------------------------- #
# Classification and the monitor registry
# --------------------------------------------------------------------- #
class TestClassify:
    def test_above_direction(self):
        assert classify(1e-12, warn_at=1e-8, fail_at=1e-6) == "ok"
        assert classify(1e-7, warn_at=1e-8, fail_at=1e-6) == "warn"
        assert classify(1e-3, warn_at=1e-8, fail_at=1e-6) == "fail"

    def test_below_direction(self):
        assert classify(0.9, warn_at=0.5, fail_at=0.1,
                        direction="below") == "ok"
        assert classify(0.3, warn_at=0.5, fail_at=0.1,
                        direction="below") == "warn"
        assert classify(0.05, warn_at=0.5, fail_at=0.1,
                        direction="below") == "fail"

    def test_no_thresholds_is_informational(self):
        assert classify(1e9, warn_at=None, fail_at=None) == "ok"

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError, match="direction"):
            classify(1.0, warn_at=None, fail_at=None, direction="sideways")


class TestRecordHealth:
    def test_record_uses_default_thresholds(self):
        assert record_health("ortho.loss", 1e-14).status == "ok"
        assert record_health("ortho.loss", 1e-7).status == "warn"
        assert record_health("ortho.loss", 1e-3).status == "fail"

    def test_record_publishes_gauge_and_verdict_counter(self):
        def verdicts() -> float:
            return sum(e["value"] for e in
                       default_metrics().snapshot()["counters"]
                       if e["name"] == "health.verdict"
                       and e["labels"] == {"status": "fail",
                                           "monitor": "ortho.loss"})

        before = verdicts()
        record_health("ortho.loss", 1e-3, method="gauge-probe")
        gauges = [e for e in default_metrics().snapshot()["gauges"]
                  if e["name"] == "health.ortho.loss"
                  and e["labels"] == {"method": "gauge-probe"}]
        assert gauges and gauges[0]["value"] == pytest.approx(1e-3)
        assert verdicts() == before + 1

    def test_explicit_thresholds_override_defaults(self):
        check = record_health("ortho.loss", 1e-7, warn_at=1e-2,
                              fail_at=1e-1)
        assert check.status == "ok"

    def test_scope_holds_only_checks_recorded_inside(self):
        record_health("ortho.loss", 1e-3, detail="outside")
        with collect_health() as outer:
            record_health("ortho.loss", 1e-14, detail="outer")
            with collect_health() as inner:
                record_health("solve.residual", 1e-12, detail="inner")
            record_health("solve.residual", 1e-12, detail="after")
        record_health("ortho.loss", 1e-3, detail="closed")
        assert [c.detail for c in inner.checks] == ["inner"]
        assert [c.detail for c in outer.checks] == ["outer", "inner",
                                                    "after"]
        assert outer.status == inner.status == "ok"

    def test_report_round_trip_and_summary(self):
        with collect_health() as report:
            record_health("ortho.loss", 1e-3, detail="merge")
            record_health("solve.residual", 1e-12)
        clone = HealthReport.from_dict(
            json.loads(json.dumps(report.as_dict())))
        assert clone.status == "fail"
        assert clone.worst("ortho.loss").detail == "merge"
        assert "fail=1" in clone.summary()
        assert len(clone.failed()) == 1 and not clone.warned()


class TestGating:
    def test_disabled_by_default(self):
        assert not health_enabled()
        with collect_health():
            assert health_enabled()
        assert not health_enabled()

    def test_reduce_outside_a_scope_attaches_nothing(self):
        rom = type("R", (), {"size": 3})()
        assert reduce_with_health(lambda: (rom, None, 0.0),
                                  method="x") == (rom, None, 0.0)
        assert not hasattr(rom, "health")


# --------------------------------------------------------------------- #
# Fault injection: broken numerics must come back flagged
# --------------------------------------------------------------------- #
class TestFaultInjection:
    def test_perturbed_merge_basis_flags_ortho_loss(self, monitors):
        rng = np.random.default_rng(7)
        existing, _ = np.linalg.qr(rng.standard_normal((60, 4)))
        # De-orthogonalise the supposedly-orthonormal initial basis: the
        # CGS2 projection then leaves candidate components along it, and
        # the merged-basis probe (always run on merges) must notice.
        existing[:, 0] += 0.05 * existing[:, 1]
        candidates = rng.standard_normal((60, 3))
        block_orthonormalize(candidates, initial_basis=existing)
        worst = monitors.worst("ortho.loss")
        assert worst is not None
        assert worst.status == "fail"
        assert monitors.status == "fail"

    def test_healthy_reduce_attaches_ok_report(self, monitors):
        system = make_benchmark("ckt1", "laptop")
        rom, _, _ = bdsm_reduce(system, 4)
        assert rom.health is not None
        assert rom.health.status in ("ok", "warn")
        monitored = {c.monitor for c in rom.health.checks}
        assert "reduce.deflation_rate" in monitored
        assert "ortho.loss" in monitored

    def test_reduce_report_is_scoped_to_its_run(self, monitors):
        record_health("ortho.loss", 1e-3, detail="stale-before")
        system = make_benchmark("ckt1", "laptop")
        rom, _, _ = bdsm_reduce(system, 4)
        assert all(c.detail != "stale-before" for c in rom.health.checks)


# --------------------------------------------------------------------- #
# Concurrent reduces: every ROM reports its own checks only
# --------------------------------------------------------------------- #
def _run_in_threads(*targets) -> None:
    """Run each target on its own thread, in a copy of this context."""
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _monitors(report: HealthReport) -> Counter:
    return Counter(check.monitor for check in report.checks)


class TestConcurrentScopes:
    def test_concurrent_reduces_keep_their_own_checks(self):
        ckt1 = make_benchmark("ckt1", "smoke")
        ckt2 = make_benchmark("ckt2", "smoke")
        reducers = {"PRIMA": lambda: prima_reduce(ckt1, 4)[0],
                    "BDSM": lambda: bdsm_reduce(ckt2, 4)[0]}
        alone = {}
        for method, reduce in reducers.items():
            clear_default_cache()
            with collect_health():
                alone[method] = _monitors(reduce().health)

        clear_default_cache()
        roms = {}
        barrier = threading.Barrier(len(reducers))

        def run(method):
            def target() -> None:
                barrier.wait()
                roms[method] = reducers[method]()
            return target

        with collect_health() as root:
            _run_in_threads(*(run(method) for method in reducers))
        for method, rom in roms.items():
            (rate,) = [check for check in rom.health.checks
                       if check.monitor == "reduce.deflation_rate"]
            assert rate.labels == {"method": method}
            assert _monitors(rom.health) == alone[method]
        assert _monitors(root) == sum(alone.values(), Counter())

    def test_fail_in_one_thread_leaves_the_other_rom_registrable(self):
        system = make_benchmark("ckt1", "smoke")
        reduce_open = threading.Event()
        fail_recorded = threading.Event()

        class PausedSystem:
            """``system``, whose first ``C`` read — inside the reduce's
            own scope — waits for the other thread's fail."""

            def __getattr__(self, name):
                if name == "C" and not reduce_open.is_set():
                    reduce_open.set()
                    assert fail_recorded.wait(timeout=60)
                return getattr(system, name)

        roms = []

        def reduce() -> None:
            roms.append(bdsm_reduce(PausedSystem(), 3)[0])

        def fail() -> None:
            assert reduce_open.wait(timeout=60)
            record_health("ortho.loss", 1.0, detail="injected")
            fail_recorded.set()

        with collect_health() as root:
            _run_in_threads(reduce, fail)
        (rom,) = roms
        assert root.worst("ortho.loss").detail == "injected"
        assert all(check.detail != "injected"
                   for check in rom.health.checks)
        assert rom.health.status != "fail"
        ModelRegistry().register("ckt1/bdsm", rom)

    def test_pooled_partitioned_reduce_holds_every_shard_once(self):
        system = make_benchmark("ckt2", "smoke")
        with collect_health() as root, SweepEngine(jobs=2) as engine:
            rom, _, _ = partitioned_reduce(system, 3, n_parts=4,
                                           engine=engine)
        rates = Counter(check.labels["method"]
                        for check in rom.health.checks
                        if check.monitor == "reduce.deflation_rate")
        assert rates == {"BDSM": 4, "partitioned-BDSM": 1}
        assert (sorted(map(id, root.checks))
                == sorted(map(id, rom.health.checks)))


# --------------------------------------------------------------------- #
# Trace profiles and the regression gate
# --------------------------------------------------------------------- #
def _profile(phases: dict[str, float], total: float | None = None) -> dict:
    return {"schema": 1, "kind": "trace_profile",
            "total_s": total if total is not None
            else sum(t for p, t in phases.items() if "/" not in p),
            "phases": {p: {"count": 1, "total_s": t}
                       for p, t in phases.items()}}


class TestProfiles:
    def test_span_rollup_builds_parent_paths(self):
        spans = [
            {"name": "reduce", "span_id": "a", "parent_id": None,
             "duration": 1.0},
            {"name": "ortho", "span_id": "b", "parent_id": "a",
             "duration": 0.25},
            {"name": "ortho", "span_id": "c", "parent_id": "a",
             "duration": 0.25},
            {"name": "orphan", "span_id": "d", "parent_id": "gone",
             "duration": 0.1},
        ]
        rollup = span_rollup(spans)
        assert rollup["reduce"]["count"] == 1
        assert rollup["reduce/ortho"] == {"count": 2, "total_s": 0.5}
        assert rollup["orphan"]["count"] == 1  # missing parent -> root

    def test_trace_profile_total_counts_roots_only(self):
        spans = [
            {"name": "reduce", "span_id": "a", "parent_id": None,
             "duration": 2.0},
            {"name": "ortho", "span_id": "b", "parent_id": "a",
             "duration": 1.5},
        ]
        assert trace_profile(spans)["total_s"] == pytest.approx(2.0)

    def test_load_profile_accepts_all_three_shapes(self, tmp_path):
        spans = [{"name": "reduce", "span_id": "a", "parent_id": None,
                  "duration": 2.0}]
        profile_path = write_profile(spans, tmp_path / "profile.json")
        spans_path = tmp_path / "spans.json"
        spans_path.write_text(json.dumps(spans))
        chrome_path = tmp_path / "chrome.json"
        chrome_path.write_text(json.dumps({"traceEvents": [
            {"name": "reduce", "ph": "X", "dur": 2e6,
             "args": {"span_id": "a"}},
            {"name": "thread_name", "ph": "M"},
        ]}))
        for path in (profile_path, spans_path, chrome_path):
            profile = load_profile(path)
            assert profile["kind"] == "trace_profile"
            assert profile["total_s"] == pytest.approx(2.0)

    def test_load_profile_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_profile(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": 1}))
        with pytest.raises(ValueError, match="neither"):
            load_profile(wrong)


class TestBudgetGate:
    def test_parse_budget(self):
        assert parse_budget("20%") == pytest.approx(0.2)
        assert parse_budget("0.2") == pytest.approx(0.2)
        with pytest.raises(ValueError, match="not a percentage"):
            parse_budget("fast")
        with pytest.raises(ValueError, match="positive"):
            parse_budget("-5%")

    def test_seeded_regression_trips_time_mode(self):
        base = _profile({"reduce": 1.0, "reduce/ortho": 0.4,
                         "reduce/solve": 0.3})
        current = _profile({"reduce": 1.3, "reduce/ortho": 0.7,
                            "reduce/solve": 0.3})
        deltas = diff_profiles(base, current)
        failures = check_budget(deltas, budget=0.2, mode="time")
        assert any("reduce/ortho" in f for f in failures)
        assert not any("reduce/solve" in f for f in failures)

    def test_within_budget_passes(self):
        base = _profile({"reduce": 1.0, "reduce/ortho": 0.4})
        current = _profile({"reduce": 1.05, "reduce/ortho": 0.42})
        assert check_budget(diff_profiles(base, current),
                            budget=0.2, mode="time") == []

    def test_share_mode_divides_out_hardware(self):
        base = _profile({"reduce": 1.0, "reduce/ortho": 0.4,
                         "reduce/solve": 0.3})
        # A uniformly 3x slower machine: time mode would scream about
        # every phase; share mode sees the same profile.
        slower = _profile({p: 3 * t for p, t in
                           (("reduce", 1.0), ("reduce/ortho", 0.4),
                            ("reduce/solve", 0.3))})
        deltas = diff_profiles(base, slower)
        assert check_budget(deltas, budget=0.2, mode="share") == []
        assert check_budget(deltas, budget=0.2, mode="time")

    def test_share_mode_catches_real_shift(self):
        base = _profile({"reduce": 1.0, "reduce/ortho": 0.2})
        current = _profile({"reduce": 1.0, "reduce/ortho": 0.5})
        failures = check_budget(diff_profiles(base, current),
                                budget=0.2, mode="share")
        assert any("reduce/ortho" in f for f in failures)

    def test_min_share_floor_skips_noise_phases(self):
        base = _profile({"reduce": 1.0, "reduce/tiny": 0.001})
        current = _profile({"reduce": 1.0, "reduce/tiny": 0.01})
        assert check_budget(diff_profiles(base, current),
                            budget=0.2, mode="time") == []

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            check_budget([], budget=0.2, mode="both")

    def test_new_phase_gates_in_time_mode(self):
        deltas = diff_profiles(_profile({"reduce": 1.0}),
                               _profile({"reduce": 1.0, "extra": 0.5}))
        new = next(d for d in deltas if d.path == "extra")
        assert isinstance(new, PhaseDelta)
        assert new.time_ratio == float("inf")
        # base_share is 0 -> below min_share, so not gated until it has
        # baseline presence; documented behaviour.
        assert check_budget([new], budget=0.2, mode="time") == []


# --------------------------------------------------------------------- #
# The run flight recorder
# --------------------------------------------------------------------- #
class TestLedger:
    def test_record_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record = RunLedger(path).record(
            "reduce", config={"benchmark": "ckt1", "moments": 4},
            duration_s=1.25, metrics={"counters": [
                {"name": "solve.calls", "labels": {"backend": "splu"},
                 "value": 3}]},
            health={"status": "ok", "checks": []},
            extra={"exit_code": 0})
        (loaded,) = read_ledger(path)
        assert loaded["kind"] == "reduce"
        assert loaded["duration_s"] == pytest.approx(1.25)
        assert loaded["config_fingerprint"] == record["config_fingerprint"]
        assert loaded["counters"] == {'solve.calls{backend=splu}': 3.0}
        assert loaded["health"]["status"] == "ok"
        assert loaded["extra"]["exit_code"] == 0

    def test_fingerprint_is_order_insensitive(self):
        assert (config_fingerprint({"a": 1, "b": 2})
                == config_fingerprint({"b": 2, "a": 1}))
        assert (config_fingerprint({"a": 1})
                != config_fingerprint({"a": 2}))

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record("reduce", duration_s=1.0)
        with path.open("a") as fh:
            fh.write("{torn write\n\n[1, 2]\n")
        ledger.record("reduce", duration_s=2.0)
        records = read_ledger(path)
        assert [r["duration_s"] for r in records] == [1.0, 2.0]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_summary_trends_same_config_runs(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record("reduce", config={"benchmark": "ckt1"},
                      duration_s=1.0)
        ledger.record("reduce", config={"benchmark": "ckt2"},
                      duration_s=5.0)
        ledger.record("reduce", config={"benchmark": "ckt1"},
                      duration_s=1.5,
                      health={"status": "fail",
                              "checks": [{"monitor": "ortho.loss",
                                          "value": 1.0, "status": "fail"}]})
        rows = summarize_ledger(read_ledger(path))
        assert rows[0]["trend"] == ""
        assert rows[1]["trend"] == ""  # different config fingerprint
        assert rows[2]["trend"] == "+50%"
        assert rows[2]["health"] == "fail" and rows[2]["fails"] == 1

    def test_summary_last_window(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        for i in range(6):
            ledger.record("bench", duration_s=float(i + 1))
        rows = summarize_ledger(read_ledger(path), last=2)
        assert [r["duration (s)"] for r in rows] == [5.0, 6.0]


# --------------------------------------------------------------------- #
# The telemetry endpoint
# --------------------------------------------------------------------- #
def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestTelemetryEndpoint:
    def test_metrics_and_health_endpoints(self):
        metrics = MetricsRegistry()
        metrics.increment("store.fetch", result="hit")
        report = {"status": "warn", "checks": [
            {"monitor": "serve.p99_seconds", "value": 0.9,
             "status": "warn"}]}
        with TelemetryServer(port=0, metrics_fn=metrics.snapshot,
                             health_fn=lambda: report) as server:
            status, body = _get(f"{server.url}/metrics")
            assert status == 200
            assert 'repro_store_fetch_total{result="hit"} 1' in body
            status, body = _get(f"{server.url}/healthz")
            assert status == 200  # warn is alive, only fail is 503
            assert json.loads(body)["status"] == "warn"
            status, _ = _get(f"{server.url}/nope")
            assert status == 404

    def test_healthz_fails_closed_on_fail_verdict(self):
        report = {"status": "fail", "checks": []}
        with TelemetryServer(port=0, health_fn=lambda: report) as server:
            status, body = _get(f"{server.url}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "fail"

    def test_live_server_healthz_reflects_serving_stats(self, tmp_path):
        system = make_benchmark("ckt1", "laptop")
        rom, _, _ = bdsm_reduce(system, 3)
        with ModelServer(metrics_port=0) as server:
            server.register("ckt1/bdsm", rom)
            # The queued front end is what records per-kind latency;
            # direct method calls are not counted.
            server.serve([
                QueryRequest("transfer", "ckt1/bdsm",
                             {"s_values": np.array([1j * omega])})
                for omega in (1e6, 1e7, 1e8)])
            assert server.telemetry is not None
            status, body = _get(f"{server.telemetry.url}/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            monitored = {c["monitor"] for c in payload["checks"]}
            assert "serve.p99_seconds" in monitored
            assert "serve.error_rate" in monitored
            status, body = _get(f"{server.telemetry.url}/metrics")
            assert status == 200
            # The serving series reach the exposition, under this
            # server's label.
            labels = f'{{kind="transfer",server="{server.server_id}"}}'
            assert f"repro_serve_requests_total{labels} 3" in body
            assert f"repro_serve_latency_seconds_count{labels} 3" in body
            assert ('repro_serve_latency_seconds{kind="transfer",'
                    'quantile="0.99",server="' in body)
        # After close the sidecar is gone.
        assert server.telemetry is None


# --------------------------------------------------------------------- #
# Committed acceptance artifacts
# --------------------------------------------------------------------- #
class TestHealthOverheadArtifact:
    def test_committed_overhead_within_budget(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "benchmarks" \
            / "results"
        payload = json.loads((root / "health_overhead.json").read_text())
        assert payload["schema"] == 1
        assert payload["scales"], "no recorded scales"
        for scale, entry in payload["scales"].items():
            assert entry["overhead_budget"] <= 0.05
            assert entry["enabled_overhead_fraction"] \
                <= entry["overhead_budget"], scale
            assert entry["health_checks"] > 0
            assert entry["health_status"] in ("ok", "warn")
        report = json.loads((root / "health_report.json").read_text())
        assert report["workload"] == "health_overhead"
        assert report["report"]["status"] in ("ok", "warn")
        assert report["checks_by_monitor"]
