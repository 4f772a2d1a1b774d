"""Tests for the layered serving stack (repro.serve).

Covers the planner (dedup, transfer/sweep coalescing, bit-identity against
the naive per-request path, single-step fallback for unrecognised params),
the registry's admission-controlled warm set (budget eviction order,
cold-miss reload round trips, unreadable-entry accounting), the server's
failure aggregation (`ServeError` carries every failed index plus partial
results), the serving stats read back from the metrics registry (per
server), submit/serve parity, register/close races and the lock-ordering
hammer for overlapping multi-model sweeps.
"""

from __future__ import annotations

import json
import logging
import threading

import numpy as np
import pytest

from repro import (
    ModelServer,
    ModelStore,
    QueryRequest,
    ServeError,
    bdsm_reduce,
    make_benchmark,
    prima_reduce,
)
from repro.exceptions import ReductionError, ValidationError
from repro.serve import (
    LoadSpec,
    ModelRegistry,
    QueryPlanner,
    generate_requests,
    results_equal,
    run_load,
)


@pytest.fixture(scope="module")
def system():
    return make_benchmark("ckt1", scale="smoke")


@pytest.fixture(scope="module")
def second_system():
    return make_benchmark("ckt2", scale="smoke")


@pytest.fixture(scope="module")
def bdsm_rom(system):
    return bdsm_reduce(system, 3)[0]


@pytest.fixture()
def populated_store(system, second_system, tmp_path):
    store = ModelStore(tmp_path / "store")
    bdsm_reduce(system, 3, store=store)
    prima_reduce(system, 3, store=store)
    bdsm_reduce(second_system, 3, store=store)
    prima_reduce(second_system, 3, store=store)
    return store


@pytest.fixture()
def warm_server(populated_store):
    server = ModelServer(populated_store)
    server.warm()
    yield server
    server.close()


S_POINTS = 1j * np.logspace(6, 9, 5)


# --------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------- #
class TestPlanner:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown request kind"):
            QueryPlanner().plan([QueryRequest("bogus", "m", {})])

    def test_empty_model_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            QueryPlanner().plan([QueryRequest("transfer", "", {})])

    def test_non_dict_params_rejected(self):
        with pytest.raises(ValidationError, match="params"):
            QueryPlanner().plan([QueryRequest("transfer", "m", [1j])])

    def test_duplicates_dedup_to_one_step(self):
        request = QueryRequest("transfer", "m", {"s_values": S_POINTS})
        twin = QueryRequest("transfer", "m",
                            {"s_values": S_POINTS.copy()})
        plan = QueryPlanner().plan([request, twin, request])
        assert plan.n_requests == 3
        assert plan.n_steps == 1
        assert plan.n_coalesced == 2

    def test_transfer_coalesces_per_model(self):
        a = QueryRequest("transfer", "m", {"s_values": S_POINTS})
        b = QueryRequest("transfer", "m", {"s_values": 2 * S_POINTS})
        c = QueryRequest("transfer", "other", {"s_values": S_POINTS})
        plan = QueryPlanner().plan([a, b, c])
        assert plan.n_steps == 2
        batched = [s for s in plan.steps if s.op == "transfer_batch"]
        assert len(batched) == 1
        assert batched[0].models == ("m",)
        assert batched[0].n_requests == 2

    def test_full_sweeps_coalesce_by_band(self):
        a = QueryRequest("sweep", "m1", {"n_points": 7})
        b = QueryRequest("sweep", "m2", {"n_points": 7})
        c = QueryRequest("sweep", "m3", {"n_points": 9})
        plan = QueryPlanner().plan([a, b, c])
        many = [s for s in plan.steps if s.op == "sweep_many"]
        assert len(many) == 1
        assert set(many[0].models) == {"m1", "m2"}

    def test_normalised_band_groups_with_defaults(self):
        explicit = QueryRequest("sweep", "m1",
                                {"omega_min": 1e5, "omega_max": 1e12,
                                 "n_points": 60})
        implicit = QueryRequest("sweep", "m2", {})
        plan = QueryPlanner().plan([explicit, implicit])
        assert plan.n_steps == 1
        assert plan.steps[0].op == "sweep_many"

    def test_entry_sweeps_stay_single(self):
        a = QueryRequest("sweep", "m1", {"output": 0, "port": 0})
        b = QueryRequest("sweep", "m2", {"output": 0, "port": 0})
        plan = QueryPlanner().plan([a, b])
        assert all(step.op == "single" for step in plan.steps)

    def test_unrecognised_params_fall_back_to_single(self):
        odd = QueryRequest("transfer", "m",
                           {"s_values": S_POINTS, "mystery": 1})
        plan = QueryPlanner().plan([odd, odd])
        # Still dedups (hashable params), but never batches.
        assert plan.n_steps == 1
        assert plan.steps[0].op == "single"

    def test_coalesce_false_is_one_step_per_request(self):
        request = QueryRequest("transfer", "m", {"s_values": S_POINTS})
        plan = QueryPlanner(coalesce=False).plan([request, request])
        assert plan.n_steps == 2
        assert plan.n_coalesced == 0


# --------------------------------------------------------------------- #
# Bit-identity of coalesced execution
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_coalesced_transfer_matches_direct(self, warm_server):
        names = warm_server.models()[:2]
        grids = [S_POINTS, 3 * S_POINTS, S_POINTS[:3]]
        requests = [QueryRequest("transfer", name, {"s_values": grid})
                    for name in names for grid in grids]
        served = warm_server.serve(requests, coalesce=True)
        for request, answer in zip(requests, served):
            direct = warm_server.transfer(request.model,
                                          request.params["s_values"])
            assert np.array_equal(answer, direct)

    def test_coalesced_sweep_matches_direct(self, warm_server):
        names = warm_server.models()
        requests = [QueryRequest("sweep", name, {"n_points": 7})
                    for name in names]
        served = warm_server.serve(requests, coalesce=True)
        for name, answer in zip(names, served):
            direct = warm_server.sweep(name, n_points=7)
            assert np.array_equal(answer.values, direct.values)
            assert answer.label == direct.label

    def test_generated_load_bit_identical(self, warm_server):
        models = {name: warm_server.registry.resolve(name)
                  for name in warm_server.models()}
        spec = LoadSpec(n_requests=60, duplication=4.0,
                        transfer_points=6, sweep_points=8)
        requests = generate_requests(models, spec)
        naive = run_load(warm_server, requests, clients=2, batch_size=20,
                         coalesce=False, collect_results=True)
        coalesced = run_load(warm_server, requests, clients=2,
                             batch_size=20, coalesce=True,
                             collect_results=True)
        assert all(results_equal(a, b)
                   for a, b in zip(naive.results, coalesced.results))

    def test_generated_load_is_deterministic(self, warm_server):
        models = {name: warm_server.registry.resolve(name)
                  for name in warm_server.models()}
        spec = LoadSpec(n_requests=30)
        first = generate_requests(models, spec)
        second = generate_requests(models, spec)
        assert [r.kind for r in first] == [r.kind for r in second]
        assert [r.model for r in first] == [r.model for r in second]


# --------------------------------------------------------------------- #
# Registry: admission-controlled warm set
# --------------------------------------------------------------------- #
class TestWarmSet:
    def test_budget_defers_cold_entries(self, populated_store):
        entries = populated_store.entries()
        # Room for the two largest entries only.
        by_size = sorted(entries, key=lambda e: e.n_bytes, reverse=True)
        budget = by_size[0].n_bytes + by_size[1].n_bytes
        registry = ModelRegistry(populated_store, warm_budget=budget)
        result = registry.warm()
        assert result.skipped == []
        assert len(result.loaded) < len(entries)
        assert result.deferred
        assert registry.stats().resident_bytes <= budget

    def test_deferred_model_loads_on_first_resolve(self, populated_store):
        smallest = min(populated_store.entries(), key=lambda e: e.n_bytes)
        registry = ModelRegistry(populated_store,
                                 warm_budget=smallest.n_bytes)
        result = registry.warm()
        assert result.deferred
        cold_name = result.deferred[0]
        assert cold_name not in registry.models()
        model = registry.resolve(cold_name)
        assert model is not None
        assert registry.stats().misses == 1

    def test_eviction_is_lru_ordered(self, populated_store):
        registry = ModelRegistry(populated_store, warm_budget=10**12)
        registry.warm()
        names = registry.models()
        assert len(names) == 4
        # Touch all but the first so it becomes the LRU victim.
        for name in names[1:]:
            registry.resolve(name)
        total = registry.stats().resident_bytes
        registry.warm_budget = total - 1
        # Re-admitting a resident model must now evict exactly the
        # untouched (least recently used) name.
        registry.load(names[1], key=registry._catalog[names[1]])
        assert names[0] not in registry.models()
        assert set(names[1:]) <= set(registry.models())
        assert registry.stats().evictions == 1
        # The evicted artifact stays store-resident and resolvable.
        assert registry.resolve(names[0]) is not None

    def test_cold_miss_reload_round_trip(self, populated_store):
        smallest = min(populated_store.entries(), key=lambda e: e.n_bytes)
        reference = ModelServer(populated_store)
        reference.warm()
        budget_server = ModelServer(populated_store,
                                    warm_budget=smallest.n_bytes)
        budget_server.warm()
        name = reference.models()[0]
        expected = reference.transfer(name, S_POINTS)
        # Resolves through eviction/reload must stay bit-identical.
        for _ in range(3):
            got = budget_server.transfer(name, S_POINTS)
            assert np.array_equal(got, expected)
        reference.close()
        budget_server.close()

    def test_pinned_models_never_evicted(self, populated_store, bdsm_rom):
        registry = ModelRegistry(populated_store, warm_budget=1)
        registry.register("pinned", bdsm_rom)
        registry.warm()
        assert "pinned" in registry.models()

    def test_unreadable_entry_counted_and_logged(self, populated_store,
                                                 caplog):
        victim = populated_store.entries()[0]
        path = populated_store.artifact_path(victim.key)
        path.write_bytes(b"not an npz")
        registry = ModelRegistry(populated_store)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            result = registry.warm()
        assert victim.key in result.skipped
        assert registry.stats().skipped == 1
        assert any(victim.key in record.message
                   for record in caplog.records)

    def test_facade_warm_still_returns_names(self, populated_store):
        with ModelServer(populated_store) as server:
            names = server.warm()
        assert isinstance(names, list)
        assert all(isinstance(name, str) for name in names)
        assert len(names) == 4

    def test_invalid_budget_rejected(self, populated_store):
        with pytest.raises(ValidationError, match="positive"):
            ModelRegistry(populated_store, warm_budget=0)


# --------------------------------------------------------------------- #
# Failure aggregation
# --------------------------------------------------------------------- #
class TestFailureAggregation:
    def test_serve_collects_every_failure(self, warm_server):
        name = warm_server.models()[0]
        good = QueryRequest("transfer", name, {"s_values": S_POINTS})
        bad_model = QueryRequest("transfer", "ghost",
                                 {"s_values": S_POINTS})
        bad_params = QueryRequest("sweep", name,
                                  {"output": 0})  # port missing
        bad_point = QueryRequest("transfer", name,
                                 {"s_values": np.array([np.nan])})
        requests = [good, bad_model, good, bad_params, bad_point]
        with pytest.raises(ServeError) as excinfo:
            warm_server.serve(requests, coalesce=False)
        error = excinfo.value
        assert error.failed_indices == [1, 3, 4]
        assert isinstance(error.failures[1], ValidationError)
        assert isinstance(error.failures[4], ReductionError)
        # Partial results of the requests that did succeed are kept.
        assert error.results[0] is not None
        assert error.results[2] is not None
        assert error.results[1] is None

    def test_coalesced_failure_marks_all_riders(self, warm_server):
        bad = QueryRequest("transfer", "ghost", {"s_values": S_POINTS})
        with pytest.raises(ServeError) as excinfo:
            warm_server.serve([bad, bad, bad], coalesce=True)
        assert excinfo.value.failed_indices == [0, 1, 2]

    def test_serve_error_message_names_indices(self, warm_server):
        bad = QueryRequest("transfer", "ghost", {"s_values": S_POINTS})
        with pytest.raises(ServeError, match=r"indices \[0\]"):
            warm_server.serve([bad])

    def test_errors_counted_per_failed_request(self, warm_server):
        bad = QueryRequest("transfer", "ghost", {"s_values": S_POINTS})
        before = warm_server.serving_stats().errors
        with pytest.raises(ServeError):
            warm_server.serve([bad, bad])
        assert warm_server.serving_stats().errors == before + 2


# --------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------- #
class TestServingStats:
    def test_coalescing_counters(self, warm_server):
        name = warm_server.models()[0]
        request = QueryRequest("transfer", name, {"s_values": S_POINTS})
        warm_server.serve([request] * 4)
        stats = warm_server.serving_stats()
        assert stats.plans == 1
        assert stats.requests == 4
        assert stats.coalesced == 3
        assert stats.kinds["transfer"].batches == 1
        assert 0.0 < stats.coalescing_rate <= 1.0

    def test_latency_percentiles_recorded(self, warm_server):
        name = warm_server.models()[0]
        request = QueryRequest("transfer", name, {"s_values": S_POINTS})
        warm_server.serve([request])
        kind = warm_server.serving_stats().kinds["transfer"]
        assert kind.p50 > 0.0
        assert kind.p99 >= kind.p50

    def test_direct_methods_do_not_count_requests(self, warm_server):
        name = warm_server.models()[0]
        before = warm_server.serving_stats().requests
        warm_server.transfer(name, S_POINTS)
        warm_server.sweep(name, n_points=5)
        assert warm_server.serving_stats().requests == before

    def test_submit_matches_serve_and_counts_once(self, warm_server):
        name = warm_server.models()[0]
        n_ports = warm_server.registry.resolve(name).n_ports
        requests = [
            QueryRequest("transfer", name, {"s_values": S_POINTS}),
            QueryRequest("sweep", name, {"n_points": 5}),
            QueryRequest("sweep", name,
                         {"n_points": 5, "output": 0, "port": 0}),
            QueryRequest("ir_drop", name,
                         {"load_currents": np.full(n_ports, 1e-3)}),
        ]
        for count, request in enumerate(requests, start=1):
            served = warm_server.serve([request])[0]
            assert warm_server.serving_stats().requests == 2 * count - 1
            submitted = warm_server.submit(request).result()
            assert warm_server.serving_stats().requests == 2 * count
            assert results_equal(submitted, served)

    def test_two_servers_keep_separate_stats(self, populated_store):
        with ModelServer(populated_store) as first, \
                ModelServer(populated_store) as second:
            for server, copies in ((first, 3), (second, 1)):
                server.warm()
                request = QueryRequest("transfer", server.models()[0],
                                       {"s_values": S_POINTS})
                server.serve([request] * copies)
            assert first.server_id != second.server_id
            assert first.serving_stats().requests == 3
            assert first.serving_stats().coalesced == 2
            assert second.serving_stats().requests == 1
            assert second.serving_stats().coalesced == 0
            assert second.serving_stats().plans == 1

    def test_queue_depth_returns_to_zero(self, warm_server):
        name = warm_server.models()[0]
        request = QueryRequest("transfer", name, {"s_values": S_POINTS})
        warm_server.serve([request] * 8, coalesce=False)
        stats = warm_server.serving_stats()
        assert stats.queue_depth == 0
        assert stats.queue_depth_peak >= 1

    def test_closed_servers_leave_no_series(self, bdsm_rom):
        from repro.obs.metrics import default_metrics

        def serving_series() -> int:
            return sum(1 for table in default_metrics().snapshot().values()
                       for metric in table if "server" in metric["labels"])

        request = QueryRequest("transfer", "rom", {"s_values": S_POINTS})
        before = serving_series()
        for _ in range(50):
            server = ModelServer(max_workers=1)
            server.register("rom", bdsm_rom)
            server.serve([request])
            server.close()
            # The frozen copy still answers after close.
            stats = server.serving_stats()
            assert stats.requests == 1 and stats.batches == 1
            assert stats.kinds["transfer"].p50 > 0.0
        assert serving_series() == before

    def test_closed_server_serves_again_and_records_afresh(self, bdsm_rom):
        request = QueryRequest("transfer", "rom", {"s_values": S_POINTS})
        server = ModelServer(max_workers=1)
        server.register("rom", bdsm_rom)
        server.serve([request, request])
        server.close()
        server.close()
        assert server.serving_stats().requests == 2
        server.serve([request])
        assert server.serving_stats().requests == 1
        server.close()
        assert server.serving_stats().requests == 1

    def test_queue_depth_survives_a_concurrent_reset(self):
        from repro.obs.metrics import default_metrics

        release, entered = threading.Event(), threading.Event()

        class Blocking:
            n_ports = n_outputs = 1

            def transfer_function(self, s):
                entered.set()
                release.wait(10)
                return np.ones((1, 1), dtype=complex)

        server = ModelServer(max_workers=1)
        server.register("slow", Blocking())
        try:
            future = server.submit(QueryRequest(
                "transfer", "slow", {"s_values": np.array([1j])}))
            assert entered.wait(10)
            default_metrics().reset()
            release.set()
            future.result(timeout=10)
            assert server.serving_stats().queue_depth == 0
        finally:
            release.set()
            server.close()
        assert server.serving_stats().queue_depth == 0


# --------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------- #
class TestConcurrency:
    def test_register_close_race(self, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        stop = threading.Event()
        errors: list[Exception] = []

        def churn_registry():
            i = 0
            while not stop.is_set():
                try:
                    server.register(f"rom-{i % 3}", bdsm_rom)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                i += 1

        def churn_pool():
            while not stop.is_set():
                try:
                    server.submit(QueryRequest(
                        "transfer", "rom",
                        {"s_values": S_POINTS})).result()
                    server.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=churn_registry),
                   threading.Thread(target=churn_pool)]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join(timeout=10)
        stop_timer.cancel()
        server.close()
        assert errors == []

    def test_sweep_models_overlapping_sets_no_deadlock(self, warm_server):
        names = warm_server.models()
        overlapping = [names, list(reversed(names)),
                       names[:3], names[1:], [names[0], names[-1]]]
        errors: list[Exception] = []

        def hammer(subset):
            try:
                for _ in range(5):
                    result = warm_server.sweep_models(subset, n_points=4)
                    assert sorted(result) == sorted(subset)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(subset,))
                   for subset in overlapping * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_concurrent_coalesced_serves(self, warm_server):
        names = warm_server.models()
        requests = [QueryRequest("transfer", name, {"s_values": S_POINTS})
                    for name in names] * 3
        expected = warm_server.serve(requests, coalesce=False)
        outcomes: list = [None] * 4
        errors: list[Exception] = []

        def client(slot):
            try:
                outcomes[slot] = warm_server.serve(requests, coalesce=True)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        for served in outcomes:
            assert all(results_equal(a, b)
                       for a, b in zip(served, expected))


# --------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------- #
class TestServeCli:
    def test_serve_bench_records_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "serve.json"
        code = main(["serve-bench", "--requests", "40", "--clients", "2",
                     "--batch-size", "20", "--transfer-points", "4",
                     "--sweep-points", "6", "--output", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "coalescing speedup" in printed
        payload = json.loads(out.read_text())
        assert payload["bit_identical"] is True
        assert payload["naive"]["qps"] > 0
        assert payload["coalesced"]["qps"] > 0

    def test_query_accepts_serving_flags(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        assert main(["reduce", "--benchmark", "ckt1", "--method", "bdsm",
                     "--moments", "3", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        code = main(["query", "--store", str(store_dir),
                     "--benchmark", "ckt1", "--method", "bdsm",
                     "--moments", "3", "--warm-budget", "100000000",
                     "--no-coalesce"])
        assert code == 0
        assert "served" in capsys.readouterr().out
