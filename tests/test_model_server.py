"""Tests for the concurrent model-serving front end (repro.store.server)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    FrequencyAnalysis,
    ModelServer,
    ModelStore,
    QueryRequest,
    SweepEngine,
    TransientAnalysis,
    bdsm_reduce,
    ir_drop_analysis,
    make_benchmark,
    prima_reduce,
    save_artifact,
)
from repro.analysis.sources import SourceBank, StepSource
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def system():
    return make_benchmark("ckt1", scale="smoke")


@pytest.fixture(scope="module")
def bdsm_rom(system):
    rom, _, _ = bdsm_reduce(system, 3)
    return rom


@pytest.fixture()
def warm_server(system, bdsm_rom, tmp_path):
    store = ModelStore(tmp_path / "store")
    bdsm_reduce(system, 3, store=store)
    prima_reduce(system, 3, store=store)
    server = ModelServer(store)
    server.warm()
    yield server
    server.close()


class TestRegistry:
    def test_register_and_models(self, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        assert server.models() == ["rom"]

    def test_empty_name_rejected(self, bdsm_rom):
        with pytest.raises(ValidationError):
            ModelServer().register("", bdsm_rom)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError, match="no model"):
            ModelServer().transfer("ghost", [1j * 1e6])

    def test_warm_names_entries(self, warm_server):
        assert warm_server.models() == ["ckt1-smoke/BDSM",
                                        "ckt1-smoke/PRIMA"]
        assert warm_server.warm_stats().loads == 2

    def test_load_by_path(self, bdsm_rom, tmp_path):
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        server = ModelServer()
        server.load("from-file", path=path)
        assert "from-file" in server.models()

    def test_load_by_key_needs_store(self):
        with pytest.raises(ValidationError, match="no backing store"):
            ModelServer().load("x", key="abc")

    def test_load_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(ValidationError, match="exactly one"):
            ModelServer().load("x")


class TestQueries:
    def test_transfer_matches_direct_evaluation(self, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        s_values = 1j * np.logspace(5, 9, 4)
        H = server.transfer("rom", s_values)
        direct = np.stack([bdsm_rom.transfer_function(s) for s in s_values])
        assert np.array_equal(H, direct)

    def test_sweep_entry_matches_frequency_analysis(self, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        served = server.sweep("rom", n_points=5, output=0, port=1)
        direct = FrequencyAnalysis(n_points=5).sweep_entry(bdsm_rom, 0, 1)
        assert np.array_equal(served.values, direct.values)

    def test_transient_matches_direct_run(self, system, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        sources = SourceBank.uniform(system.n_ports, StepSource(1e-3))
        served = server.transient("rom", sources, t_stop=1e-9, dt=2e-10)
        direct = TransientAnalysis(t_stop=1e-9, dt=2e-10).run(bdsm_rom,
                                                              sources)
        assert np.array_equal(served.outputs, direct.outputs)

    def test_ir_drop_matches_direct_call(self, system, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        loads = np.full(system.n_ports, 1e-3)
        served = server.ir_drop("rom", loads)
        direct = ir_drop_analysis(bdsm_rom, loads)
        assert np.array_equal(served.voltages, direct.voltages)

    def test_sweep_rejects_half_specified_entry(self, bdsm_rom):
        server = ModelServer()
        server.register("rom", bdsm_rom)
        with pytest.raises(ValidationError, match="both output= and port="):
            server.sweep("rom", n_points=5, output=0)
        with pytest.raises(ValidationError, match="both output= and port="):
            server.sweep("rom", n_points=5, port=1)

    def test_sweep_models_matches_individual_sweeps(self, warm_server):
        names = warm_server.models()
        batched = warm_server.sweep_models(names, n_points=5)
        for name in names:
            single = warm_server.sweep(name, n_points=5)
            assert np.array_equal(batched[name].values, single.values)

    def test_sweep_many_parallel_engine_identical(self, bdsm_rom, system):
        analysis_serial = FrequencyAnalysis(n_points=5)
        with SweepEngine(jobs=2) as engine:
            analysis_parallel = FrequencyAnalysis(n_points=5, engine=engine)
            models = {"bdsm": bdsm_rom, "full": system}
            serial = analysis_serial.sweep_many(models)
            parallel = analysis_parallel.sweep_many(models)
        for label in models:
            assert np.array_equal(serial[label].values,
                                  parallel[label].values)
            assert serial[label].label == label


class TestConcurrentServing:
    def test_serve_batch_preserves_order_and_results(self, warm_server,
                                                     system):
        s_values = 1j * np.logspace(5, 9, 3)
        requests = []
        for _ in range(4):
            for name in warm_server.models():
                requests.append(QueryRequest("transfer", name,
                                             {"s_values": s_values}))
        results = warm_server.serve(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            direct = warm_server.transfer(request.model, s_values)
            assert np.array_equal(result, direct)
        assert warm_server.serving_stats().requests == len(requests)

    def test_many_threads_one_model(self, bdsm_rom):
        """Concurrent queries against a single model must serialize through
        its lock without corrupting the lazily-assembled matrix cache."""
        server = ModelServer(max_workers=8)
        server.register("rom", bdsm_rom)
        s_values = 1j * np.logspace(5, 9, 3)
        reference = server.transfer("rom", s_values)
        errors: list[Exception] = []

        def hammer():
            try:
                for _ in range(5):
                    assert np.array_equal(
                        server.transfer("rom", s_values), reference)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        server.close()

    def test_overlapping_sweep_models_cannot_deadlock(self, warm_server):
        """Concurrent sweep_models calls naming the same models in opposite
        order must both complete (locks are taken in canonical order)."""
        names = warm_server.models()
        reversed_names = list(reversed(names))
        results: dict[str, dict] = {}

        def run(label, order):
            for _ in range(5):
                results[label] = warm_server.sweep_models(order, n_points=4)

        t1 = threading.Thread(target=run, args=("fwd", names))
        t2 = threading.Thread(target=run, args=("rev", reversed_names))
        t1.start()
        t2.start()
        t1.join(timeout=60)
        t2.join(timeout=60)
        assert not t1.is_alive() and not t2.is_alive(), (
            "sweep_models deadlocked on overlapping model sets")
        for name in names:
            assert np.array_equal(results["fwd"][name].values,
                                  results["rev"][name].values)

    def test_unknown_kind_rejected(self, warm_server):
        with pytest.raises(ValidationError, match="unknown request kind"):
            warm_server.submit(QueryRequest("divine", "ckt1-smoke/BDSM"))

    def test_failed_request_counts_error(self, warm_server):
        future = warm_server.submit(
            QueryRequest("transfer", "nope", {"s_values": [1j]}))
        with pytest.raises(ValidationError):
            future.result()
        assert warm_server.serving_stats().errors == 1

    def test_context_manager_closes_pool(self, bdsm_rom):
        with ModelServer() as server:
            server.register("rom", bdsm_rom)
            future = server.submit(
                QueryRequest("transfer", "rom", {"s_values": [1j * 1e6]}))
            assert future.result().shape == (1, bdsm_rom.n_outputs,
                                             bdsm_rom.n_ports)
