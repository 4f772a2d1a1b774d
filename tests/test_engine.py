"""Tests for the parallel batched sweep engine (repro.analysis.engine)."""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from repro import (
    FrequencyAnalysis,
    SourceBank,
    SweepEngine,
    TransientAnalysis,
    bdsm_reduce,
    ir_drop_analysis,
    ir_drop_batch,
)
from repro.analysis.engine import (
    available_cpus,
    on_pool_thread,
    shared_engine,
)
from repro.analysis.sources import PulseSource, StepSource
from repro.exceptions import SimulationError


@pytest.fixture(scope="module")
def bdsm_rom(smoke_benchmark):
    rom, _, _ = bdsm_reduce(smoke_benchmark, 3)
    return rom


class TestSweepEngineConfig:
    def test_defaults_are_serial_threads(self):
        engine = SweepEngine()
        assert engine.jobs == 1
        assert engine.resolved_jobs() == 1
        settable = [f.name for f in dataclasses.fields(SweepEngine)
                    if f.init]
        assert settable == ["jobs"]

    def test_jobs_zero_resolves_to_cpu_count(self, monkeypatch):
        # The CPUs this process may run on, not the machine's count.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert available_cpus() == 3
        assert SweepEngine(jobs=0).resolved_jobs() == 3

    def test_jobs_zero_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert SweepEngine(jobs=0).resolved_jobs() == 5

    def test_shared_engine_is_one_process_wide_pool(self):
        assert shared_engine() is shared_engine()
        assert shared_engine().jobs == 0

    def test_negative_jobs_rejected(self):
        with pytest.raises(SimulationError):
            SweepEngine(jobs=-1)

    def test_chunk_bounds_cover_range_contiguously(self):
        bounds = SweepEngine._chunk_bounds(13, 4)
        assert bounds[0] == 0 and bounds[-1] == 13
        assert np.all(np.diff(bounds) >= 0)

    def test_empty_grid_rejected(self, rc_grid_system):
        engine = SweepEngine()
        with pytest.raises(SimulationError):
            engine.sample_matrix(rc_grid_system, [])
        with pytest.raises(SimulationError):
            engine.sample_entry(rc_grid_system, [], 0, 0)

    def test_pool_persists_across_dispatches_and_closes(self):
        with SweepEngine(jobs=2) as engine:
            assert engine._pool is None  # lazy: no dispatch yet
            engine.map_scenarios(lambda x: x + 1, [1, 2, 3])
            pool = engine._pool
            assert pool is not None
            engine.map_scenarios(lambda x: x * 2, [1, 2, 3])
            assert engine._pool is pool  # reused, not respawned
        assert engine._pool is None  # context exit shut it down
        # the engine stays usable after close()
        assert engine.map_scenarios(lambda x: -x, [4, 5]) == [-4, -5]
        engine.close()


class TestParallelBitIdentity:
    """Parallel sweeps must be bit-identical to the serial path."""

    def test_full_matrix_sweep_threads(self, smoke_benchmark, bdsm_rom):
        serial = FrequencyAnalysis(n_points=13)
        parallel = FrequencyAnalysis(n_points=13,
                                     engine=SweepEngine(jobs=3))
        for system in (smoke_benchmark, bdsm_rom):
            assert np.array_equal(serial.sweep(system).values,
                                  parallel.sweep(system).values)

    def test_entry_sweep_threads(self, smoke_benchmark, bdsm_rom):
        serial = FrequencyAnalysis(n_points=11)
        parallel = FrequencyAnalysis(n_points=11,
                                     engine=SweepEngine(jobs=4))
        for system in (smoke_benchmark, bdsm_rom):
            assert np.array_equal(
                serial.sweep_entry(system, 0, 1).values,
                parallel.sweep_entry(system, 0, 1).values)

    def test_more_jobs_than_points(self, rc_grid_system):
        serial = FrequencyAnalysis(n_points=3)
        parallel = FrequencyAnalysis(n_points=3,
                                     engine=SweepEngine(jobs=16))
        assert np.array_equal(serial.sweep(rc_grid_system).values,
                              parallel.sweep(rc_grid_system).values)


class TestModelEvaluatorRequired:
    def test_model_without_transfer_function_rejected(self, rc_grid_system):
        """An object carrying only ``C/G/B/L`` is bad input for every
        sampling entry point, serial or pooled."""
        class Bare:
            pass

        bare = Bare()
        bare.C, bare.G = rc_grid_system.C, rc_grid_system.G
        bare.B, bare.L = rc_grid_system.B, rc_grid_system.L
        omegas = np.logspace(5, 9, 6)
        for engine in (SweepEngine(), SweepEngine(jobs=2)):
            with engine:
                with pytest.raises(SimulationError,
                                   match="no transfer_function"):
                    engine.sample_matrix(bare, 1j * omegas)
                with pytest.raises(SimulationError,
                                   match="no transfer_function"):
                    engine.sample_entry(bare, 1j * omegas, 0, 1)
                with pytest.raises(SimulationError,
                                   match="no transfer_function"):
                    engine.adaptive_entry_sweep(
                        rc_grid_system, {"bare": bare}, omegas, 0, 1)


class TestMapScenarios:
    def test_preserves_order(self):
        engine = SweepEngine(jobs=4)
        out = engine.map_scenarios(lambda x: x * x, list(range(17)))
        assert out == [x * x for x in range(17)]

    def test_dispatch_from_a_pool_thread_runs_inline(self):
        # Nested fan-out runs on the worker itself (the dispatching thread
        # included): it never waits on a pool from inside that pool.
        def nested(_):
            inner = SweepEngine(jobs=2)
            assert on_pool_thread() and inner.workers_for(8) == 1
            here = threading.get_ident()
            assert inner.map_scenarios(lambda _: threading.get_ident(),
                                       range(4)) == [here] * 4
            return here

        with SweepEngine(jobs=2) as outer:
            outer.map_scenarios(nested, range(4))
        assert not on_pool_thread()

    def test_caller_is_a_worker_and_errors_propagate(self):
        caller = threading.get_ident()
        with SweepEngine(jobs=3) as engine:
            threads = engine.map_scenarios(
                lambda _: (time.sleep(0.01), threading.get_ident())[1],
                range(12))
            assert engine._pool._max_workers == 2
            assert caller in threads and len(set(threads)) <= 3

            def fail(x):
                if x == 5:
                    raise ValueError("task 5")
                return x

            with pytest.raises(ValueError, match="task 5"):
                engine.map_scenarios(fail, range(12))
            assert engine.map_scenarios(lambda x: -x, range(4)) == [
                0, -1, -2, -3]


class TestAdaptiveSweep:
    def test_adaptive_compare_matches_exact_where_evaluated(
            self, smoke_benchmark, bdsm_rom):
        fa = FrequencyAnalysis(n_points=40)
        exact = fa.compare(smoke_benchmark, {"BDSM": bdsm_rom},
                           output=0, port=1)
        adaptive = fa.compare(smoke_benchmark, {"BDSM": bdsm_rom},
                              output=0, port=1, adaptive=True,
                              target_error=1e-4)
        info = adaptive["adaptive"]
        mask = info["evaluated"]
        assert info["n_points"] == 40
        assert 2 <= info["n_evaluated"] <= 40
        assert np.array_equal(
            adaptive["BDSM"]["relative_error"][mask],
            exact["BDSM"]["relative_error"][mask])
        assert np.array_equal(
            adaptive["reference"]["magnitude"][mask],
            exact["reference"]["magnitude"][mask])

    def test_adaptive_saves_factorizations_on_accurate_rom(
            self, smoke_benchmark, bdsm_rom):
        fa = FrequencyAnalysis(n_points=48)
        report = fa.compare(smoke_benchmark, {"BDSM": bdsm_rom},
                            output=0, port=1, adaptive=True,
                            target_error=1.0)
        info = report["adaptive"]
        assert info["n_evaluated"] < info["n_points"]
        assert info["evaluations_saved"] > 0

    def test_interpolated_error_close_to_exact(self, smoke_benchmark,
                                               bdsm_rom):
        fa = FrequencyAnalysis(n_points=40)
        exact = fa.compare(smoke_benchmark, {"BDSM": bdsm_rom},
                           output=0, port=1)["BDSM"]["relative_error"]
        adaptive = fa.compare(smoke_benchmark, {"BDSM": bdsm_rom},
                              output=0, port=1, adaptive=True,
                              target_error=1e-4)["BDSM"]["relative_error"]
        # Interpolated estimates may deviate, but never by orders of
        # magnitude near or above the target accuracy.
        above = exact > 1e-5
        if np.any(above):
            ratio = adaptive[above] / exact[above]
            assert np.all((ratio > 0.1) & (ratio < 10.0))

    def test_bad_target_error_rejected(self, smoke_benchmark, bdsm_rom):
        fa = FrequencyAnalysis(n_points=8)
        with pytest.raises(SimulationError):
            fa.compare(smoke_benchmark, {"BDSM": bdsm_rom}, output=0,
                       port=1, adaptive=True, target_error=0.0)

    def test_adaptive_engine_api_direct(self, smoke_benchmark, bdsm_rom):
        engine = SweepEngine(jobs=2)
        omegas = np.logspace(5, 10, 24)
        result = engine.adaptive_entry_sweep(
            smoke_benchmark, {"rom": bdsm_rom}, omegas, 0, 1,
            target_error=1e-3)
        assert result.omegas.shape == (24,)
        assert result.reference.shape == (24,)
        assert result.candidates["rom"].shape == (24,)
        assert result.evaluated.dtype == bool
        assert result.n_evaluated == int(result.evaluated.sum())


class TestTransientBatch:
    @pytest.fixture()
    def banks(self, rc_grid_system):
        m = rc_grid_system.B.shape[1]
        return [SourceBank.uniform(m, StepSource(1e-3)),
                SourceBank.uniform(m, PulseSource(1e-3, 4e-6, 2e-6)),
                SourceBank.uniform(m, StepSource(-5e-4))]

    @staticmethod
    def _assert_machine_close(a: np.ndarray, b: np.ndarray) -> None:
        """Stacked block kernels reassociate sums: allow last-ULP jitter."""
        scale = max(float(np.max(np.abs(a))), 1e-300)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * scale)

    def test_stacked_batch_matches_individual_runs(self, rc_grid_system,
                                                   banks):
        ta = TransientAnalysis(t_stop=1e-5, dt=1e-6)
        singles = [ta.run(rc_grid_system, bank) for bank in banks]
        batch = ta.run_batch(rc_grid_system, banks)
        assert len(batch) == len(banks)
        for single, batched in zip(singles, batch):
            self._assert_machine_close(single.outputs, batched.outputs)

    def test_trapezoidal_batch(self, rc_grid_system, banks):
        ta = TransientAnalysis(t_stop=1e-5, dt=1e-6, method="trapezoidal")
        singles = [ta.run(rc_grid_system, bank) for bank in banks]
        batch = ta.run_batch(rc_grid_system, banks)
        for single, batched in zip(singles, batch):
            self._assert_machine_close(single.outputs, batched.outputs)

    def test_batch_with_states_and_x0(self, rc_grid_system, banks):
        n = rc_grid_system.size
        x0 = np.linspace(0.0, 1e-3, n)
        ta = TransientAnalysis(t_stop=5e-6, dt=1e-6, store_states=True)
        single = ta.run(rc_grid_system, banks[0], x0=x0)
        batch = ta.run_batch(rc_grid_system, banks[:2], x0s=[x0, None])
        self._assert_machine_close(single.states, batch[0].states)
        assert batch[1].states is not None

    def test_batch_labels(self, rc_grid_system, banks):
        ta = TransientAnalysis(t_stop=5e-6, dt=1e-6)
        batch = ta.run_batch(rc_grid_system, banks[:2],
                             labels=["fast", None])
        assert batch[0].label == "fast"
        assert batch[1].label == rc_grid_system.name

    def test_empty_batch_rejected(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=5e-6, dt=1e-6)
        with pytest.raises(SimulationError):
            ta.run_batch(rc_grid_system, [])

    def test_mismatched_lengths_rejected(self, rc_grid_system, banks):
        ta = TransientAnalysis(t_stop=5e-6, dt=1e-6)
        with pytest.raises(SimulationError):
            ta.run_batch(rc_grid_system, banks, x0s=[None])

    def test_port_mismatch_rejected(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=5e-6, dt=1e-6)
        with pytest.raises(SimulationError):
            ta.run_batch(rc_grid_system,
                         [SourceBank.uniform(1, StepSource(1e-3))])


class TestIrDropBatch:
    def test_batch_matches_individual_solves(self, rc_grid_system):
        m = rc_grid_system.B.shape[1]
        base = np.linspace(1e-3, 2e-3, m)
        scenarios = np.vstack([base, 2.0 * base, 0.25 * base])
        batch = ir_drop_batch(rc_grid_system, scenarios)
        assert len(batch) == 3
        for j in range(3):
            single = ir_drop_analysis(rc_grid_system, scenarios[j])
            assert np.allclose(batch[j].voltages, single.voltages,
                               rtol=1e-12, atol=1e-15)

    def test_single_vector_accepted(self, rc_grid_system):
        m = rc_grid_system.B.shape[1]
        batch = ir_drop_batch(rc_grid_system, np.full(m, 1e-3))
        assert len(batch) == 1

    def test_wrong_width_rejected(self, rc_grid_system):
        with pytest.raises(SimulationError):
            ir_drop_batch(rc_grid_system, np.ones((2, 3)))

    def test_empty_batch_rejected(self, rc_grid_system):
        m = rc_grid_system.B.shape[1]
        with pytest.raises(SimulationError):
            ir_drop_batch(rc_grid_system, np.empty((0, m)))
