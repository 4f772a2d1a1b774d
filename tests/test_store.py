"""Tests for the ROM artifact layer and the fingerprint-keyed model store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ModelStore,
    ReducedSystem,
    ResourceBudget,
    ResourceBudgetExceeded,
    bdsm_reduce,
    load_artifact,
    make_benchmark,
    prima_reduce,
    save_artifact,
)
from repro.exceptions import ValidationError
from repro.mor.base import ReductionSummary
from repro.store import SCHEMA_VERSION, StoreStats, artifact_meta


@pytest.fixture(scope="module")
def system():
    return make_benchmark("ckt1", scale="smoke")


@pytest.fixture(scope="module")
def bdsm_rom(system):
    rom, _, _ = bdsm_reduce(system, 3)
    return rom


# --------------------------------------------------------------------------- #
# Artifact round-trips
# --------------------------------------------------------------------------- #
class TestArtifactRoundTrip:
    def test_bdsm_rom_bit_identical(self, bdsm_rom, tmp_path):
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        loaded = load_artifact(path)
        assert loaded.n_blocks == bdsm_rom.n_blocks
        assert loaded.size == bdsm_rom.size
        assert loaded.s0 == bdsm_rom.s0
        assert loaded.n_moments == bdsm_rom.n_moments
        assert loaded.original_size == bdsm_rom.original_size
        assert loaded.name == bdsm_rom.name
        for got, want in zip(loaded.blocks, bdsm_rom.blocks):
            assert got.index == want.index
            assert np.array_equal(got.C, want.C)
            assert np.array_equal(got.G, want.G)
            assert np.array_equal(got.b, want.b)
            assert np.array_equal(got.L, want.L)
        for s in (1j * 1e6, 1j * 1e9):
            assert np.array_equal(loaded.transfer_function(s),
                                  bdsm_rom.transfer_function(s))

    def test_bdsm_rom_with_bases(self, system, tmp_path):
        from repro import BDSMOptions
        rom, _, _ = bdsm_reduce(system, 2,
                                options=BDSMOptions(keep_projection=True))
        loaded = load_artifact(save_artifact(rom, tmp_path / "rom.npz"))
        for got, want in zip(loaded.blocks, rom.blocks):
            assert got.basis is not None
            assert np.array_equal(got.basis, want.basis)
        z = np.linspace(0.0, 1.0, rom.size)
        assert np.array_equal(loaded.reconstruct_state(z),
                              rom.reconstruct_state(z))

    def test_reduced_system_roundtrip(self, system, tmp_path):
        rom, _, _ = prima_reduce(system, 2, keep_projection=True)
        loaded = load_artifact(save_artifact(rom, tmp_path / "prima.npz"))
        assert isinstance(loaded, ReducedSystem)
        for name in ("C", "G", "B", "L", "projection"):
            assert np.array_equal(getattr(loaded, name), getattr(rom, name))
        assert loaded.const_input is None or np.array_equal(
            loaded.const_input, rom.const_input)
        assert loaded.method == "PRIMA"
        assert loaded.s0 == rom.s0
        s = 1j * 1e8
        assert np.array_equal(loaded.transfer_function(s),
                              rom.transfer_function(s))

    def test_complex_s0_roundtrip(self, system, tmp_path):
        """A complex-s0 PRIMA ROM (real rational-Arnoldi split) must stay
        accurate near its expansion point and round-trip losslessly."""
        import warnings
        s0 = 1e6 + 2e6j
        with warnings.catch_warnings():
            # The split basis keeps the model real without discarding the
            # imaginary part, so no ComplexWarning may fire.
            warnings.simplefilter("error")
            rom, _, _ = prima_reduce(system, 2, s0=s0)
        H_rom = rom.transfer_function(s0)
        H_full = system.transfer_function(s0)
        scale = float(np.max(np.abs(H_full)))
        assert np.max(np.abs(H_rom - H_full)) <= 1e-6 * scale
        loaded = load_artifact(save_artifact(rom, tmp_path / "c.npz"))
        assert loaded.s0 == s0
        assert np.array_equal(loaded.transfer_function(s0), H_rom)

    def test_summary_roundtrip(self, tmp_path):
        summary = ReductionSummary(
            method="BDSM", benchmark="ckt1", original_size=156,
            original_ports=12, rom_size=36, rom_nnz=252, matched_moments=3,
            reusable=True, mor_seconds=0.01, ortho_inner_products=72,
            status="ok", notes="", extra={"scale": "smoke"})
        loaded = load_artifact(save_artifact(summary, tmp_path / "s.npz"))
        assert loaded == summary

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot serialize"):
            save_artifact(object(), tmp_path / "x.npz")

    def test_artifact_meta_reports_schema_and_kind(self, bdsm_rom, tmp_path):
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        meta = artifact_meta(path)
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["kind"] == "structured_rom"
        assert meta["class"] == "BlockDiagonalROM"
        assert meta["fingerprint"]


def _reducers():
    """Every reducer, as ``name -> (system) -> rom``."""
    from repro import (
        eks_reduce,
        multipoint_bdsm_reduce,
        partitioned_reduce,
        svdmor_reduce,
    )
    from repro.partition import PartitionedOptions, multilevel_reduce
    return {
        "bdsm": lambda sys_: bdsm_reduce(sys_, 3)[0],
        "prima": lambda sys_: prima_reduce(sys_, 3)[0],
        "multipoint-recycled": lambda sys_: multipoint_bdsm_reduce(
            sys_, 2, [0.0, 1e9], recycle=True)[0],
        "eks": lambda sys_: eks_reduce(sys_, 3)[0],
        "svdmor": lambda sys_: svdmor_reduce(sys_, 3)[0],
        "partitioned": lambda sys_: partitioned_reduce(
            sys_, 3, n_parts=3)[0],
        "multilevel": lambda sys_: multilevel_reduce(
            sys_, 3, levels=2, n_parts=3, min_states=16,
            interface=PartitionedOptions(interface_order=3,
                                         interface_tol=1e-4))[0],
    }


@pytest.mark.parametrize("reducer", list(_reducers()))
def test_every_reducer_roundtrips_through_one_codec(reducer, tmp_path):
    """Save, load and serve the ROM of every reducer: the class, order,
    non-zeros and transfer samples survive, ``transfer_entry`` agrees with
    ``transfer_function``, and a served answer equals direct evaluation."""
    from repro import ModelServer, QueryRequest
    system = make_benchmark("ckt2", scale="smoke")
    rom = _reducers()[reducer](system)
    loaded = load_artifact(save_artifact(rom, tmp_path / "rom.npz"))
    assert type(loaded) is type(rom)
    assert loaded.size == rom.size
    assert loaded.nnz == rom.nnz
    points = np.array([0.0, 1j * 1e7, 1j * 1e9])
    direct = np.stack([rom.transfer_function(s) for s in points])
    assert np.array_equal(
        np.stack([loaded.transfer_function(s) for s in points]), direct)
    output, port = rom.n_outputs - 1, rom.n_ports // 2
    for s, H in zip(points, direct):
        # A one-column solve may round differently from the all-port one.
        assert loaded.transfer_entry(s, output, port) == pytest.approx(
            H[output, port], rel=1e-12, abs=0.0)
    with ModelServer() as server:
        server.register("rom", loaded)
        served = server.serve([QueryRequest("transfer", "rom",
                                            {"s_values": points})])[0]
    assert np.array_equal(served, direct)


class TestArtifactRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such artifact"):
            load_artifact(tmp_path / "missing.npz")

    def test_truncated_artifact(self, bdsm_rom, tmp_path):
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValidationError):
            load_artifact(path)

    def test_corrupted_payload_fails_integrity_check(self, bdsm_rom,
                                                     tmp_path):
        # Rewrite the container with one payload array perturbed but the
        # original fingerprint kept: only the integrity check can catch it.
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["C"] = arrays["C"] + 1e-9
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValidationError, match="integrity check"):
            load_artifact(path)

    def test_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ValidationError):
            load_artifact(path)

    def test_schema_version_mismatch(self, bdsm_rom, tmp_path):
        path = save_artifact(bdsm_rom, tmp_path / "rom.npz")
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays["__meta__"][0]))
        meta["schema"] = SCHEMA_VERSION + 1
        arrays["__meta__"] = np.asarray([json.dumps(meta)])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValidationError, match="schema version"):
            load_artifact(path)

    def test_npz_without_metadata_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez_compressed(path, foo=np.ones(3))
        with pytest.raises(ValidationError, match="missing metadata"):
            load_artifact(path)


# --------------------------------------------------------------------------- #
# ModelStore
# --------------------------------------------------------------------------- #
class TestModelStore:
    def test_memoized_reduce_hits_across_instances(self, system, tmp_path):
        root = tmp_path / "store"
        first = ModelStore(root)
        rom_cold, stats_cold, _ = bdsm_reduce(system, 3, store=first)
        assert first.stats().misses == 1 and first.stats().puts == 1
        # A separate instance over the same directory emulates a fresh
        # process: it must hit without re-reducing.
        second = ModelStore(root)
        rom_warm, stats_warm, _ = bdsm_reduce(system, 3, store=second)
        assert second.stats().hits == 1 and second.stats().puts == 0
        assert stats_warm.inner_products == 0  # nothing was orthogonalized
        s = 1j * 1e7
        assert np.array_equal(rom_warm.transfer_function(s),
                              rom_cold.transfer_function(s))

    def test_key_sensitivity(self, system, tmp_path):
        store = ModelStore(tmp_path / "store")
        base = store.key_for(system, "BDSM", {"n_moments": 3})
        assert store.key_for(system, "BDSM", {"n_moments": 4}) != base
        assert store.key_for(system, "PRIMA", {"n_moments": 3}) != base
        other = make_benchmark("ckt2", scale="smoke")
        assert store.key_for(other, "BDSM", {"n_moments": 3}) != base
        # method casing and option ordering must not matter
        assert store.key_for(system, "bdsm", {"n_moments": 3}) == base

    def test_prima_memoization(self, system, tmp_path):
        store = ModelStore(tmp_path / "store")
        rom_cold, _, _ = prima_reduce(system, 2, store=store)
        rom_warm, _, _ = prima_reduce(system, 2, store=store)
        assert store.stats().hits == 1
        assert np.array_equal(rom_warm.C, rom_cold.C)

    def test_missing_root_rejected_without_create(self, tmp_path):
        with pytest.raises(ValidationError, match="no model store"):
            ModelStore(tmp_path / "absent", create=False)

    def test_root_collision_with_file_rejected(self, tmp_path):
        stray = tmp_path / "stray"
        stray.write_text("not a directory")
        with pytest.raises(ValidationError, match="not a directory"):
            ModelStore(stray)

    def test_strict_load_raises_for_unknown_key(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        with pytest.raises(ValidationError, match="no entry"):
            store.load("feedfacedeadbeef")

    def test_corrupted_entry_counts_as_miss(self, system, tmp_path):
        store = ModelStore(tmp_path / "store")
        bdsm_reduce(system, 3, store=store)
        entry = store.entries()[0]
        entry.path.write_bytes(b"corrupted")
        assert store.fetch_key(entry.key) is None
        assert store.stats().misses == 2  # initial miss + corrupted fetch
        # ...and the memoized path transparently rebuilds and overwrites.
        rom, _, _ = bdsm_reduce(system, 3, store=store)
        assert rom.size > 0
        assert store.fetch_key(entry.key) is not None

    def test_lru_eviction_by_size_budget(self, tmp_path):
        systems = [make_benchmark(name, scale="smoke")
                   for name in ("ckt1", "ckt2", "ckt3")]
        probe = ModelStore(tmp_path / "probe")
        sizes = []
        for sysm in systems:
            rom, _, _ = bdsm_reduce(sysm, 2)
            key = probe.key_for(sysm, "BDSM", {"n_moments": 2})
            path = probe.put(key, rom, method="BDSM")
            sizes.append(path.stat().st_size)
        # Budget fits roughly two of the three artifacts.
        budget = sizes[1] + sizes[2] + sizes[0] // 2
        store = ModelStore(tmp_path / "store", max_bytes=budget)
        for sysm in systems:
            bdsm_reduce(sysm, 2, store=store)
        assert store.stats().evictions >= 1
        assert store.total_bytes() <= budget
        # The most recently stored entry must have survived.
        key3 = store.key_for(systems[2], "BDSM",
                             {"n_moments": 2, "s0": complex(0.0),
                              "deflation_tol": 1e-12,
                              "keep_projection": False})
        assert store.contains(key3)

    def test_hit_refreshes_lru_order(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        systems = [make_benchmark(name, scale="smoke")
                   for name in ("ckt1", "ckt2")]
        keys = []
        for sysm in systems:
            rom, _, _ = bdsm_reduce(sysm, 2)
            key = store.key_for(sysm, "BDSM", {"n_moments": 2})
            store.put(key, rom, method="BDSM")
            keys.append(key)
        # Touch the older entry; it must become most-recently-used.
        os.utime(store.artifact_path(keys[0]),
                 (os.path.getatime(store.artifact_path(keys[0])),
                  os.path.getmtime(store.artifact_path(keys[1])) + 10))
        assert store.entries()[-1].key == keys[0]

    def test_clear_removes_everything(self, system, tmp_path):
        store = ModelStore(tmp_path / "store")
        bdsm_reduce(system, 2, store=store)
        assert store.clear() == 1
        assert store.entries() == []
        assert store.total_bytes() == 0

    @pytest.mark.parametrize("reduce", [prima_reduce, bdsm_reduce],
                             ids=["prima", "bdsm"])
    def test_dense_budget_checked_before_store_lookup(self, system, tmp_path,
                                                      reduce):
        # A budgeted call fails the same way cold and after an unbudgeted
        # call stored the ROM: the store must not bypass the budget.
        store = ModelStore(tmp_path / "store")
        budget = ResourceBudget(max_dense_bytes=1000)
        with pytest.raises(ResourceBudgetExceeded):
            reduce(system, 4, budget=budget, store=store)
        reduce(system, 4, store=store)
        assert len(store.entries()) == 1
        with pytest.raises(ResourceBudgetExceeded):
            reduce(system, 4, budget=budget, store=store)
        assert store.stats().hits == 0

    def test_stats_snapshot_is_isolated(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        snap = store.stats()
        snap.hits = 99
        assert store.stats().hits == 0
        assert isinstance(snap, StoreStats)

    def test_concurrent_get_or_reduce_is_safe(self, system, tmp_path):
        """Hammer one key from many threads: no torn artifacts, every
        caller gets a usable, numerically identical ROM."""
        store = ModelStore(tmp_path / "store")

        def build():
            rom, _, _ = bdsm_reduce(system, 2)
            return rom

        def task(_):
            model, from_store = store.get_or_reduce(
                system, "BDSM", {"n_moments": 2}, build)
            return model.transfer_function(1j * 1e7)

        with ThreadPoolExecutor(max_workers=8) as pool:
            samples = list(pool.map(task, range(16)))
        for H in samples[1:]:
            assert np.array_equal(H, samples[0])
        stats = store.stats()
        assert stats.hits + stats.misses == 16
        assert stats.hits >= 1
        assert len(store.entries()) == 1

    def test_concurrent_writers_last_writer_wins_cleanly(self, tmp_path):
        """Concurrent puts to one key must never produce a torn artifact."""
        store = ModelStore(tmp_path / "store")
        system = make_benchmark("ckt1", scale="smoke")
        rom, _, _ = bdsm_reduce(system, 2)
        key = "0123456789abcdef"

        def write(_):
            store.put(key, rom, method="BDSM")
            return store.load(key)

        with ThreadPoolExecutor(max_workers=6) as pool:
            loaded = list(pool.map(write, range(12)))
        for model in loaded:
            assert np.array_equal(model.transfer_function(1j * 1e7),
                                  rom.transfer_function(1j * 1e7))


# --------------------------------------------------------------------------- #
# Acceptance: fresh-process reload is bit-identical
# --------------------------------------------------------------------------- #
_CHILD_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    from repro.store import load_artifact

    rom = load_artifact(sys.argv[1])
    omegas = np.logspace(5, 9, 5)
    H = np.stack([rom.transfer_function(1j * w) for w in omegas])
    json.dump({"re": H.real.tolist(), "im": H.imag.tolist()}, sys.stdout)
""")


def test_fresh_process_reload_reproduces_samples_bit_identically(
        bdsm_rom, tmp_path):
    """A ROM saved to the store and reloaded in a *fresh process* must
    reproduce transfer-function samples bit-identically (JSON float
    round-trips are exact, so the comparison really is bitwise)."""
    store = ModelStore(tmp_path / "store")
    key = "a" * 32
    store.put(key, bdsm_rom, method="BDSM")
    artifact = store.artifact_path(key)

    omegas = np.logspace(5, 9, 5)
    parent = np.stack([bdsm_rom.transfer_function(1j * w) for w in omegas])

    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(src_dir) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(artifact)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    child = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    assert np.array_equal(parent, child)
