"""Partition conformance suite: the invariants every partitioned reduce
must satisfy, pinned independently of any particular accuracy target.

Four families of guarantees are enforced here:

* **Structural invariants** (hypothesis): any partition produced by
  :class:`~repro.partition.graph.GridPartitioner` is a bijective
  relabelling of the states, no two internal states of different parts are
  adjacent (every cut edge ends in the separator), and the parts stay
  balanced — for every ``k`` and both built-in strategies.
* **Exactness at ``interface_order=None``**: with identity shard bases the
  assembled macromodel *is* the symmetrically permuted original pencil
  (bit-for-bit block equality) and reproduces the transfer function to the
  PR 5 bound (~1e-12).
* **Structure preservation**: congruence projection with real orthonormal
  bases keeps the RC pencil symmetric and the capacitance block PSD, and
  the macromodel's transfer matrix stays reciprocal — with and without
  interface reduction, at one and two levels.
* **Error budget**: for every ``k`` in {2, 3, 4}, both partitioners and
  both hierarchy depths, an interface-reduced reduce tracks the monolithic
  BDSM ROM within the configured interface error budget.

Plus the satellite regressions: health reports at every depth (a
``partition.recursion_fallback`` warn per shard that could not be split
again), edge cases of the interface-reduction path, partition-aware store
keys (including a fresh-process reload), and the agreement-report
densification guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.mna import assemble_mna
from repro.circuit.powergrid import build_power_grid, make_multidomain_spec
from repro.core.bdsm import bdsm_reduce
from repro.exceptions import PartitionError
from repro.obs.metrics import default_metrics
from repro.partition import (
    GridPartitioner,
    InterfaceBasis,
    PartitionedOptions,
    PartitionedROM,
    compress_subdomain,
    extract_subdomains,
    interface_krylov_basis,
    multilevel_reduce,
    partitioned_reduce,
    partitioned_store_options,
    structure_adjacency,
)
from repro.partition.reduce import _project_subdomain
from repro.store import ModelStore
from repro.validation import max_relative_error, rom_agreement_report

OMEGAS = np.logspace(5, 9, 7)

#: PR 5 exactness bound: with identity bases (or any orthonormal basis
#: containing them) the macromodel is the permuted original pencil.
EXACTNESS_BOUND = 1e-12

#: Interface error budget of the conformance configurations below: with
#: ``interface_order`` matching the shard order and a tight truncation
#: tolerance, the macromodel must track the monolithic ROM at least this
#: well on the conformance grid (measured headroom is ~100x).
INTERFACE_BUDGET = 1e-4
INTERFACE_ORDER = 3
INTERFACE_TOL = 1e-8

# Property examples run a full partition of a ~150-state benchmark each.
SETTINGS = settings(max_examples=20, deadline=None)


@pytest.fixture(scope="module")
def conformance_system():
    """A heterogeneous 24x24 multi-domain grid (four R/C domains + void)."""
    spec = make_multidomain_spec(24, 24, 10, seed=5, name="conf-24x24")
    return assemble_mna(build_power_grid(spec))


@pytest.fixture(scope="module")
def monolithic_rom(conformance_system):
    rom, _, _ = bdsm_reduce(conformance_system, INTERFACE_ORDER)
    return rom


# --------------------------------------------------------------------------- #
# Structural invariants (hypothesis)
# --------------------------------------------------------------------------- #
class TestPartitionInvariants:
    @SETTINGS
    @given(k=st.integers(min_value=1, max_value=6),
           strategy=st.sampled_from(["bfs", "natural"]))
    def test_partition_is_a_bijection(self, smoke_benchmark, k, strategy):
        """Parts plus separator relabel every state exactly once."""
        result = GridPartitioner(k=k, strategy=strategy).partition(
            smoke_benchmark)
        covered = np.concatenate([*result.parts, result.interface])
        assert sorted(covered.tolist()) == list(range(smoke_benchmark.size))

    @SETTINGS
    @given(k=st.integers(min_value=2, max_value=6),
           strategy=st.sampled_from(["bfs", "natural"]))
    def test_every_cut_edge_ends_in_the_separator(self, smoke_benchmark,
                                                  k, strategy):
        """No structural edge may connect internals of different parts."""
        result = GridPartitioner(k=k, strategy=strategy).partition(
            smoke_benchmark)
        owner = np.full(smoke_benchmark.size, -1)
        for part_idx, part in enumerate(result.parts):
            owner[part] = part_idx
        adj = structure_adjacency(smoke_benchmark).tocoo()
        internal = (owner[adj.row] >= 0) & (owner[adj.col] >= 0)
        assert np.all(owner[adj.row[internal]] == owner[adj.col[internal]])

    @SETTINGS
    @given(k=st.integers(min_value=2, max_value=6))
    def test_bfs_parts_stay_balanced(self, smoke_benchmark, k):
        """The bfs strategy keeps parts balanced: the largest part never
        exceeds 3x the ideal share (2x at the default k=4) and the
        separator stays a minority of the states."""
        result = GridPartitioner(k=k, strategy="bfs").partition(
            smoke_benchmark)
        assert result.balance < (2.0 if k <= 4 else 3.0)
        assert result.interface_fraction < 0.5

    @SETTINGS
    @given(k=st.integers(min_value=2, max_value=6),
           strategy=st.sampled_from(["bfs", "natural"]))
    def test_every_part_is_usable(self, smoke_benchmark, k, strategy):
        """Both strategies always produce k non-empty parts (the natural
        strategy trades balance for locality but may not drop parts)."""
        result = GridPartitioner(k=k, strategy=strategy).partition(
            smoke_benchmark)
        assert len(result.parts) == k
        assert all(part.size > 0 for part in result.parts)

    @SETTINGS
    @given(k=st.integers(min_value=2, max_value=4),
           strategy=st.sampled_from(["bfs", "natural"]))
    def test_extraction_conserves_states_and_couplings(
            self, smoke_benchmark, k, strategy):
        """Shard + separator sizes add up and couplings stay on the cut."""
        result = GridPartitioner(k=k, strategy=strategy).partition(
            smoke_benchmark)
        subdomains, separator = extract_subdomains(smoke_benchmark, result)
        assert sum(s.size for s in subdomains) + separator.size \
            == smoke_benchmark.size
        for sub in subdomains:
            # Couplings only touch the separator states the shard's
            # boundary records (boundary = separator positions).
            touched = np.union1d(sub.G_is.tocoo().col,
                                 sub.C_is.tocoo().col)
            assert np.isin(touched, sub.boundary).all()
            assert sub.C_is.shape == (sub.size, separator.size)


# --------------------------------------------------------------------------- #
# Exactness at interface_order=None (the PR 5 bound)
# --------------------------------------------------------------------------- #
class TestExactInterfaceConformance:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity_bases_assemble_the_permuted_pencil(
            self, conformance_system, k):
        """With ``V_i = I`` the assembled blocks equal the permuted
        original matrices exactly — not approximately."""
        system = conformance_system
        result = GridPartitioner(k=k).partition(system)
        subdomains, sep = extract_subdomains(system, result)
        reduced = [_project_subdomain(sub, np.eye(sub.size))
                   for sub in subdomains]
        rom = PartitionedROM(reduced, C_ss=sep.C, G_ss=sep.G,
                             B_s=sep.B, L_s=sep.L)
        perm = np.concatenate([*[s.internal for s in subdomains],
                               sep.indices])
        for assembled, original in ((rom.C, system.C), (rom.G, system.G)):
            expected = original.tocsr()[perm][:, perm]
            assert abs(assembled - expected).max() == 0.0
        assert abs(rom.B - system.B.tocsr()[perm]).max() == 0.0
        assert abs(rom.L - system.L.tocsr()[:, perm]).max() == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity_bases_reproduce_tf_to_machine_precision(
            self, conformance_system, k):
        system = conformance_system
        result = GridPartitioner(k=k).partition(system)
        subdomains, sep = extract_subdomains(system, result)
        reduced = [_project_subdomain(sub, np.eye(sub.size))
                   for sub in subdomains]
        rom = PartitionedROM(reduced, C_ss=sep.C, G_ss=sep.G,
                             B_s=sep.B, L_s=sep.L)
        for s in (0.0, 1j * 1e7, 1j * 1e9):
            H_full = system.transfer_function(s)
            H_part = rom.transfer_function(s)
            scale = np.max(np.abs(H_full))
            assert np.max(np.abs(H_part - H_full)) / scale \
                < EXACTNESS_BOUND, k

    @pytest.mark.parametrize("levels", [1, 2])
    def test_exact_interface_path_unchanged_by_levels(
            self, conformance_system, levels):
        """``interface_order=None`` keeps the exact-interface semantics at
        every depth: the macromodel matches the full model like PR 5's
        single-level driver does."""
        rom, stats, _ = multilevel_reduce(
            conformance_system, INTERFACE_ORDER, levels=levels, n_parts=2,
            min_states=64)
        assert stats.inner_products > 0
        assert max_relative_error(conformance_system, rom, OMEGAS) < 1e-8


# --------------------------------------------------------------------------- #
# Structure preservation (reciprocity / passivity ingredients)
# --------------------------------------------------------------------------- #
class TestStructurePreservation:
    @pytest.fixture(scope="class", params=[None, INTERFACE_ORDER],
                    ids=["exact-interface", "reduced-interface"])
    def structured_rom(self, request, conformance_system):
        interface = (None if request.param is None else
                     PartitionedOptions(interface_order=request.param,
                                        interface_tol=INTERFACE_TOL))
        rom, _, _ = partitioned_reduce(conformance_system, INTERFACE_ORDER,
                                       n_parts=3, interface=interface)
        return rom

    def test_congruence_keeps_pencil_symmetric(self, structured_rom):
        """The RC grid's C and G are symmetric; real congruence bases (and
        the reduced-interface W) must preserve that in the assembly."""
        for block in (structured_rom.C, structured_rom.G):
            dense = block.toarray()
            scale = np.max(np.abs(dense)) or 1.0
            assert np.max(np.abs(dense - dense.T)) / scale < 1e-12

    def test_congruence_keeps_capacitance_psd(self, structured_rom):
        """Passivity ingredient: x^T C x >= 0 survives projection."""
        dense = structured_rom.C.toarray()
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        scale = max(float(eigs[-1]), 1.0)
        assert eigs[0] >= -1e-12 * scale

    def test_transfer_matrix_is_reciprocal(self, conformance_system,
                                           structured_rom):
        """``L = B^T`` grids have symmetric transfer matrices; the
        macromodel must keep the reciprocity the full model has."""
        for s in (1j * 1e6, 1j * 1e8):
            H_full = conformance_system.transfer_function(s)
            assert np.allclose(H_full, H_full.T, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(H_full)))
            H = structured_rom.transfer_function(s)
            assert np.allclose(H, H.T, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(H)))


# --------------------------------------------------------------------------- #
# Interface error budget, k x partitioner x levels
# --------------------------------------------------------------------------- #
class TestInterfaceErrorBudget:
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("partitioner", ["bfs", "natural"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_reduced_interface_tracks_monolithic(
            self, conformance_system, monolithic_rom, k, partitioner,
            levels):
        rom, _, _ = multilevel_reduce(
            conformance_system, INTERFACE_ORDER, levels=levels, n_parts=k,
            partitioner=partitioner,
            interface=PartitionedOptions(interface_order=INTERFACE_ORDER,
                                         interface_tol=INTERFACE_TOL),
            min_states=64)
        report = rom_agreement_report(monolithic_rom, rom, OMEGAS)
        assert report["max_rel_error"] <= INTERFACE_BUDGET, report
        if rom.is_interface_reduced:
            info = rom.partition_info
            assert info["interface_reduced"] <= info["interface"]

    def test_tighter_tolerance_never_retains_fewer_states(
            self, conformance_system):
        """The truncation knob is monotone: tightening ``interface_tol``
        can only grow the retained interface order."""
        result = GridPartitioner(k=3).partition(conformance_system)
        subdomains, separator = extract_subdomains(conformance_system,
                                                   result)
        sizes = []
        for tol in (1e-2, 1e-6, 1e-10, 0.0):
            basis = interface_krylov_basis(subdomains, separator,
                                           INTERFACE_ORDER, tol=tol)
            sizes.append(basis.size)
            assert basis.W.shape[0] == separator.size
            # Orthonormality of the retained separator directions.
            gram = basis.W.T @ basis.W
            assert np.allclose(gram, np.eye(basis.size), atol=1e-10)
        assert sizes == sorted(sizes)


# --------------------------------------------------------------------------- #
# Health monitors at every depth
# --------------------------------------------------------------------------- #
#: The TestInterfaceErrorBudget config in which every shard (95-110 states)
#: is too small to split again, so the two-level reduce falls back to one.
FALLBACK_CONFIG = dict(levels=2, n_parts=4, partitioner="natural",
                       min_states=64,
                       interface=PartitionedOptions(
                           interface_order=INTERFACE_ORDER,
                           interface_tol=INTERFACE_TOL))


class TestMultilevelHealth:
    def test_two_level_rom_carries_its_own_health_check(
            self, smoke_benchmark, monitors):
        rom, _, _ = multilevel_reduce(smoke_benchmark, 3, levels=2,
                                      n_parts=2, min_states=16)
        assert rom.partition_info["children"]
        assert rom.partition_info["depth"] == 2
        own = rom.health.checks[-1]
        assert own.monitor == "reduce.deflation_rate"
        assert own.labels == {"method": "partitioned-BDSM"}
        assert f"kept={rom.size}" in own.detail

    def test_recursion_fallback_warns_once_per_shard(
            self, conformance_system, monitors):
        rom, _, _ = multilevel_reduce(conformance_system, INTERFACE_ORDER,
                                      **FALLBACK_CONFIG)
        assert rom.partition_info["children"] == []
        assert rom.partition_info["depth"] == 1
        fallbacks = [check for check in rom.health.checks
                     if check.monitor == "partition.recursion_fallback"]
        assert [check.status for check in fallbacks] == ["warn"] * 4
        assert rom.health.status == "warn"
        details = sorted(check.detail for check in fallbacks)
        for index, detail in enumerate(details):
            assert detail.startswith(f"shard {index} (")
            assert " states) reduced directly: " in detail

    def test_fallback_records_nothing_with_monitors_off(
            self, conformance_system):
        def fallback_verdicts() -> float:
            return sum(e["value"] for e in
                       default_metrics().snapshot()["counters"]
                       if e["name"] == "health.verdict"
                       and e["labels"].get("monitor")
                       == "partition.recursion_fallback")

        before = fallback_verdicts()
        rom, _, _ = multilevel_reduce(conformance_system, INTERFACE_ORDER,
                                      **FALLBACK_CONFIG)
        assert rom.partition_info["depth"] == 1
        assert fallback_verdicts() == before
        assert rom.health is None


# --------------------------------------------------------------------------- #
# Edge cases of the interface-reduction path
# --------------------------------------------------------------------------- #
class TestInterfaceEdgeCases:
    def test_single_part_has_no_interface_to_reduce(self, rc_grid_system):
        """k=1 yields an empty separator; asking for interface reduction
        must be a clean no-op, not an error."""
        rom, _, _ = partitioned_reduce(
            rc_grid_system, 2, n_parts=1,
            interface=PartitionedOptions(interface_order=2))
        assert rom.interface_size == 0
        assert not rom.is_interface_reduced
        assert max_relative_error(rc_grid_system, rom, OMEGAS) < 1e-8

    def test_empty_separator_basis_is_well_formed(self, rc_grid_system):
        result = GridPartitioner(k=1).partition(rc_grid_system)
        subdomains, separator = extract_subdomains(rc_grid_system, result)
        assert separator.size == 0
        basis = interface_krylov_basis(subdomains, separator, 2)
        assert basis.W.shape == (0, 0)
        assert basis.size == 0

    def test_complex_outputs_survive_interface_reduction(
            self, rc_grid_system):
        """Complex ``L`` must flow through the compressed-input path
        without dtype coercion."""
        rng = np.random.default_rng(0)
        L = rc_grid_system.L.toarray().astype(complex)
        L += 1j * rng.standard_normal(L.shape) * np.abs(L).max()
        system = rc_grid_system.with_outputs(sp.csr_matrix(L))
        rom, _, _ = partitioned_reduce(
            system, 3, n_parts=2,
            interface=PartitionedOptions(interface_order=3,
                                         interface_tol=1e-10))
        assert np.iscomplexobj(rom.transfer_function(1j * 1e7))
        assert max_relative_error(system, rom, OMEGAS) < 1e-6

    def test_zero_promoted_ports_raise_cleanly(self, rc_grid_system):
        """A shard with no own loads whose couplings vanish under an empty
        separator basis must fail with an actionable PartitionError."""
        result = GridPartitioner(k=2).partition(rc_grid_system)
        subdomains, separator = extract_subdomains(rc_grid_system, result)
        empty = InterfaceBasis(W=np.zeros((separator.size, 0)), order=1,
                               tol=0.0, candidates=0,
                               singular_values=np.zeros(0))
        orphan = replace(subdomains[0], n_own_ports=0)
        with pytest.raises(PartitionError, match="no load ports"):
            compress_subdomain(orphan, empty)

    def test_options_validation(self):
        with pytest.raises(PartitionError):
            PartitionedOptions(interface_order=0)
        for bad_tol in (-0.1, 1.0):
            with pytest.raises(PartitionError):
                PartitionedOptions(interface_tol=bad_tol)
        record = PartitionedOptions(interface_order=4,
                                    interface_tol=1e-6).describe()
        assert record == {"interface_order": 4, "interface_tol": 1e-6}
        assert not PartitionedOptions().reduces_interface

    def test_multilevel_validation(self, rc_grid_system):
        with pytest.raises(PartitionError):
            multilevel_reduce(rc_grid_system, 2, levels=0)
        with pytest.raises(PartitionError):
            multilevel_reduce(rc_grid_system, 2, levels=2, min_states=0)


# --------------------------------------------------------------------------- #
# Partition-aware store keys
# --------------------------------------------------------------------------- #
class TestStoreConformance:
    def test_same_interface_options_hit(self, conformance_system,
                                        tmp_path):
        store = ModelStore(tmp_path / "store")
        interface = PartitionedOptions(interface_order=3,
                                       interface_tol=1e-6)
        first, _, _ = partitioned_reduce(conformance_system, 3, n_parts=3,
                                         interface=interface, store=store)
        assert store.stats().puts == 3
        second, _, _ = partitioned_reduce(conformance_system, 3, n_parts=3,
                                          interface=interface, store=store)
        assert store.stats().hits == 3
        s = 1j * 1e7
        assert np.allclose(second.transfer_function(s),
                           first.transfer_function(s), rtol=1e-12)

    def test_different_interface_order_misses(self, conformance_system,
                                              tmp_path):
        store = ModelStore(tmp_path / "store")
        for order in (2, 3, None):
            interface = (None if order is None
                         else PartitionedOptions(interface_order=order))
            partitioned_reduce(conformance_system, 3, n_parts=2,
                               interface=interface, store=store)
        # Three layouts share the partition but differ in the interface
        # treatment: every shard reduction must be a fresh key.
        assert store.stats().hits == 0
        assert store.stats().puts == 6

    def test_store_options_record_interface(self):
        options = partitioned_store_options(
            3, method="bdsm",
            interface=PartitionedOptions(interface_order=4,
                                         interface_tol=1e-5))
        assert options["partition"]["interface_reduction"] \
            == {"interface_order": 4, "interface_tol": 1e-5}
        exact = partitioned_store_options(3, method="bdsm")
        # The exact-interface record is still present (None order) so the
        # key schema is stable across both modes.
        assert exact["partition"]["interface_reduction"] \
            ["interface_order"] is None


_CHILD_SCRIPT = """
import json, sys
import numpy as np
from repro.store import load_artifact

rom = load_artifact(sys.argv[1])
omegas = np.logspace(5, 9, 5)
H = np.stack([rom.transfer_function(1j * w) for w in omegas])
json.dump({"re": H.real.tolist(), "im": H.imag.tolist()}, sys.stdout)
"""


def test_fresh_process_reload_of_interface_reduced_shard(
        conformance_system, tmp_path):
    """An interface-reduced shard ROM reloaded in a *fresh process* must
    reproduce transfer samples bit-identically — the compressed-input
    ports are ordinary ports to the artifact codec."""
    store = ModelStore(tmp_path / "store")
    partitioned_reduce(conformance_system, 3, n_parts=2,
                       interface=PartitionedOptions(interface_order=3),
                       store=store)
    entries = store.entries()
    assert entries, "shard reductions were not persisted"
    key = entries[-1].key
    shard = store.load(key)

    omegas = np.logspace(5, 9, 5)
    parent = np.stack([shard.transfer_function(1j * w) for w in omegas])

    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(src_dir) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT,
         str(store.artifact_path(key))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    child = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    assert np.array_equal(parent, child)


# --------------------------------------------------------------------------- #
# Recorded scaling acceptance (pins the committed workload trajectory)
# --------------------------------------------------------------------------- #
def test_recorded_scaled_workload_meets_acceptance():
    """The committed ``partitioned_scaled`` trajectory must show the
    interface-reduced multilevel reduce beating the monolithic one >=5x
    on a >=128x128 grid, within the configured error budget.

    This asserts on the *recorded* JSON (regenerated with
    ``python -m repro bench --workload partitioned_scaled``), not on a
    fresh run — wall-clock ratios at this scale take minutes, and the
    record is what the README's speedup table cites."""
    path = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "results" / "partitioned_scaled.json")
    if not path.exists():
        pytest.skip("partitioned_scaled.json not recorded yet")
    payload = json.loads(path.read_text())
    entry = (payload.get("scales") or {}).get("laptop")
    if entry is None:
        pytest.skip("laptop scale not recorded yet")
    assert entry["levels"] >= 2
    assert entry["interface_order"] is not None
    assert entry["n"] >= 128 * 128 * 0.9  # blockage voids remove nodes
    assert entry["speedup"] >= 5.0, entry
    assert entry["within_budget"], entry
    assert entry["max_rel_error_vs_monolithic"] <= entry["error_budget"]


# --------------------------------------------------------------------------- #
# Agreement-report densification guard (regression)
# --------------------------------------------------------------------------- #
class _CountingToarray(sp.csr_matrix):
    """CSR matrix that counts its densifications."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.toarray_calls = 0

    def toarray(self, *args, **kwargs):
        self.toarray_calls += 1
        return super().toarray(*args, **kwargs)


def test_agreement_report_densifies_interface_once(conformance_system,
                                                   monolithic_rom):
    """Regression: ``rom_agreement_report`` samples the macromodel once
    per frequency, and the Schur path used to densify the (large, possibly
    exact) interface pencil on *every* sample.  The dense interface blocks
    must be built exactly once per report regardless of the grid size."""
    rom, _, _ = partitioned_reduce(
        conformance_system, INTERFACE_ORDER, n_parts=3,
        interface=PartitionedOptions(interface_order=INTERFACE_ORDER,
                                     interface_tol=INTERFACE_TOL))
    counters = {}
    for attr in ("C_ss", "G_ss", "B_s"):
        counting = _CountingToarray(getattr(rom, attr).tocsr())
        setattr(rom, attr, counting)
        counters[attr] = counting
    rom._dense_interface = None  # drop any cached densification

    report = rom_agreement_report(monolithic_rom, rom, OMEGAS)
    assert report["max_rel_error"] <= INTERFACE_BUDGET
    for attr, counting in counters.items():
        assert counting.toarray_calls <= 1, (
            f"{attr} was densified {counting.toarray_calls}x during one "
            f"{OMEGAS.size}-point agreement report")
