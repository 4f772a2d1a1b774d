"""Tests for the partitioned hierarchical reduction subsystem
(:mod:`repro.partition`): graph partitioning, subdomain extraction with
interface-port promotion, the parallel shard driver, and the coupled
:class:`~repro.partition.assemble.PartitionedROM` macromodel."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro import make_benchmark
from repro.analysis import (
    FrequencyAnalysis,
    SourceBank,
    SweepEngine,
    TransientAnalysis,
    ir_drop_analysis,
)
from repro.analysis.sources import StepSource
from repro.circuit.mna import assemble_mna
from repro.circuit.powergrid import build_power_grid, make_multidomain_spec
from repro.core.bdsm import bdsm_reduce
from repro.exceptions import PartitionError
from repro.partition import (
    GridPartitioner,
    PartitionedROM,
    available_partitioners,
    extract_subdomains,
    multilevel_reduce,
    partitioned_reduce,
    partitioned_store_options,
    structure_adjacency,
)
from repro.partition.reduce import _project_subdomain
from repro.store import ModelStore
from repro.validation import max_relative_error, rom_agreement_report

OMEGAS = np.logspace(5, 9, 7)


@pytest.fixture(scope="module")
def multidomain_system():
    """A heterogeneous 24x24 grid: four R/C domains + a blockage void."""
    spec = make_multidomain_spec(24, 24, 10, seed=5, name="md-24x24")
    return assemble_mna(build_power_grid(spec))


# --------------------------------------------------------------------------- #
# Graph partitioning
# --------------------------------------------------------------------------- #
class TestGridPartitioner:
    def test_registry_lists_builtin_strategies(self):
        names = available_partitioners()
        assert "bfs" in names and "natural" in names

    @pytest.mark.parametrize("strategy", ["bfs", "natural"])
    def test_partition_covers_all_states(self, smoke_benchmark, strategy):
        result = GridPartitioner(k=4, strategy=strategy).partition(
            smoke_benchmark)
        n = smoke_benchmark.size
        covered = np.concatenate([*result.parts, result.interface])
        assert sorted(covered.tolist()) == list(range(n))
        assert result.k == 4 and len(result.parts) == 4
        assert result.strategy == strategy

    def test_internal_states_never_adjacent_across_parts(
            self, smoke_benchmark):
        result = GridPartitioner(k=3).partition(smoke_benchmark)
        adj = structure_adjacency(smoke_benchmark)
        owner = np.full(smoke_benchmark.size, -1)
        for part_idx, part in enumerate(result.parts):
            owner[part] = part_idx
        coo = adj.tocoo()
        for row, col in zip(coo.row, coo.col):
            if owner[row] >= 0 and owner[col] >= 0:
                assert owner[row] == owner[col], (
                    f"states {row} and {col} are adjacent but live in "
                    f"parts {owner[row]} and {owner[col]}")

    def test_bfs_parts_are_balanced(self, smoke_benchmark):
        result = GridPartitioner(k=4).partition(smoke_benchmark)
        assert result.balance < 2.0
        assert 0.0 < result.interface_fraction < 0.5

    def test_accepts_netlist_and_adjacency(self):
        from repro.circuit.benchmarks import make_benchmark_netlist

        netlist = make_benchmark_netlist("ckt1", scale="smoke")
        by_netlist = GridPartitioner(k=2).partition(netlist)
        system = assemble_mna(netlist)
        by_system = GridPartitioner(k=2).partition(system)
        assert by_netlist.n_states == by_system.n_states
        adj = structure_adjacency(system)
        by_adjacency = GridPartitioner(k=2).partition(adj)
        assert by_adjacency.n_states == system.size

    def test_describe_record(self, smoke_benchmark):
        info = GridPartitioner(k=2).partition(smoke_benchmark).describe()
        assert info["k"] == 2 and info["strategy"] == "bfs"
        assert info["interface"] > 0

    def test_k_validation(self):
        with pytest.raises(PartitionError):
            GridPartitioner(k=0)
        with pytest.raises(PartitionError):
            GridPartitioner(k=2, strategy="voronoi")

    def test_more_parts_than_states_rejected(self, rc_grid_system):
        with pytest.raises(PartitionError):
            GridPartitioner(k=10_000).partition(rc_grid_system)

    def test_k1_has_empty_interface(self, rc_grid_system):
        result = GridPartitioner(k=1).partition(rc_grid_system)
        assert result.interface_size == 0
        assert result.parts[0].shape[0] == rc_grid_system.size


# --------------------------------------------------------------------------- #
# Extraction
# --------------------------------------------------------------------------- #
class TestExtraction:
    def test_shards_are_valid_descriptor_systems(self, smoke_benchmark):
        result = GridPartitioner(k=3).partition(smoke_benchmark)
        subdomains, separator = extract_subdomains(smoke_benchmark, result)
        assert len(subdomains) == 3
        for sub in subdomains:
            assert sub.system.size == sub.size
            assert sub.system.B.shape[1] >= sub.n_own_ports
            assert sub.n_interface_inputs > 0
        assert separator.size == result.interface_size
        assert separator.B.shape == (separator.size,
                                     smoke_benchmark.n_ports)

    def test_identity_bases_reassemble_exactly(self, smoke_benchmark):
        """With V_i = I the macromodel is a permutation of the original:
        the assembly/coupling path must reproduce the transfer function to
        machine precision for any k."""
        for k in (2, 4):
            result = GridPartitioner(k=k).partition(smoke_benchmark)
            subdomains, sep = extract_subdomains(smoke_benchmark, result)
            reduced = [_project_subdomain(sub, np.eye(sub.size))
                       for sub in subdomains]
            rom = PartitionedROM(reduced, C_ss=sep.C, G_ss=sep.G,
                                 B_s=sep.B, L_s=sep.L)
            s = 1j * 1e7
            H_full = smoke_benchmark.transfer_function(s)
            H_part = rom.transfer_function(s)
            scale = np.max(np.abs(H_full))
            assert np.max(np.abs(H_part - H_full)) / scale < 1e-12, k

    def test_partition_size_mismatch_rejected(self, smoke_benchmark,
                                              rc_grid_system):
        result = GridPartitioner(k=2).partition(rc_grid_system)
        with pytest.raises(PartitionError):
            extract_subdomains(smoke_benchmark, result)


# --------------------------------------------------------------------------- #
# Partitioned reduction driver
# --------------------------------------------------------------------------- #
class TestPartitionedReduce:
    @pytest.mark.parametrize("method", ["bdsm", "prima"])
    def test_matches_full_model(self, smoke_benchmark, method):
        rom, stats, seconds = partitioned_reduce(
            smoke_benchmark, 3, n_parts=3, method=method)
        assert max_relative_error(smoke_benchmark, rom, OMEGAS) < 1e-8
        assert stats.inner_products > 0
        assert seconds > 0.0
        assert rom.method == f"P-{method.upper()}"

    def test_dc_is_exact(self, smoke_benchmark):
        rom, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=4)
        H0_full = smoke_benchmark.transfer_function(0.0)
        H0_rom = rom.transfer_function(0.0)
        scale = np.max(np.abs(H0_full))
        assert np.max(np.abs(H0_rom - H0_full)) / scale < 1e-10

    def test_parallel_shards_match_serial(self, smoke_benchmark):
        serial, _, _ = partitioned_reduce(smoke_benchmark, 3, n_parts=4)
        with SweepEngine(jobs=2) as engine:
            pooled, _, _ = partitioned_reduce(smoke_benchmark, 3,
                                              n_parts=4, engine=engine)
        assert pooled.size == serial.size
        for s in (0.0, 1j * 1e7, 1j * 1e9):
            assert np.allclose(pooled.transfer_function(s),
                               serial.transfer_function(s),
                               rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("levels", [1, 2])
    def test_bad_arguments(self, smoke_benchmark, levels):
        """The same typed error at every depth: at ``levels=2`` the shards
        recurse, so a bad argument must be caught before any shard
        reducer sees it."""
        reduce = (partitioned_reduce if levels == 1 else
                  functools.partial(multilevel_reduce, levels=levels,
                                    min_states=16))
        with pytest.raises(PartitionError, match="n_moments"):
            reduce(smoke_benchmark, 0, n_parts=2)
        with pytest.raises(PartitionError):
            reduce(smoke_benchmark, 2, method="svdmor")

    def test_store_memoizes_shards(self, smoke_benchmark, tmp_path):
        store = ModelStore(tmp_path / "store")
        first, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=3,
                                         store=store)
        assert store.stats().puts == 3
        assert store.stats().hits == 0
        second, _, _ = partitioned_reduce(smoke_benchmark, 2, n_parts=3,
                                          store=store)
        assert store.stats().hits == 3
        s = 1j * 1e8
        assert np.allclose(second.transfer_function(s),
                           first.transfer_function(s), rtol=1e-12)

    def test_store_keys_are_partition_aware(self, smoke_benchmark,
                                            tmp_path):
        store = ModelStore(tmp_path / "store")
        partitioned_reduce(smoke_benchmark, 2, n_parts=2, store=store)
        partitioned_reduce(smoke_benchmark, 2, n_parts=3, store=store)
        # Different layouts produce disjoint shard keys: no false hits.
        assert store.stats().hits == 0
        assert store.stats().puts == 5

    def test_store_options_record(self):
        options = partitioned_store_options(4, s0=0.0, method="bdsm")
        assert options["n_moments"] == 4
        assert options["keep_projection"] is True
        assert options["partition"]["scheme"] == "partitioned"
        with pytest.raises(PartitionError):
            partitioned_store_options(4, method="eks")

    def test_complex_output_matrix_preserved(self, rc_grid_system):
        """Complex ``L`` must survive partitioning (regression: the
        subdomain blocks used to float-coerce, silently dropping the
        imaginary part of every subdomain output row)."""
        rng = np.random.default_rng(0)
        L = rc_grid_system.L.toarray().astype(complex)
        L += 1j * rng.standard_normal(L.shape) * np.abs(L).max()
        system = rc_grid_system.with_outputs(sp.csr_matrix(L))
        rom, _, _ = partitioned_reduce(system, 3, n_parts=2)
        s = 1j * 1e7
        H_full = system.transfer_function(s)
        H_rom = rom.transfer_function(s)
        scale = np.max(np.abs(H_full))
        assert np.max(np.abs(H_rom - H_full)) / scale < 1e-8

    def test_keep_projection(self, rc_grid_system):
        rom, _, _ = partitioned_reduce(rc_grid_system, 2, n_parts=2,
                                       keep_projection=True)
        for sub in rom.subdomains:
            assert sub.basis is not None
            assert sub.basis.shape[1] == sub.order


# --------------------------------------------------------------------------- #
# The macromodel's query surface (analyses must be oblivious to sharding)
# --------------------------------------------------------------------------- #
class TestPartitionedROMQueries:
    @pytest.fixture(scope="class")
    def roms(self, multidomain_system):
        mono, _, _ = bdsm_reduce(multidomain_system, 3)
        part, _, _ = partitioned_reduce(multidomain_system, 3, n_parts=4)
        return mono, part

    def test_dimensions_and_structure(self, multidomain_system, roms):
        _, part = roms
        assert part.n_ports == multidomain_system.n_ports
        assert part.n_outputs == multidomain_system.n_outputs
        assert part.size == sum(s.order for s in part.subdomains) \
            + part.interface_size
        assert part.original_size == multidomain_system.size
        assert part.reusable
        # Assembled matrices are sparse and consistent.
        assert sp.issparse(part.C) and sp.issparse(part.G)
        assert part.C.shape == (part.size, part.size)
        assert part.B.shape == (part.size, part.n_ports)
        assert part.L.shape == (part.n_outputs, part.size)
        assert part.nnz > 0
        assert set(part.density()) == {"C", "G", "B", "L"}

    def test_transfer_entry_matches_matrix(self, roms):
        _, part = roms
        s = 1j * 3e7
        H = part.transfer_function(s)
        assert H.shape == (part.n_outputs, part.n_ports)
        for output, port in ((0, 0), (1, 2)):
            assert np.isclose(part.transfer_entry(s, output, port),
                              H[output, port], rtol=1e-10)
        with pytest.raises(PartitionError):
            part.transfer_entry(s, 0, part.n_ports)
        with pytest.raises(PartitionError):
            part.transfer_entry(s, part.n_outputs, 0)

    def test_schur_path_matches_assembled_dense(self, roms):
        """The hierarchical Schur evaluation must agree with a plain dense
        solve of the assembled bordered pencil."""
        _, part = roms
        dense = part.to_reduced_system()
        for s in (1j * 1e6, 1j * 1e9):
            assert np.allclose(part.transfer_function(s),
                               dense.transfer_function(s),
                               rtol=1e-8, atol=1e-300)

    def test_frequency_analysis_sweep(self, multidomain_system, roms):
        _, part = roms
        analysis = FrequencyAnalysis(omega_min=1e5, omega_max=1e9,
                                     n_points=5)
        sweep = analysis.sweep(part)
        reference = analysis.sweep(multidomain_system)
        assert np.max(sweep.relative_error_to(reference)) < 1e-8

    def test_ir_drop(self, multidomain_system, roms):
        _, part = roms
        loads = np.linspace(1e-3, 2e-3, multidomain_system.n_ports)
        full = ir_drop_analysis(multidomain_system, loads)
        reduced = ir_drop_analysis(part, loads)
        assert np.allclose(reduced.voltages, full.voltages, rtol=1e-8)
        assert reduced.worst()[1] >= 0.0

    def test_transient(self, multidomain_system, roms):
        _, part = roms
        bank = SourceBank.uniform(
            multidomain_system.n_ports,
            StepSource(amplitude=1e-3, rise_time=1e-12))
        transient = TransientAnalysis(t_stop=5e-12, dt=1e-12)
        full_run = transient.run(multidomain_system, bank)
        rom_run = transient.run(part, bank)
        assert rom_run.outputs.shape == full_run.outputs.shape
        scale = np.max(np.abs(full_run.outputs)) or 1.0
        assert np.max(np.abs(rom_run.outputs - full_run.outputs)) / scale \
            < 1e-6

    def test_summary_record(self, roms):
        _, part = roms
        summary = part.summary(mor_seconds=1.0)
        assert summary.method == "P-BDSM"
        assert summary.rom_size == part.size
        assert summary.extra["k"] == 4


# --------------------------------------------------------------------------- #
# Acceptance criterion: >= 64x64 multi-domain grid, <= 1e-6 agreement
# --------------------------------------------------------------------------- #
def test_acceptance_64x64_multidomain_matches_monolithic():
    """The PR's acceptance bar: on a >= 64x64 heterogeneous grid the
    partitioned macromodel must match the monolithic BDSM ROM's transfer
    function to <= 1e-6 relative error over the bench frequency grid."""
    spec = make_multidomain_spec(64, 64, 24, seed=3,
                                 name="multidomain-64x64")
    system = assemble_mna(build_power_grid(spec))
    assert system.size >= 64 * 64 * 0.9  # blockage voids remove some nodes
    mono, _, _ = bdsm_reduce(system, 4)
    part, _, _ = partitioned_reduce(system, 4, n_parts=4)
    report = rom_agreement_report(mono, part, OMEGAS)
    assert report["max_rel_error"] <= 1e-6, report
    # And both track the full model, so the agreement is not vacuous.
    assert max_relative_error(system, part, OMEGAS) < 1e-6


def test_partitioned_reduce_of_registered_benchmark():
    """Sharding composes with the registered ckt benchmarks as well."""
    system = make_benchmark("ckt2", scale="smoke")
    rom, _, _ = partitioned_reduce(system, 3, n_parts=4,
                                   partitioner="natural")
    assert max_relative_error(system, rom, OMEGAS) < 1e-8
    assert rom.partition_info["strategy"] == "natural"
