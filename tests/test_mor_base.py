"""Unit tests for repro.mor.base (ReducedSystem, ResourceBudget, summaries)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ReductionError, ResourceBudgetExceeded
from repro.mor.base import ReducedSystem, ReductionSummary, ResourceBudget


def _tiny_rom():
    C = np.diag([1.0, 2.0])
    G = -np.diag([1.0, 1.0])
    B = np.array([[1.0], [0.0]])
    L = np.array([[1.0, 1.0]])
    return ReducedSystem(C=C, G=G, B=B, L=L, method="TEST", n_moments=2,
                         original_size=100, original_ports=1, name="tiny")


class TestResourceBudget:
    def test_unlimited_never_raises(self):
        ResourceBudget.unlimited().check_dense(10 ** 6, 10 ** 6, what="huge")

    def test_exceeding_budget_raises(self):
        budget = ResourceBudget(max_dense_bytes=1000, label="tiny budget")
        with pytest.raises(ResourceBudgetExceeded) as err:
            budget.check_dense(100, 100, what="basis")
        assert err.value.required_bytes == 100 * 100 * 8
        assert err.value.budget_bytes == 1000

    def test_within_budget_passes(self):
        ResourceBudget(max_dense_bytes=10 ** 6).check_dense(10, 10,
                                                            what="basis")

    def test_table_ii_preset(self):
        budget = ResourceBudget.table_ii()
        assert budget.max_dense_bytes == ResourceBudget.TABLE_II_DEFAULT_BYTES


class TestReducedSystem:
    def test_dimensions(self):
        rom = _tiny_rom()
        assert rom.size == 2
        assert rom.n_ports == 1
        assert rom.n_outputs == 1
        assert rom.nnz == 2 + 2 + 1

    def test_transfer_function_matches_manual(self):
        rom = _tiny_rom()
        s = 1j * 3.0
        pencil = s * rom.C - rom.G
        expected = rom.L @ np.linalg.solve(pencil, rom.B.astype(complex))
        assert np.allclose(rom.transfer_function(s), expected)
        assert rom.transfer_entry(s, 0, 0) == pytest.approx(expected[0, 0])

    def test_density(self):
        rom = _tiny_rom()
        density = rom.density()
        assert density["C"] == pytest.approx(0.5)
        assert density["B"] == pytest.approx(0.5)

    def test_reconstruct_state_requires_projection(self):
        rom = _tiny_rom()
        with pytest.raises(ReductionError):
            rom.reconstruct_state(np.ones(2))

    def test_reconstruct_state_with_projection(self):
        rom = _tiny_rom()
        rom.projection = np.vstack([np.eye(2), np.zeros((3, 2))])
        lifted = rom.reconstruct_state(np.array([1.0, 2.0]))
        assert lifted.shape == (5,)
        assert np.allclose(lifted[:2], [1.0, 2.0])

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ReductionError):
            ReducedSystem(C=np.eye(2), G=np.eye(3), B=np.ones((2, 1)),
                          L=np.ones((1, 2)))
        with pytest.raises(ReductionError):
            ReducedSystem(C=np.eye(2), G=np.eye(2), B=np.ones((3, 1)),
                          L=np.ones((1, 2)))

    def test_summary_row(self):
        rom = _tiny_rom()
        summary = rom.summary(mor_seconds=1.25)
        row = summary.as_row()
        assert row["method"] == "TEST"
        assert row["ROM size"] == 2
        assert row["MOR time (s)"] == 1.25
        assert row["status"] == "ok"
        assert row["reusable"] == "yes"


class TestComplexReducedSystem:
    """Regression: the ndarray branch of ``_dense`` used to coerce to
    ``dtype=float``, silently dropping imaginary parts while the sparse
    branch preserved them."""

    def _complex_rom(self):
        C = np.diag([1.0 + 0.5j, 2.0 - 0.25j])
        G = -np.eye(2) + 0.125j * np.eye(2)
        B = np.array([[1.0 + 1.0j], [0.0]])
        L = np.array([[1.0, 1.0 - 2.0j]])
        return ReducedSystem(C=C, G=G, B=B, L=L, method="TEST",
                             n_moments=1, name="complex-tiny")

    def test_complex_pencil_round_trips_without_dropping_imag(self):
        rom = self._complex_rom()
        assert np.iscomplexobj(rom.C) and rom.C[0, 0] == 1.0 + 0.5j
        assert np.iscomplexobj(rom.G) and rom.G[1, 1] == -1.0 + 0.125j
        assert np.iscomplexobj(rom.B) and rom.B[0, 0] == 1.0 + 1.0j
        assert np.iscomplexobj(rom.L) and rom.L[0, 1] == 1.0 - 2.0j

    def test_dense_branch_matches_sparse_branch_dtype(self):
        C = np.diag([1.0 + 0.5j, 2.0 - 0.25j])
        dense = ReducedSystem._dense(C)
        sparse = ReducedSystem._dense(sp.csr_matrix(C))
        assert dense.dtype == sparse.dtype
        assert np.array_equal(dense, sparse)

    def test_real_and_int_inputs_still_become_float(self):
        assert ReducedSystem._dense(np.eye(2, dtype=int)).dtype == float
        assert ReducedSystem._dense(np.eye(2)).dtype == float

    def test_complex_transfer_function_evaluates(self):
        rom = self._complex_rom()
        s = 1j * 2.0
        expected = rom.L @ np.linalg.solve(s * rom.C - rom.G, rom.B)
        assert np.allclose(rom.transfer_function(s), expected)

    def test_b_complex_cache_reused_across_evaluations(self):
        rom = _tiny_rom()
        first = rom._group((0,))["B"]
        rom.transfer_function(1j)
        rom.transfer_entry(2j, 0, 0)
        assert rom._group((0,))["B"] is first
        assert first.dtype == complex


class TestReductionSummary:
    def test_break_down_record(self):
        summary = ReductionSummary.break_down(
            "PRIMA", "ckt4", original_size=123_000, original_ports=315,
            reason="dense basis exceeds budget")
        row = summary.as_row()
        assert row["status"] == "break down"
        assert row["ROM size"] is None
        assert row["MOR time (s)"] is None


class TestOneEvaluator:
    """Index and singularity checks of the evaluator every ROM shares."""

    @staticmethod
    def _rom(kind):
        from repro import bdsm_reduce, make_benchmark, partitioned_reduce
        from repro.mor.prima import prima_reduce
        system = make_benchmark("ckt1", scale="smoke")
        reducer = {"bdsm": lambda: bdsm_reduce(system, 2),
                   "prima": lambda: prima_reduce(system, 2),
                   "partitioned": lambda: partitioned_reduce(
                       system, 2, n_parts=2)}[kind]
        return reducer()[0]

    @pytest.mark.parametrize("kind", ["bdsm", "prima", "partitioned"])
    def test_out_of_range_indices_rejected(self, kind):
        from repro.exceptions import PartitionError
        rom = self._rom(kind)
        error = PartitionError if kind == "partitioned" else ReductionError
        p, m = rom.n_outputs, rom.n_ports
        for output, port in ((-1, 0), (0, -1), (p, 0), (0, m)):
            with pytest.raises(error):
                rom.transfer_entry(1j * 1e8, output, port)
        assert rom.transfer_entry(1j * 1e8, p - 1, m - 1) == pytest.approx(
            rom.transfer_function(1j * 1e8)[p - 1, m - 1], rel=1e-12)

    @pytest.mark.parametrize("kind", ["bdsm", "prima", "partitioned"])
    @pytest.mark.parametrize("s", [complex(np.nan), complex(np.inf),
                                   complex(0.0, np.nan)],
                             ids=["nan", "inf", "nanj"])
    def test_non_finite_point_rejected(self, kind, s):
        from repro.exceptions import PartitionError
        rom = self._rom(kind)
        error = PartitionError if kind == "partitioned" else ReductionError
        with pytest.raises(error, match="not finite"):
            rom.transfer_function(s)
        with pytest.raises(error, match="not finite"):
            rom.transfer_entry(s, 0, 0)

    def test_singular_pencil_raises_reduction_error(self):
        rom = ReducedSystem(C=np.zeros((2, 2)), G=np.zeros((2, 2)),
                            B=np.ones((2, 1)), L=np.ones((1, 2)))
        with pytest.raises(ReductionError):
            rom.transfer_entry(1j, 0, 0)
        with pytest.raises(ReductionError):
            rom.transfer_function(1j)
