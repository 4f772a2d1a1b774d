"""Unit tests for repro.mor.prima."""

import numpy as np
import pytest

from repro.exceptions import ReductionError, ResourceBudgetExceeded
from repro.linalg.sparse_utils import is_symmetric
from repro.mor import ResourceBudget, prima_reduce
from repro.mor.prima import congruence_project
from repro.validation import count_matched_moments, max_relative_error


class TestPrimaReduce:
    def test_rom_size_is_m_times_l(self, rc_grid_system):
        l = 3
        rom, _, _ = prima_reduce(rc_grid_system, l)
        assert rom.size == rc_grid_system.n_ports * l
        assert rom.method == "PRIMA"
        assert rom.reusable

    def test_moment_matching(self, rc_grid_system):
        l = 4
        rom, _, _ = prima_reduce(rc_grid_system, l)
        assert count_matched_moments(rc_grid_system, rom, l) >= l

    def test_accuracy_over_band(self, rc_grid_system):
        rom, _, _ = prima_reduce(rc_grid_system, 4)
        omegas = np.logspace(5, 9, 6)
        assert max_relative_error(rc_grid_system, rom, omegas) < 1e-6

    def test_congruence_preserves_symmetry(self, rc_grid_system):
        rom, _, _ = prima_reduce(rc_grid_system, 3)
        assert is_symmetric(rom.C, tol=1e-8)
        assert is_symmetric(rom.G, tol=1e-8)

    def test_rom_is_dense(self, rc_grid_system):
        rom, _, _ = prima_reduce(rc_grid_system, 3)
        assert rom.density()["G"] > 0.9

    def test_ortho_stats_scale_quadratically(self, rc_grid_system):
        _, stats, _ = prima_reduce(rc_grid_system, 3)
        m = rc_grid_system.n_ports
        q = m * 3
        # two MGS sweeps -> roughly q*(q-1) inner products
        assert stats.inner_products >= q * (q - 1) // 2

    def test_budget_guard_triggers(self, rc_grid_system):
        budget = ResourceBudget(max_dense_bytes=1024, label="tiny")
        with pytest.raises(ResourceBudgetExceeded):
            prima_reduce(rc_grid_system, 4, budget=budget)

    def test_budget_counts_both_parts_of_a_complex_shift(self,
                                                         rc_grid_system):
        # A complex s0 yields up to 2ml real basis columns: a budget
        # between the ml- and 2ml-column basis admits only a real s0.
        n, q = rc_grid_system.size, rc_grid_system.n_ports * 3
        budget = ResourceBudget(max_dense_bytes=n * q * 3 // 2 * 8)
        prima_reduce(rc_grid_system, 3, s0=1e9, budget=budget)
        with pytest.raises(ResourceBudgetExceeded):
            prima_reduce(rc_grid_system, 3, s0=1j * 1e9, budget=budget)

    def test_keep_projection(self, rc_grid_system):
        rom, _, _ = prima_reduce(rc_grid_system, 2, keep_projection=True)
        assert rom.projection is not None
        assert rom.projection.shape == (rc_grid_system.size, rom.size)

    def test_invalid_moment_count(self, rc_grid_system):
        with pytest.raises(ReductionError):
            prima_reduce(rc_grid_system, 0)

    def test_nonzero_expansion_point(self, rc_grid_system):
        s0 = 1e9
        rom, _, _ = prima_reduce(rc_grid_system, 3, s0=s0)
        assert count_matched_moments(rc_grid_system, rom, 3, s0=s0) >= 3


class TestCongruenceProject:
    def test_rejects_mismatched_basis(self, rc_grid_system):
        with pytest.raises(ReductionError):
            congruence_project(rc_grid_system, np.ones((5, 2)),
                               method="X", s0=0.0, n_moments=1)

    def test_rejects_non_2d_basis(self, rc_grid_system):
        with pytest.raises(ReductionError):
            congruence_project(rc_grid_system,
                               np.ones(rc_grid_system.size),
                               method="X", s0=0.0, n_moments=1)

    def test_projects_const_input(self, rlc_grid_system):
        # RLC grid with resistive pads has no const term; attach one manually
        # to exercise the code path.
        import copy
        system = copy.copy(rlc_grid_system)
        system.const_input = np.ones(system.size)
        V = np.eye(system.size)[:, :4]
        rom = congruence_project(system, V, method="X", s0=0.0, n_moments=1)
        assert rom.const_input is not None
        assert rom.const_input.shape == (4,)
