"""Unit tests for repro.analysis.transient."""

import numpy as np
import pytest

from repro.analysis import SourceBank, TransientAnalysis
from repro.analysis.sources import ConstantSource, StepSource
from repro.circuit import assemble_mna
from repro.exceptions import SimulationError


class TestTransientSetup:
    def test_time_grid(self):
        ta = TransientAnalysis(t_stop=1.0, dt=0.25)
        assert np.allclose(ta.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("kwargs", [
        {"t_stop": 0.0, "dt": 0.1},
        {"t_stop": 1.0, "dt": 0.0},
        {"t_stop": 1.0, "dt": 2.0},
        {"t_stop": 1.0, "dt": 0.1, "method": "forward_euler"},
    ])
    def test_invalid_setup_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            TransientAnalysis(**kwargs)

    @pytest.mark.parametrize("t_stop, dt", [
        (1.0, float("nan")),
        (float("nan"), 0.1),
        (float("inf"), 0.1),
        (float("inf"), float("inf")),
    ])
    def test_non_finite_times_rejected(self, t_stop, dt):
        with pytest.raises(SimulationError, match="finite"):
            TransientAnalysis(t_stop=t_stop, dt=dt)


class TestAnalyticRC:
    @pytest.fixture()
    def rc_system(self, single_rc_netlist):
        return assemble_mna(single_rc_netlist)

    @pytest.mark.parametrize("method", ["backward_euler", "trapezoidal"])
    def test_step_response_matches_analytic(self, rc_system, method):
        # v(t) = -I*R*(1 - exp(-t/RC)) with R=100, C=1e-6, I=1e-3
        R, Cval, I = 100.0, 1e-6, 1e-3
        tau = R * Cval
        ta = TransientAnalysis(t_stop=5 * tau, dt=tau / 200, method=method)
        bank = SourceBank.uniform(1, ConstantSource(I))
        result = ta.run(rc_system, bank)
        expected = -I * R * (1.0 - np.exp(-result.times / tau))
        tol = 5e-3 * I * R
        assert np.max(np.abs(result.output(0) - expected)) < tol

    def test_trapezoidal_more_accurate_than_backward_euler(self, rc_system):
        R, Cval, I = 100.0, 1e-6, 1e-3
        tau = R * Cval
        bank = SourceBank.uniform(1, ConstantSource(I))
        exact = None
        errors = {}
        for method in ("backward_euler", "trapezoidal"):
            ta = TransientAnalysis(t_stop=3 * tau, dt=tau / 20, method=method)
            result = ta.run(rc_system, bank)
            exact = -I * R * (1.0 - np.exp(-result.times / tau))
            errors[method] = np.max(np.abs(result.output(0) - exact))
        assert errors["trapezoidal"] < errors["backward_euler"]

    def test_zero_input_stays_at_zero(self, rc_system):
        ta = TransientAnalysis(t_stop=1e-4, dt=1e-6)
        result = ta.run(rc_system, SourceBank(1))
        assert np.allclose(result.outputs, 0.0)

    def test_initial_condition_decays(self, rc_system):
        R, Cval = 100.0, 1e-6
        tau = R * Cval
        ta = TransientAnalysis(t_stop=3 * tau, dt=tau / 100)
        result = ta.run(rc_system, SourceBank(1), x0=np.array([1.0]))
        expected = np.exp(-result.times / tau)
        assert np.max(np.abs(result.output(0) - expected)) < 2e-2


class TestTransientInterface:
    def test_store_states(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10, store_states=True)
        result = ta.run(rc_grid_system,
                        SourceBank(rc_grid_system.n_ports))
        assert result.states is not None
        assert result.states.shape == (rc_grid_system.size, result.n_steps)

    def test_port_count_mismatch(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        with pytest.raises(SimulationError):
            ta.run(rc_grid_system, SourceBank(rc_grid_system.n_ports + 1))

    def test_wrong_initial_state_length(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        with pytest.raises(SimulationError):
            ta.run(rc_grid_system, SourceBank(rc_grid_system.n_ports),
                   x0=np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_initial_state_rejected(self, rc_grid_system, bad):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        x0 = np.zeros(rc_grid_system.size)
        x0[3] = bad
        with pytest.raises(SimulationError, match="non-finite"):
            ta.run(rc_grid_system, SourceBank(rc_grid_system.n_ports),
                   x0=x0)

    def test_non_finite_source_rejected(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        bank = SourceBank(rc_grid_system.n_ports)
        bank.assign(1, StepSource(np.nan, t0=5e-10))
        with pytest.raises(SimulationError, match="not finite"):
            ta.run_batch(rc_grid_system, [SourceBank(bank.n_ports), bank])

    def test_error_metrics_between_results(self, rc_grid_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        bank = SourceBank.uniform(rc_grid_system.n_ports,
                                  StepSource(1e-3, t0=2e-10))
        a = ta.run(rc_grid_system, bank)
        b = ta.run(rc_grid_system, bank)
        assert a.max_abs_error_to(b) == 0.0
        assert a.rms_error_to(b) == 0.0

    def test_error_metrics_shape_check(self, rc_grid_system, rc_ladder_system):
        ta = TransientAnalysis(t_stop=1e-9, dt=1e-10)
        a = ta.run(rc_grid_system, SourceBank(rc_grid_system.n_ports))
        b = ta.run(rc_ladder_system, SourceBank(1))
        with pytest.raises(SimulationError):
            a.max_abs_error_to(b)
