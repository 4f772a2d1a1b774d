"""Unit tests for repro.circuit.benchmarks."""

import pytest

from repro.circuit import BENCHMARKS, benchmark_names, make_benchmark
from repro.circuit.benchmarks import make_benchmark_netlist
from repro.circuit.parser import write_netlist
from repro.exceptions import CircuitError


class TestRegistry:
    def test_all_five_benchmarks_registered(self):
        assert benchmark_names() == ["ckt1", "ckt2", "ckt3", "ckt4", "ckt5"]

    def test_paper_port_counts_recorded(self):
        assert BENCHMARKS["ckt1"].paper_ports == 51
        assert BENCHMARKS["ckt5"].paper_ports == 1429
        assert BENCHMARKS["ckt5"].paper_nodes == 1_700_000

    def test_every_benchmark_has_all_scales(self):
        for spec in BENCHMARKS.values():
            assert set(spec.grids) == {"smoke", "laptop", "paper"}

    def test_grid_spec_unknown_scale(self):
        with pytest.raises(CircuitError):
            BENCHMARKS["ckt1"].grid_spec("huge")

    def test_port_counts_increase_across_benchmarks(self):
        laptop_ports = [BENCHMARKS[name].grids["laptop"][2]
                        for name in benchmark_names()]
        assert laptop_ports == sorted(laptop_ports)


class TestMakeBenchmark:
    def test_unknown_name_rejected(self):
        with pytest.raises(CircuitError):
            make_benchmark("ckt9")

    def test_unknown_scale_rejected(self):
        with pytest.raises(CircuitError):
            make_benchmark("ckt1", scale="gigantic")

    def test_smoke_benchmark_properties(self, smoke_benchmark):
        rows, cols, ports, _pads = BENCHMARKS["ckt1"].grids["smoke"]
        assert smoke_benchmark.n_ports == ports
        # mesh nodes plus package/pad nodes plus inductor branch currents
        assert smoke_benchmark.size > rows * cols
        assert smoke_benchmark.name == "ckt1-smoke"

    def test_netlist_validates(self):
        net = make_benchmark_netlist("ckt2", scale="smoke")
        net.validate()

    def test_seed_override_changes_values(self):
        a = make_benchmark_netlist("ckt1", scale="smoke", seed=1)
        b = make_benchmark_netlist("ckt1", scale="smoke", seed=2)
        assert write_netlist(a) != write_netlist(b)

    def test_deterministic_by_default(self):
        a = make_benchmark_netlist("ckt1", scale="smoke")
        b = make_benchmark_netlist("ckt1", scale="smoke")
        assert write_netlist(a) == write_netlist(b)
