"""Unit tests for repro.circuit.mna (stamping and DescriptorSystem)."""

import numpy as np
import pytest

from repro.circuit import Netlist, assemble_mna
from repro.exceptions import StampingError
from repro.linalg.sparse_utils import is_symmetric


class TestStampingBasics:
    def test_dimensions(self, rc_ladder_system):
        sys = rc_ladder_system
        assert sys.size == 3                       # three nodes, no branches
        assert sys.n_ports == 1
        assert sys.n_outputs == 2
        assert sys.state_names == ["v(n1)", "v(n2)", "v(n3)"]

    def test_rc_grid_matrices_symmetric(self, rc_grid_system):
        # Pure RC grids stamp symmetric C and G (paper convention keeps it).
        assert is_symmetric(rc_grid_system.C)
        assert is_symmetric(rc_grid_system.G)

    def test_g_negative_semidefinite_in_paper_convention(self, rc_grid_system):
        # G = -G_mna with G_mna SPD for a grounded resistive grid.
        G = rc_grid_system.G.toarray()
        eigs = np.linalg.eigvalsh((G + G.T) / 2)
        assert np.all(eigs <= 1e-9)

    def test_inductors_add_branch_states(self, rlc_grid_system):
        names = rlc_grid_system.state_names
        assert any(name.startswith("i(Lpkg") for name in names)

    def test_output_matrix_selects_nodes(self, rc_ladder_system):
        L = rc_ladder_system.L.toarray()
        assert L.shape == (2, 3)
        assert np.allclose(L.sum(axis=1), 1.0)
        assert set(rc_ladder_system.output_names) == {"v(n1)", "v(n3)"}


class TestStampingValues:
    def test_resistive_divider_dc(self):
        # 1A into node a, a--1ohm--b, b--1ohm--gnd:  v_a = 2, v_b = 1 (sign:
        # the source draws current out of the node, so voltages are negative).
        net = Netlist(title="divider")
        net.add("R", "R1", "a", "b", 1.0)
        net.add("R", "R2", "b", "0", 1.0)
        net.add("C", "C1", "a", "0", 1e-12)
        net.add("I", "I1", "a", "0", 1.0)
        net.set_output_nodes(["a", "b"])
        sys = assemble_mna(net)
        x = sys.dc_operating_point(np.array([1.0]))
        assert np.allclose(x, [-2.0, -1.0])

    def test_voltage_source_pins_node(self):
        net = Netlist(title="vdd")
        net.add("V", "V1", "a", "0", 1.8)
        net.add("R", "R1", "a", "b", 1.0)
        net.add("R", "R2", "b", "0", 1.0)
        net.add("C", "C1", "b", "0", 1e-12)
        net.add("I", "I1", "b", "0", 0.0)
        net.set_output_nodes(["a", "b"])
        sys = assemble_mna(net)
        x = sys.dc_operating_point()
        # node a is pinned at 1.8 V, node b sits at the divider midpoint
        assert x[0] == pytest.approx(1.8)
        assert x[1] == pytest.approx(0.9)

    def test_transfer_function_of_rc_ladder(self, rc_ladder_system):
        # At DC the input impedance seen at n1 equals R0 (10 ohm): the series
        # chain into n2/n3 carries no DC current because nothing loads it.
        H0 = rc_ladder_system.transfer_function(0.0)
        assert H0.shape == (2, 1)
        assert H0[0, 0] == pytest.approx(-10.0)
        assert H0[1, 0] == pytest.approx(-10.0)

    def test_transfer_entry_matches_full(self, rc_grid_system):
        s = 1j * 1e8
        H = rc_grid_system.transfer_function(s)
        entry = rc_grid_system.transfer_entry(s, 2, 3)
        assert entry == pytest.approx(H[2, 3])

    @pytest.mark.parametrize("output, port", [(-1, 0), (0, -1), (0, 999),
                                              (999, 0)])
    def test_transfer_entry_rejects_bad_index(self, rc_grid_system, output,
                                              port):
        with pytest.raises(StampingError, match="out of range"):
            rc_grid_system.transfer_entry(1j * 1e8, output, port)


class TestDescriptorSystemInterface:
    def test_nnz_and_structure_report(self, rc_grid_system):
        report = rc_grid_system.structure_report()
        assert set(report) == {"C", "G", "B", "L"}
        assert rc_grid_system.nnz == sum(info.nnz for info in report.values())

    def test_with_outputs(self, rc_grid_system):
        import scipy.sparse as sp
        n = rc_grid_system.size
        new_L = sp.csr_matrix(np.ones((1, n)))
        other = rc_grid_system.with_outputs(new_L, ["sum"])
        assert other.n_outputs == 1
        assert other.output_names == ["sum"]
        assert other.n_ports == rc_grid_system.n_ports

    def test_dc_operating_point_wrong_length(self, rc_grid_system):
        with pytest.raises(StampingError):
            rc_grid_system.dc_operating_point(np.ones(3))

    def test_inconsistent_matrices_rejected(self):
        import scipy.sparse as sp
        from repro.circuit.mna import DescriptorSystem
        eye = sp.eye(3, format="csr")
        with pytest.raises(StampingError):
            DescriptorSystem(C=eye, G=sp.eye(4, format="csr"),
                             B=sp.csr_matrix((3, 1)), L=sp.csr_matrix((1, 3)))
        with pytest.raises(StampingError):
            DescriptorSystem(C=eye, G=eye, B=sp.csr_matrix((4, 1)),
                             L=sp.csr_matrix((1, 3)))
        with pytest.raises(StampingError):
            DescriptorSystem(C=eye, G=eye, B=sp.csr_matrix((3, 1)),
                             L=sp.csr_matrix((1, 4)))

    def test_netlist_without_sources_rejected(self):
        net = Netlist(title="no-input")
        net.add("R", "R1", "a", "0", 1.0)
        net.add("C", "C1", "a", "0", 1e-12)
        with pytest.raises(Exception):
            assemble_mna(net)

    def test_transfer_paths_avoid_matrix_producing_todense(
            self, rc_grid_system, monkeypatch):
        """Hot paths use ``.toarray()`` (ndarray), never ``.todense()``
        (``np.matrix``); regression for the deprecated-API sweep."""
        import scipy.sparse as sp

        def banned(self, *args, **kwargs):
            raise AssertionError(".todense() called in a hot path")

        monkeypatch.setattr(sp.spmatrix, "todense", banned)
        H = rc_grid_system.transfer_function(1j * 1e7)
        assert type(H) is np.ndarray
        entry = rc_grid_system.transfer_entry(1j * 1e7, 0, 1)
        assert isinstance(entry, complex)
        assert entry == pytest.approx(H[0, 1])
