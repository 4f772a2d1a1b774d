"""Unit tests for repro.io (matrix persistence and table formatting)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.io import (
    format_table,
    load_descriptor_npz,
    save_descriptor_npz,
    save_matrix_market,
    write_table,
)


class TestDescriptorNpz:
    def test_roundtrip(self, rc_grid_system, tmp_path):
        path = tmp_path / "grid.npz"
        save_descriptor_npz(rc_grid_system, path)
        loaded = load_descriptor_npz(path)
        assert loaded.size == rc_grid_system.size
        assert loaded.n_ports == rc_grid_system.n_ports
        assert loaded.port_names == rc_grid_system.port_names
        assert loaded.name == rc_grid_system.name
        s = 1j * 1e8
        assert np.allclose(loaded.transfer_function(s),
                           rc_grid_system.transfer_function(s))

    def test_const_input_preserved(self, tmp_path):
        from repro.circuit import Netlist, assemble_mna
        net = Netlist(title="vdd-grid")
        net.add("V", "V1", "a", "0", 1.0)
        net.add("R", "R1", "a", "b", 1.0)
        net.add("R", "R2", "b", "0", 1.0)
        net.add("C", "C1", "b", "0", 1e-12)
        net.add("I", "I1", "b", "0", 1e-3)
        system = assemble_mna(net)
        assert system.const_input is not None
        path = tmp_path / "vdd.npz"
        save_descriptor_npz(system, path)
        loaded = load_descriptor_npz(path)
        assert np.allclose(loaded.const_input, system.const_input)

    def test_complex_valued_system_roundtrip(self, tmp_path):
        """Complex descriptor matrices (multipoint expansions at complex
        s0 produce them) must round-trip with dtype and values intact."""
        import scipy.sparse as sp
        from repro.circuit.mna import DescriptorSystem
        rng = np.random.default_rng(3)
        n = 5
        C = sp.csr_matrix(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))
        G = -(sp.eye(n) + 0.1j * sp.eye(n)).tocsr()
        B = sp.csr_matrix((np.eye(n)[:, :2] * (1 + 2j)))
        L = sp.csr_matrix(np.eye(n)[:1].astype(complex))
        system = DescriptorSystem(
            C=C, G=G, B=B, L=L,
            state_names=[f"n{i}" for i in range(n)],
            port_names=["p0", "p1"], output_names=["o0"], name="complex")
        path = tmp_path / "complex.npz"
        loaded = load_descriptor_npz(save_descriptor_npz(system, path))
        for name in ("C", "G", "B", "L"):
            got = getattr(loaded, name)
            want = getattr(system, name)
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert (got != want).nnz == 0, name
        s = 1j * 1e8
        assert np.array_equal(loaded.transfer_function(s),
                              system.transfer_function(s))

    def test_zero_port_system_roundtrip(self, tmp_path):
        """A system with no input ports (autonomous grid slice) must keep
        its (n, 0) input shape — and a complex empty B its dtype."""
        import scipy.sparse as sp
        from repro.circuit.mna import DescriptorSystem
        n = 4
        system = DescriptorSystem(
            C=sp.eye(n).tocsr(), G=(-sp.eye(n)).tocsr(),
            B=sp.csr_matrix((n, 0), dtype=complex),
            L=sp.csr_matrix(np.eye(n)[:2]),
            state_names=[f"n{i}" for i in range(n)],
            port_names=[], output_names=["a", "b"], name="zero-port")
        loaded = load_descriptor_npz(
            save_descriptor_npz(system, tmp_path / "zp.npz"))
        assert loaded.n_ports == 0
        assert loaded.B.shape == (n, 0)
        assert loaded.B.dtype == system.B.dtype
        assert loaded.port_names == []
        assert loaded.state_names == system.state_names

    def test_zero_output_and_empty_names_roundtrip(self, tmp_path):
        import scipy.sparse as sp
        from repro.circuit.mna import DescriptorSystem
        n = 3
        system = DescriptorSystem(
            C=sp.eye(n).tocsr(), G=(-sp.eye(n)).tocsr(),
            B=sp.csr_matrix((n, 0)), L=sp.csr_matrix((0, n)),
            state_names=[], port_names=[], output_names=[], name="empty")
        loaded = load_descriptor_npz(
            save_descriptor_npz(system, tmp_path / "empty.npz"))
        assert loaded.L.shape == (0, n)
        assert loaded.B.shape == (n, 0)
        assert loaded.output_names == []
        assert loaded.state_names == []

    def test_integer_dtype_preserved(self, tmp_path):
        import scipy.sparse as sp
        from repro.circuit.mna import DescriptorSystem
        n = 3
        system = DescriptorSystem(
            C=sp.eye(n, dtype=np.int64).tocsr(),
            G=(-sp.eye(n, dtype=np.int64)).tocsr(),
            B=sp.csr_matrix(np.eye(n, dtype=np.int32)[:, :1]),
            L=sp.csr_matrix(np.eye(n)[:1]),
            state_names=["a", "b", "c"], port_names=["p"],
            output_names=["o"])
        loaded = load_descriptor_npz(
            save_descriptor_npz(system, tmp_path / "int.npz"))
        assert loaded.C.dtype == np.int64
        assert loaded.B.dtype == np.int32

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_descriptor_npz(tmp_path / "missing.npz")

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.ones(3))
        with pytest.raises(ValidationError):
            load_descriptor_npz(path)


class TestMatrixMarket:
    def test_export_creates_readable_file(self, rc_grid_system, tmp_path):
        import scipy.io
        path = save_matrix_market(rc_grid_system.G, tmp_path / "G.mtx",
                                  comment="conductance")
        matrix = scipy.io.mmread(str(path))
        assert np.allclose(matrix.toarray(), rc_grid_system.G.toarray())

    def test_suffix_added_when_missing(self, rc_grid_system, tmp_path):
        path = save_matrix_market(rc_grid_system.C, tmp_path / "C")
        assert path.exists()

    def test_complex_matrix_export(self, tmp_path):
        import scipy.io
        import scipy.sparse as sp
        M = sp.csr_matrix(np.array([[1 + 2j, 0.0], [0.0, 3 - 1j]]))
        path = save_matrix_market(M, tmp_path / "M.mtx")
        back = scipy.io.mmread(str(path))
        assert np.iscomplexobj(back.toarray())
        assert np.allclose(back.toarray(), M.toarray())


class TestTables:
    ROWS = [
        {"method": "BDSM", "ROM size": 306, "MOR time (s)": 8.18},
        {"method": "PRIMA", "ROM size": 306, "MOR time (s)": 29.37},
        {"method": "EKS", "ROM size": 6, "MOR time (s)": None},
    ]

    def test_format_contains_all_cells(self):
        text = format_table(self.ROWS, title="Table II (ckt1)")
        assert "Table II (ckt1)" in text
        assert "BDSM" in text and "PRIMA" in text and "EKS" in text
        assert "306" in text
        assert "-" in text             # None rendered as dash

    def test_column_order_respected(self):
        text = format_table(self.ROWS, columns=["ROM size", "method"])
        header = text.splitlines()[0]
        assert header.index("ROM size") < header.index("method")

    def test_missing_keys_render_as_dash(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "-" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            format_table([])

    def test_write_table(self, tmp_path):
        path = tmp_path / "report.txt"
        write_table(self.ROWS, path, title="first")
        write_table(self.ROWS, path, title="second", append=True)
        content = path.read_text()
        assert "first" in content and "second" in content

    def test_float_rendering(self):
        text = format_table([{"x": 0.000123456, "y": 123456.7, "z": 0.0}])
        assert "0.000123" in text
        assert "1.23e+05" in text
        assert " 0" in text or "0 " in text
