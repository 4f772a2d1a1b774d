"""Unit tests for repro.circuit.parser (SPICE-subset parser/writer)."""

import pytest

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.parser import (
    parse_netlist,
    parse_netlist_file,
    parse_value,
    write_netlist,
)
from repro.exceptions import NetlistParseError

DECK = """simple power grid fragment
* mesh resistors
R1 n1 n2 1.5
R2 n2 0 2k
C1 n1 0 10pF    $ decap
L1 n2 n3 1n
Vdd n3 0 DC 1.0
I1 n1 0 1m
.PRINT V(n1) V(n2)
.END
"""


class TestParseValue:
    @pytest.mark.parametrize("token,expected", [
        ("1.5", 1.5),
        ("2k", 2000.0),
        ("10p", 1e-11),
        ("10pF", 1e-11),
        ("3u", 3e-6),
        ("2meg", 2e6),
        ("5MEG", 5e6),
        ("1.2n", 1.2e-9),
        ("4f", 4e-15),
        ("7m", 7e-3),
        ("1e-3", 1e-3),
        ("-2.5", -2.5),
        ("3.3v", 3.3),
    ])
    def test_values(self, token, expected):
        assert parse_value(token) == pytest.approx(expected)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_value("abc")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_value("  ")


class TestParseNetlist:
    def test_full_deck(self):
        net = parse_netlist(DECK)
        assert net.title == "simple power grid fragment"
        assert isinstance(net["R1"], Resistor)
        assert isinstance(net["C1"], Capacitor)
        assert isinstance(net["L1"], Inductor)
        assert isinstance(net["Vdd"], VoltageSource)
        assert isinstance(net["I1"], CurrentSource)
        assert net["R2"].value == pytest.approx(2000.0)
        assert net["C1"].value == pytest.approx(1e-11)
        assert net["Vdd"].value == pytest.approx(1.0)
        assert net.output_nodes == ["n1", "n2"]

    def test_comments_and_blank_lines_ignored(self):
        text = "title\n\n* full comment\nR1 a 0 1.0 ; trailing\nI1 a 0 1\n.END\n"
        net = parse_netlist(text)
        assert len(net) == 2

    def test_continuation_lines(self):
        text = "title\nR1 a\n+ 0 2.0\nI1 a 0 1\n"
        net = parse_netlist(text)
        assert net["R1"].value == 2.0
        assert net["R1"].node_neg == "0"

    def test_continuation_without_previous_line_rejected(self):
        with pytest.raises(NetlistParseError):
            parse_netlist("+ R1 a 0 1.0\n")

    def test_unknown_element_rejected(self):
        with pytest.raises(NetlistParseError, match="unsupported"):
            parse_netlist("title\nQ1 a b 1.0 1.0\n")

    def test_too_few_tokens_rejected(self):
        with pytest.raises(NetlistParseError, match="4 tokens"):
            parse_netlist("title\nR1 a 0\n")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(NetlistParseError) as err:
            parse_netlist("title\nR1 a 0 oops\n")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line", ["C1 n1 0 1e400", "R1 n1 0 1e303meg"])
    def test_non_finite_value_reports_line_number(self, line):
        with pytest.raises(NetlistParseError, match="non-finite") as err:
            parse_netlist(f"title\nI1 n1 0 1m\n{line}\n")
        assert err.value.line_number == 3

    def test_self_loop_element_reported_with_line(self):
        with pytest.raises(NetlistParseError):
            parse_netlist("title\nR1 a a 1.0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(NetlistParseError):
            parse_netlist("")

    def test_content_after_end_ignored(self):
        text = "title\nR1 a 0 1\nI1 a 0 1\n.END\nR2 b 0 garbage\n"
        net = parse_netlist(text)
        assert "R2" not in net

    def test_unknown_control_cards_ignored(self):
        text = "title\n.TRAN 1n 10n\n.OPTIONS reltol=1e-4\nR1 a 0 1\nI1 a 0 1\n"
        net = parse_netlist(text)
        assert len(net) == 2


class TestRoundTrip:
    def test_write_then_parse(self):
        original = parse_netlist(DECK)
        text = write_netlist(original)
        reparsed = parse_netlist(text)
        assert [e.name for e in original] == [e.name for e in reparsed]
        for a, b in zip(original, reparsed):
            assert a.value == pytest.approx(b.value)
            assert a.nodes == b.nodes
        assert original.output_nodes == reparsed.output_nodes

    def test_file_roundtrip(self, tmp_path):
        original = parse_netlist(DECK)
        path = tmp_path / "deck.sp"
        write_netlist(original, path)
        loaded = parse_netlist_file(path)
        assert loaded.summary() == original.summary()

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetlistParseError):
            parse_netlist_file(tmp_path / "nope.sp")
