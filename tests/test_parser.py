"""Unit tests for repro.circuit.parser (SPICE-subset parser/writer)."""

import numpy as np
import pytest

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


def _element(net, name):
    """``(kind, node_pos, node_neg, value)`` of one named element."""
    nodes = net.nodes() + ["0"]
    for kind in "RCLIV":
        found = net.elements(kind)
        for row, element in enumerate(found.names.tolist()):
            if element == name:
                pos, neg = found.nodes[row].tolist()
                return kind, nodes[pos], nodes[neg], found.values[row]
    raise KeyError(name)


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
        assert [_element(net, name)[0]
                for name in ("R1", "C1", "L1", "Vdd", "I1")] == list("RCLVI")
        assert _element(net, "R2")[3] == pytest.approx(2000.0)
        assert _element(net, "C1")[3] == pytest.approx(1e-11)
        assert _element(net, "Vdd")[3] == pytest.approx(1.0)
        assert net.output_nodes == ["n1", "n2"]

    def test_comments_and_blank_lines_ignored(self):
        text = "title\n\n* full comment\nR1 a 0 1.0 ; trailing\nI1 a 0 1\n.END\n"
        net = parse_netlist(text)
        assert len(net) == 2

    def test_continuation_lines(self):
        text = "title\nR1 a\n+ 0 2.0\nI1 a 0 1\n"
        net = parse_netlist(text)
        assert _element(net, "R1") == ("R", "a", "0", 2.0)

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
        with pytest.raises(NetlistParseError, match="to itself") as err:
            parse_netlist("title\nR1 a a 1.0\n")
        assert err.value.line_number == 2

    def test_duplicate_name_reported_with_line(self):
        with pytest.raises(NetlistParseError, match="duplicate") as err:
            parse_netlist("title\nR1 a 0 1\nI1 a 0 1\nR1 a 0 2\n")
        assert err.value.line_number == 4

    def test_unknown_output_node_reported_with_line(self):
        with pytest.raises(NetlistParseError, match="'zz'") as err:
            parse_netlist("title\nR1 a 0 1\nI1 a 0 1\n.PRINT V(a) V(zz)\n")
        assert err.value.line_number == 4

    def test_print_node_with_parentheses(self):
        net = parse_netlist("title\nR1 V(a) 0 1\nI1 V(a) 0 1\n"
                            ".PRINT V(V(a)) v(V(a))\n")
        assert net.output_nodes == ["V(a)", "V(a)"]
        assert parse_netlist(write_netlist(net)).output_nodes == \
            net.output_nodes

    @pytest.mark.parametrize("card", [
        ".PRINT V(a) V(b)", ".PRINT V(a), V(b)", ".PRINT V(a),V(b)",
        ".PRINT TRAN V( a ) v(b)",
    ])
    def test_print_probe_separators(self, card):
        net = parse_netlist(f"title\nR1 a b 1\nI1 b 0 1\n{card}\n")
        assert net.output_nodes == ["a", "b"]

    @pytest.mark.parametrize("probe", ["V(a", "V()", "V(a)V(b"])
    def test_malformed_print_probe_reported_with_line(self, probe):
        with pytest.raises(NetlistParseError, match="malformed") as err:
            parse_netlist(f"title\nR1 a 0 1\nI1 a 0 1\n.PRINT V(a) {probe}\n")
        assert err.value.line_number == 4

    @pytest.mark.parametrize("later", ["R2 b 0 abc", "R2 b 0", "Q1 b 0 1",
                                       ".PRINT V(", "R2 b 0 -1"])
    def test_first_bad_line_reported(self, later):
        # Element lines are added in one batch at the end, but an earlier
        # bad element line still wins over a later error of any kind.
        with pytest.raises(NetlistParseError, match="to itself") as err:
            parse_netlist(f"title\nR0 b 0 1\nR1 a a 1\n{later}\n")
        assert err.value.line_number == 3

    def test_library_bug_is_not_relabelled(self, monkeypatch):
        # Only CircuitError becomes a parse error; anything else is a bug
        # and propagates as itself.
        from repro.circuit.netlist import Netlist

        def broken(self, *args):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(Netlist, "add", broken)
        with pytest.raises(ZeroDivisionError):
            parse_netlist("title\nR1 a 0 1\n")

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
        a, b = original.elements(), reparsed.elements()
        assert a.names.tolist() == b.names.tolist()
        assert a.values.tolist() == b.values.tolist()
        assert np.array_equal(a.nodes, b.nodes)
        assert original.nodes() == reparsed.nodes()
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
