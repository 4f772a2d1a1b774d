"""SPICE-subset netlist parser and writer.

The paper extracts its MNA models "from some industrial SPICE netlists"; this
module provides the equivalent front end for our synthetic benchmarks so the
full pipeline (netlist text -> netlist columns -> MNA descriptor -> MOR) is
exercised end to end.  The element lines are collected as columns and
added with one :meth:`Netlist.add <repro.circuit.netlist.Netlist.add>` call;
a bad value, name or node pair raises
:class:`~repro.exceptions.NetlistParseError` with the number of the first
bad line.  :func:`write_netlist` prints the columns back in insertion order.

Supported grammar (a practical subset of SPICE level-1 decks):

* first non-blank line is the title,
* ``R<name> n+ n- value`` — resistor,
* ``C<name> n+ n- value`` — capacitor,
* ``L<name> n+ n- value`` — inductor,
* ``I<name> n+ n- value`` — independent current source (input port),
* ``V<name> n+ n- value`` — independent voltage source,
* ``.PRINT V(node) [V(node) ...]`` — declares output nodes (probes may be
  separated by commas; other tokens such as ``TRAN`` are ignored),
* ``*`` comments, ``$``/``;`` trailing comments, ``+`` line continuations,
* engineering suffixes ``f p n u m k meg g t`` and unit tails (``1.2k``,
  ``10pF``, ``2.5MEG``),
* ``.END`` terminates the deck.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.circuit.netlist import GROUND, KINDS, Netlist
from repro.exceptions import CircuitError, NetlistParseError

__all__ = ["parse_netlist", "parse_netlist_file", "write_netlist",
           "parse_value"]

#: Engineering suffix multipliers recognised in element values.  ``meg`` must
#: be checked before ``m``.
_SUFFIXES: list[tuple[str, float]] = [
    ("meg", 1e6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
]

#: One ``V(node)`` probe token of a ``.PRINT`` card, matched in full; the
#: node may itself contain parentheses (``V(V(a))`` probes node ``V(a)``).
_PRINT_NODE_RE = re.compile(r"v\((.+)\)", re.IGNORECASE)
#: Blanks just inside a probe's parentheses (``V( a )``), dropped before the
#: card is split into probe tokens.
_PRINT_PAD_RE = re.compile(r"(?<=\()\s+|\s+(?=\))")
#: Separators between probe tokens: blanks, or a comma after a ``)``.
_PRINT_SEP_RE = re.compile(r"\s+|(?<=\)),")


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token with optional engineering suffix/unit tail.

    Examples
    --------
    >>> parse_value("1.5k")
    1500.0
    >>> parse_value("10pF")
    1e-11
    >>> parse_value("2meg")
    2000000.0
    """
    text = token.strip().lower()
    if not text:
        raise ValueError("empty value token")
    match = re.match(r"^([+-]?\d*\.?\d+(?:e[+-]?\d+)?)([a-z]*)$", text)
    if match is None:
        raise ValueError(f"cannot parse numeric value {token!r}")
    number = float(match.group(1))
    tail = match.group(2)
    if not tail:
        return number
    for suffix, multiplier in _SUFFIXES:
        if tail.startswith(suffix):
            return number * multiplier
    # A pure unit tail like "f" in "10f" is a femto suffix; anything else
    # (e.g. "ohm", "v", "a", "h") is a unit name with no scaling.
    return number


def _join_continuations(lines: list[str]) -> list[tuple[int, str]]:
    """Merge ``+`` continuation lines, keeping original line numbers."""
    merged: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("+"):
            if not merged:
                raise NetlistParseError(
                    "continuation line with nothing to continue",
                    line_number=lineno, line=raw)
            prev_no, prev_text = merged[-1]
            merged[-1] = (prev_no, prev_text + " " + stripped[1:].strip())
        else:
            merged.append((lineno, raw))
    return merged


def _strip_comment(line: str) -> str:
    """Remove trailing ``$`` or ``;`` comments."""
    for marker in ("$", ";"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line


def _add_rows(netlist: Netlist, rows: list[tuple]) -> None:
    """Add parsed element rows ``(line number, line, kind, name, node+,
    node-, value)`` with one :meth:`Netlist.add` call.

    If the call rejects them, the rows are re-added one by one to a scratch
    netlist, so the error names the first bad line.
    """
    if not rows:
        return
    _, _, *columns = zip(*rows)
    try:
        netlist.add(*columns)
    except CircuitError:
        scratch = Netlist()
        for lineno, raw, *row in rows:
            try:
                scratch.add(*row)
            except CircuitError as exc:
                raise NetlistParseError(str(exc), line_number=lineno,
                                        line=raw) from exc
        raise


def _print_nodes(card: str, lineno: int, raw: str, rows: list[tuple]):
    """``(node, line number, line)`` of each ``V(node)`` probe of a card."""
    for token in _PRINT_SEP_RE.split(_PRINT_PAD_RE.sub("", card))[1:]:
        if not token.upper().startswith("V("):
            continue
        match = _PRINT_NODE_RE.fullmatch(token)
        if match is None:
            raise _syntax_error(rows, f"malformed output probe {token!r}",
                                lineno, raw)
        yield match.group(1), lineno, raw


def _syntax_error(rows: list[tuple], message: str, lineno: int,
                  raw: str) -> NetlistParseError:
    """The error for a bad line, unless an earlier element line is bad."""
    _add_rows(Netlist(), rows)
    return NetlistParseError(message, line_number=lineno, line=raw)


def parse_netlist(text: str) -> Netlist:
    """Parse a SPICE-subset deck from a string into a :class:`Netlist`."""
    raw_lines = text.splitlines()
    merged = _join_continuations(raw_lines)

    netlist: Netlist | None = None
    rows: list[tuple] = []  # (line number, line, kind, name, n+, n-, value)
    outputs: list[tuple[str, int, str]] = []  # (node, line number, line)
    title_seen = False

    for lineno, raw in merged:
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("*"):
            continue
        if not title_seen:
            netlist = Netlist(title=line)
            title_seen = True
            continue

        upper = line.upper()
        if upper.startswith(".END"):
            break
        if upper.startswith(".PRINT") or upper.startswith(".PROBE"):
            outputs.extend(_print_nodes(line, lineno, raw, rows))
            continue
        if upper.startswith("."):
            # Other control cards (.TRAN, .AC, .OPTIONS, ...) are accepted
            # but ignored: analyses are configured through the Python API.
            continue

        tokens = line.split()
        if len(tokens) < 4:
            raise _syntax_error(rows, "element line needs at least 4 tokens "
                                "(name, node+, node-, value)", lineno, raw)
        name, node_pos, node_neg = tokens[0], tokens[1], tokens[2]
        prefix = name[0].upper()
        if prefix not in KINDS:
            raise _syntax_error(rows, f"unsupported element type {prefix!r}",
                                lineno, raw)
        # Independent sources may carry a "DC" keyword before the value.
        value_token = tokens[3]
        if value_token.upper() == "DC" and len(tokens) >= 5:
            value_token = tokens[4]
        try:
            value = parse_value(value_token)
        except ValueError as exc:
            raise _syntax_error(rows, str(exc), lineno, raw) from exc
        rows.append((lineno, raw, prefix, name, node_pos, node_neg, value))

    if netlist is None:
        raise NetlistParseError("netlist text contains no content")
    _add_rows(netlist, rows)
    known = {GROUND, *netlist.nodes()}
    for node, lineno, raw in outputs:
        if node not in known:
            raise NetlistParseError(f"output node {node!r} not in the "
                                    "netlist", line_number=lineno, line=raw)
    if outputs:
        netlist.set_output_nodes(node for node, _, _ in outputs)
    return netlist


def parse_netlist_file(path: str | Path) -> Netlist:
    """Parse a SPICE-subset deck from a file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise NetlistParseError(f"cannot read netlist file {path}: {exc}") \
            from exc
    return parse_netlist(text)


def write_netlist(netlist: Netlist, path: str | Path | None = None) -> str:
    """Render a :class:`Netlist` back to SPICE text (optionally to a file).

    The output round-trips through :func:`parse_netlist`: element order,
    values and the ``.PRINT`` output-node declaration are preserved.
    """
    lines = [netlist.title or "untitled"]
    every = netlist.elements()
    # Node index -1 is ground, the last entry of the table.
    terminals = np.array(netlist.nodes() + [GROUND], dtype=object)[
        every.nodes]
    lines += [f"{name} {pos} {neg} {value:.12g}"
              for name, pos, neg, value in zip(every.names.tolist(),
                                               terminals[:, 0].tolist(),
                                               terminals[:, 1].tolist(),
                                               every.values.tolist())]
    outputs = netlist.output_nodes
    if outputs:
        decls = " ".join(f"V({node})" for node in outputs)
        lines.append(f".PRINT {decls}")
    lines.append(".END")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
