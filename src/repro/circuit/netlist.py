"""Columnar netlist: element arrays over one node table.

A :class:`Netlist` holds every element of a linear RLC network as columns:
a one-letter kind code (``R``, ``C``, ``L``, ``I``, ``V``), a name, a
node-index pair into one node table and a float value, all in insertion
order.  The node table lists the non-ground nodes in first-appearance order
(that order becomes the MNA state order); the ground node ``"0"`` has index
``-1``.  :meth:`Netlist.elements` returns one kind's (or every) element as
read-only arrays, which is what :func:`~repro.circuit.mna.assemble_mna`
stamps and :func:`~repro.circuit.parser.write_netlist` prints.

Besides the elements, a netlist designates which nodes are *observed
outputs* (rows of the MNA output matrix ``L``).  Input ports are implied by
the current sources: each current source is one column of ``B``, which is
exactly how the power-grid models of the paper are driven ("time-varying
current sources from transistor-level circuit blocks").
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.exceptions import CircuitError

__all__ = ["Elements", "GROUND", "KINDS", "Netlist"]

#: Canonical name of the reference (ground) node; its node index is -1.
GROUND = "0"

#: Element kinds and their :meth:`Netlist.summary` keys: resistors,
#: capacitors and inductors (values in ohm, farad, henry), independent
#: current sources (the input ports; nominal DC magnitude in ampere, current
#: flowing from the first node through the source into the second) and
#: independent voltage sources (VDD pads; DC value in volt).  Inductors and
#: voltage sources add a branch-current unknown to the MNA state.
KINDS = {"R": "resistors", "C": "capacitors", "L": "inductors",
         "I": "current_sources", "V": "voltage_sources"}

#: Kinds whose values are bounded below: ``kind -> (label, quantity,
#: zero allowed)`` for the error message and the bound.
_BOUNDS = {
    "R": ("resistor", "positive resistance", False),
    "C": ("capacitor", "positive capacitance", False),
    "L": ("inductor", "positive inductance", False),
    "I": ("current source", "a non-negative nominal magnitude", True),
}


class Elements(NamedTuple):
    """Elements in insertion order, as read-only columns."""

    #: Element names (``str`` objects).
    names: np.ndarray
    #: ``(k, 2)`` node-table indices of the (positive, negative) terminals;
    #: ground is ``-1``.
    nodes: np.ndarray
    #: Element values in SI units.
    values: np.ndarray


def _unknown_kind(kind) -> CircuitError:
    return CircuitError(f"unknown element kind {kind!r}; expected one of "
                        f"{', '.join(KINDS)}")


def _column(entries, k: int, what: str) -> list:
    """``entries`` as one entry per element; a single string is shared."""
    column = [entries] * k if isinstance(entries, str) else list(entries)
    if len(column) != k:
        raise CircuitError(f"{k} element name(s) but {len(column)} {what}")
    return column


def _fail_first(bad: np.ndarray, message) -> None:
    """Raise ``CircuitError(message(i))`` at the first ``True`` of ``bad``."""
    if bad.any():
        raise CircuitError(message(int(np.argmax(bad))))


def _finite_floats(names: list[str], values) -> np.ndarray:
    """``values`` as one float per element (a single value is shared); the
    first non-numeric or non-finite value raises :class:`CircuitError`."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # a ragged sequence
        raise CircuitError(f"{len(names)} element name(s) but ragged "
                           "values") from exc
    if raw.ndim == 0:
        raw = np.broadcast_to(raw, (len(names),))
    if raw.shape != (len(names),):
        raise CircuitError(f"{len(names)} element name(s) but values of "
                           f"shape {raw.shape}")
    if raw.dtype.kind in "iuf" and np.isfinite(raw).all():
        return raw.astype(float)
    for name, value in zip(names, raw.tolist()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CircuitError(
                f"element {name!r} has non-numeric value {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise CircuitError(
                f"element {name!r} has non-finite value {value!r}")
    return raw.astype(float)


class Netlist:
    """Elements of one linear network, stored as columns.

    Parameters
    ----------
    title:
        Human-readable description, kept in the SPICE deck's first line.

    The observed outputs ``y`` are the nodes given to
    :meth:`set_output_nodes`; until then, the positive nodes of all current
    sources (the common power-grid convention: you observe the voltage
    droop at every load port).
    """

    def __init__(self, title: str = "untitled") -> None:
        self.title = title
        self._node_index: dict[str, int] = {GROUND: -1}
        self._names: dict[str, None] = {}
        # One (kind codes, node pairs, values) triple per ``add`` call,
        # concatenated on the first read after it.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._views: dict[str | None, Elements] = {}
        self._output_nodes: list[str] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, kind: str | Sequence[str], names: str | Sequence[str],
            node_pos: str | Sequence[str], node_neg: str | Sequence[str],
            values) -> None:
        """Append elements; adding one element is the one-element case.

        ``kind`` is a letter of :data:`KINDS`, shared by every element or
        given per element; ``node_pos``, ``node_neg`` and ``values`` are
        likewise one per element or one shared by all.  Every element is
        checked before any is added: names must be non-empty and unique,
        no element may connect a node to itself, and values must be finite
        numbers, positive for ``R``/``C``/``L`` and non-negative for ``I``.
        """
        names = [names] if isinstance(names, str) else list(names)
        k = len(names)
        kinds = _column(kind, k, "kind(s)")
        pos = _column(node_pos, k, "positive node(s)")
        neg = _column(node_neg, k, "negative node(s)")
        unknown = sorted(set(kinds) - KINDS.keys())
        if unknown:
            raise _unknown_kind(unknown[0])
        kinds = np.array(kinds, dtype="<U1")
        if not all(names):
            raise CircuitError("element name must be non-empty")
        _fail_first(np.fromiter(map(operator.eq, pos, neg), bool, k),
                    lambda i: f"element {names[i]!r} connects node "
                              f"{pos[i]!r} to itself")
        values = _finite_floats(names, values)
        for code, (label, quantity, zero_ok) in _BOUNDS.items():
            low = values < 0.0 if zero_ok else values <= 0.0
            _fail_first((kinds == code) & low,
                        lambda i: f"{label} {names[i]!r} must have "
                                  f"{quantity}, got {values[i]}")
        fresh = dict.fromkeys(names)
        if len(fresh) < k or not self._names.keys().isdisjoint(fresh):
            seen = set(self._names)
            for name in names:
                if name in seen:
                    raise CircuitError(f"duplicate element name {name!r}")
                seen.add(name)
        # New nodes join the table in first-appearance order, terminal by
        # terminal.
        terminals: list = [None] * (2 * k)
        terminals[0::2], terminals[1::2] = pos, neg
        index = self._node_index
        new = [node for node in dict.fromkeys(terminals)
               if node not in index]
        index.update(zip(new, range(len(index) - 1,
                                    len(index) - 1 + len(new))))
        nodes = np.fromiter(map(index.__getitem__, terminals), np.intp,
                            2 * k)
        self._names.update(fresh)
        self._chunks.append((kinds, nodes.reshape(k, 2), values))
        self._views.clear()

    def set_output_nodes(self, nodes: Iterable[str]) -> None:
        """Designate the observed output nodes (rows of ``L``)."""
        nodes = list(nodes)
        for node in nodes:
            if node not in self._node_index:
                raise CircuitError(f"output node {node!r} not in the netlist")
        self._output_nodes = nodes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kind codes, node pairs and values of every element."""
        if len(self._chunks) != 1:
            columns = zip(*self._chunks) if self._chunks else (
                [np.empty(0, "<U1")], [np.empty((0, 2), np.intp)],
                [np.empty(0)])
            self._chunks = [tuple(np.concatenate(column)
                                  for column in columns)]
        return self._chunks[0]

    def elements(self, kind: str | None = None) -> Elements:
        """The elements of one kind (every element for ``None``), in
        insertion order, as read-only columns."""
        view = self._views.get(kind)
        if view is not None:
            return view
        if kind is None:
            _, nodes, values = self._table()
            view = Elements(np.array(list(self._names), dtype=object),
                            nodes, values)
        elif kind in KINDS:
            every = self.elements()
            mask = self._table()[0] == kind
            view = Elements(every.names[mask], every.nodes[mask],
                            every.values[mask])
        else:
            raise _unknown_kind(kind)
        for column in view:
            column.flags.writeable = False
        self._views[kind] = view
        return view

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def nodes(self) -> list[str]:
        """All non-ground node names in first-appearance order (the node
        table: the node with index ``i`` is ``nodes()[i]``)."""
        return list(self._node_index)[1:]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_index) - 1

    @property
    def n_ports(self) -> int:
        """Number of input ports (current sources)."""
        return len(self.elements("I").names)

    @property
    def output_nodes(self) -> list[str]:
        """Observed output nodes (defaults to all current-source nodes)."""
        if self._output_nodes:
            return list(self._output_nodes)
        pairs = self.elements("I").nodes
        ports = np.where(pairs[:, 0] >= 0, pairs[:, 0], pairs[:, 1])
        names = self.nodes()
        return list(dict.fromkeys(names[i] for i in ports.tolist()
                                  if i >= 0))

    # ------------------------------------------------------------------ #
    # Consistency checks
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural consistency of the netlist.

        Raises
        ------
        CircuitError
            If the netlist is empty, has no ground reference, contains
            dangling nodes touched by exactly one element terminal, has no
            input source, or has nodes with no path to ground through its
            resistors, capacitors, inductors and voltage sources.
        """
        if not self._names:
            raise CircuitError("netlist is empty")
        kinds = self._table()[0]
        pairs = self.elements().nodes
        terminals = pairs.ravel()
        if not (terminals < 0).any():
            raise CircuitError(
                "netlist has no connection to the ground node '0'"
            )
        names = self.nodes()
        n = len(names)
        touches = np.bincount(terminals[terminals >= 0], minlength=n)
        dangling = sorted(names[i] for i in np.flatnonzero(touches < 2))
        if dangling:
            preview = ", ".join(dangling[:5])
            raise CircuitError(
                f"{len(dangling)} dangling node(s) touched by a single "
                f"terminal: {preview}"
            )
        if not np.isin(kinds, ["I", "V"]).any():
            raise CircuitError("netlist has no input source")
        # Ground is graph vertex n; current sources carry no admittance.
        edges = np.where(pairs < 0, n, pairs)[kinds != "I"]
        graph = sp.coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
            shape=(n + 1, n + 1))
        _, labels = connected_components(graph, directed=False)
        floating = sorted(names[i]
                          for i in np.flatnonzero(labels[:n] != labels[n]))
        if floating:
            preview = ", ".join(floating[:5])
            raise CircuitError(
                f"{len(floating)} node(s) with no path to ground: {preview}"
            )

    def summary(self) -> dict[str, int]:
        """Element and node counts, handy for benchmark reporting."""
        kinds = self._table()[0]
        return {"nodes": self.n_nodes,
                **{key: int(np.count_nonzero(kinds == kind))
                   for kind, key in KINDS.items()}}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (f"Netlist({self.title!r}, nodes={s['nodes']}, "
                f"R={s['resistors']}, C={s['capacitors']}, "
                f"L={s['inductors']}, I={s['current_sources']}, "
                f"V={s['voltage_sources']})")
