"""Common containers shared by every reducer in the library.

Four pieces live here:

:class:`StructuredROM`
    The one ROM type: diagonal blocks (:class:`ROMBlock`) plus an
    optional border coupling them to one interface block.  It owns the
    transfer evaluator, the assembled matrices and the reports;
    :class:`ReducedSystem` (one dense block),
    :class:`~repro.core.structured_rom.BlockDiagonalROM` (one block per
    port) and :class:`~repro.partition.assemble.PartitionedROM` (shards
    plus the border) only construct it.

:class:`ResourceBudget`
    A memory guard.  PRIMA and SVDMOR "break down" on the largest Table II
    benchmarks because their dense projection bases and dense ROMs exhaust
    memory; the budget reproduces that failure mode deterministically (and
    safely) on laptop-scale inputs by estimating the dense storage a reducer
    is about to allocate and raising
    :class:`~repro.exceptions.ResourceBudgetExceeded` when it would not fit.

:class:`ReductionSummary`
    The per-run record (method, CPU time, ROM size, non-zeros, matched
    moments, reusability) that the Table I / Table II harnesses aggregate.

Krylov-reducer helpers
    :func:`expansion_points_checked`, :func:`real_columns_per_input`,
    :func:`expansion_point_options` and :func:`memoized_reduce` — the
    argument check, dense-budget column bound, store-key record and
    store round trip the Krylov reducers (BDSM, PRIMA) share, whatever
    the number of expansion points.
"""

from __future__ import annotations

import cmath
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    PartitionError,
    ReductionError,
    ResourceBudgetExceeded,
)
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import DEFAULT_RECYCLE_TOL
from repro.linalg.sparse_utils import estimate_dense_bytes, nnz_density
from repro.mor.modal import MODAL_TOL, ModalFormError, modal_block, probe_point
from repro.obs.health import health_enabled, record_health
from repro.obs.metrics import default_metrics
from repro.obs.tracing import trace_span

__all__ = [
    "ROMBlock",
    "ReducedSystem",
    "ReductionSummary",
    "ResourceBudget",
    "StructuredROM",
    "expansion_point_options",
    "expansion_points_checked",
    "memoized_reduce",
    "real_columns_per_input",
]


def expansion_points_checked(moments_per_point: int,
                             expansion_points) -> list:
    """The expansion points as a list, after the argument checks every
    Krylov reducer makes (at least one point, at least one moment)."""
    points = list(expansion_points)
    if not points:
        raise ReductionError("need at least one expansion point")
    if moments_per_point < 1:
        raise ReductionError("moments_per_point must be >= 1")
    return points


def real_columns_per_input(moments_per_point: int, expansion_points) -> int:
    """Real basis columns one input column can contribute: ``l`` per real
    point and ``2 l`` per complex one (its real and imaginary parts) — the
    width the dense-budget checks must assume."""
    return moments_per_point * sum(1 if complex(p).imag == 0.0 else 2
                                   for p in expansion_points)


def expansion_point_options(moments_per_point: int, expansion_points, *,
                            recycle: bool = False,
                            recycle_tol: float = DEFAULT_RECYCLE_TOL,
                            ) -> dict:
    """The point-dependent part of a Krylov reducer's store options.

    One point records ``s0`` (the single-point key, unchanged since the
    store was introduced); several record ``expansion_points``, plus
    ``recycle_tol`` when recycling screens candidates (with one point
    nothing is ever screened, so recycling cannot change the ROM).
    """
    points = [complex(p) for p in expansion_points]
    if len(points) == 1:
        return {"n_moments": int(moments_per_point), "s0": points[0]}
    record = {"n_moments": int(moments_per_point),
              "expansion_points": points}
    if recycle:
        record["recycle_tol"] = float(recycle_tol)
    return record


def memoized_reduce(store, system, method: str, options: dict, build):
    """Run one reduce ``build() -> (rom, stats, seconds)`` through
    :meth:`~repro.store.ModelStore.get_or_reduce` of ``store``.

    A store hit returns the loaded ROM with empty
    :class:`~repro.linalg.orthogonalization.OrthoStats` and the key and
    load time; a miss runs ``build``, stores its ROM and returns its own
    triple.  Without a store this is just ``build()``.
    """
    if store is None:
        return build()
    built = []

    def builder():
        built.append(build())
        return built[0][0]

    start = time.perf_counter()
    rom, hit = store.get_or_reduce(system, method, options, builder)
    if hit:
        return rom, OrthoStats(), time.perf_counter() - start
    return built[0]


@dataclass
class ResourceBudget:
    """Memory budget for dense intermediate storage during reduction.

    Parameters
    ----------
    max_dense_bytes:
        Maximum number of bytes a reducer may allocate for its dense
        projection basis plus its dense ROM matrices.  ``None`` disables the
        guard.
    label:
        Free-form description used in error messages.
    """

    max_dense_bytes: int | None = None
    label: str = "default budget"

    #: Budget loosely corresponding to the paper's 4 GB workstation once the
    #: benchmark sizes are scaled down (see DESIGN.md §5).
    TABLE_II_DEFAULT_BYTES = 192 * 1024 * 1024

    @classmethod
    def table_ii(cls) -> "ResourceBudget":
        """The budget used by the Table II reproduction harness."""
        return cls(max_dense_bytes=cls.TABLE_II_DEFAULT_BYTES,
                   label="Table II scaled 4GB-workstation budget")

    @classmethod
    def unlimited(cls) -> "ResourceBudget":
        """A budget that never rejects an allocation."""
        return cls(max_dense_bytes=None, label="unlimited")

    def check_dense(self, rows: int, cols: int, *, what: str) -> None:
        """Raise if a dense ``rows x cols`` float64 array exceeds the budget."""
        if self.max_dense_bytes is None:
            return
        required = estimate_dense_bytes(rows, cols)
        if required > self.max_dense_bytes:
            raise ResourceBudgetExceeded(
                f"{what} would need a dense {rows}x{cols} array "
                f"({required / 1e6:.1f} MB) exceeding the "
                f"{self.label} of {self.max_dense_bytes / 1e6:.1f} MB",
                required_bytes=required,
                budget_bytes=self.max_dense_bytes,
            )


def _dense(matrix) -> np.ndarray:
    """Densify preserving complexness (int inputs still become float).

    One cast for every ROM array: a complex reduced pencil (a ROM built
    around a complex expansion point without the real-split trick, or a
    grid observed through a complex output matrix) keeps its imaginary
    part, and sparse products (a recursive shard's couplings) come out as
    ``ndarray``.
    """
    if sp.issparse(matrix):
        return matrix.toarray()
    arr = np.asarray(matrix)
    if np.iscomplexobj(arr):
        return arr.astype(complex, copy=False)
    return arr.astype(float, copy=False)


class ROMBlock:
    """One diagonal block ``(C_i, G_i, B_i, L_i, basis_i)`` of a ROM.

    Attributes
    ----------
    index:
        Label of the block: the input port of a BDSM block, the subdomain
        number of a partitioned shard, ``0`` for a monolithic ROM.
    C, G:
        ``q_i x q_i`` reduced descriptor blocks.
    B:
        ``q_i x w_i`` reduced input columns of the ports the block is
        driven by (``b=`` builds the one-column block of a BDSM port).
    L:
        ``p x q_i`` reduced output slice.
    basis:
        Optional projection basis ``V_i`` (kept only on request).
    ports:
        Global port of each column of ``B``; ``None`` when ``B`` covers
        every port in order.
    Ec, Eg, Fc, Fg:
        The border: ``q_i x n_s`` block-to-interface and ``n_s x q_i``
        interface-to-block couplings of ``C`` and ``G`` (all ``None`` for
        an uncoupled block).
    """

    def __init__(self, index: int, C, G, B=None, L=None, basis=None, *,
                 b=None, ports=None, Ec=None, Eg=None, Fc=None,
                 Fg=None) -> None:
        border = (Ec, Eg, Fc, Fg)
        err = ReductionError if Ec is None else PartitionError
        self.index = int(index)
        self.C = _dense(C)
        self.G = _dense(G)
        self.B = (_dense(b).reshape(-1, 1) if b is not None
                  else np.atleast_2d(_dense(B)))
        self.L = np.atleast_2d(_dense(L))
        self.basis = basis
        self.ports = (None if ports is None
                      else np.asarray(ports, dtype=np.int64).reshape(-1))
        q = self.C.shape[0]
        if self.C.shape != (q, q) or self.G.shape != (q, q):
            raise err(f"block {self.index}: C and G must be square and "
                      "equal-sized")
        if self.B.shape[0] != q:
            raise err(f"block {self.index}: B has {self.B.shape[0]} rows, "
                      f"expected {q}")
        if self.L.shape[1] != q:
            raise err(f"block {self.index}: L has {self.L.shape[1]} "
                      f"columns, expected {q}")
        if self.ports is not None and self.ports.shape[0] != self.B.shape[1]:
            raise err(f"block {self.index}: {self.ports.shape[0]} ports "
                      f"for {self.B.shape[1]} input columns")
        if all(x is None for x in border):
            self.Ec = self.Eg = self.Fc = self.Fg = None
            return
        if any(x is None for x in border):
            raise err(f"block {self.index}: a border needs Ec, Eg, Fc "
                      "and Fg")
        self.Ec, self.Eg, self.Fc, self.Fg = (np.atleast_2d(_dense(x))
                                              for x in border)
        n_s = self.Ec.shape[1]
        if self.Ec.shape != (q, n_s) or self.Eg.shape != (q, n_s) \
                or self.Fc.shape != (n_s, q) or self.Fg.shape != (n_s, q):
            raise err(f"block {self.index}: interface couplings have "
                      "inconsistent shapes")

    @property
    def order(self) -> int:
        """Reduced size ``q_i`` of this block."""
        return int(self.C.shape[0])

    @property
    def b(self) -> np.ndarray:
        """The reduced input vector ``V_i^T b_i`` of a one-port block."""
        if self.B.shape[1] != 1:
            raise ReductionError(
                f"block {self.index} is driven by {self.B.shape[1]} ports")
        return self.B[:, 0]


def _triplets(matrix, row0: int, cols) -> tuple:
    """COO triplets of ``matrix`` placed at row ``row0``; ``cols`` is a
    column offset or the global column of each local column."""
    if sp.issparse(matrix):
        coo = matrix.tocoo()
        rows, local, data = coo.row, coo.col, coo.data
    else:
        rows, local = np.nonzero(matrix)
        data = matrix[rows, local]
    return (rows + row0,
            local + cols if isinstance(cols, int) else cols[local], data)


class StructuredROM:
    """Reduced model ``C_r dz/dt = G_r z + B_r u``, ``y = L_r z`` held as
    diagonal blocks plus an optional border (paper Eq. 14 and Fig. 3).

    .. code-block:: text

        [ A_1          E_1(s) ] [z_1]   [B_1]
        [      ...      ...   ] [...] = [...] u,   A_i(s) = s C_i - G_i
        [          A_k E_k(s) ] [z_k]   [B_k]
        [F_1(s) ... F_k(s) A_s] [z_s]   [B_s]

    Every reducer returns one: a PRIMA/EKS/SVDMOR ROM is one block
    driven by all ports (:class:`ReducedSystem`), a BDSM ROM one block
    per port (:class:`~repro.core.structured_rom.BlockDiagonalROM`), a
    partitioned macromodel one block per shard plus the border to the
    interface block ``(C_ss, G_ss, B_s, L_s)``
    (:class:`~repro.partition.assemble.PartitionedROM`).  Those classes
    only construct; evaluation, assembly, summaries and the artifact codec
    (:mod:`repro.store.artifacts`) are written once, here and there.

    A border-free ROM is served from its modal form (paper Sec. III-D,
    :mod:`repro.mor.modal`): per block the eigenvalues ``mu`` of
    ``G_i^{-1} C_i``, ``L_i X_i`` and ``X_i^{-1} G_i^{-1} B_i``, built once
    (at artifact save, or on the first query, under a per-ROM lock) and
    checked against a direct solve at one probe point; then
    ``H(s) = sum_i (L_i X_i) diag(1 / (s mu_i - 1)) (X_i^{-1} G_i^{-1} B_i)``
    needs no per-point solve.  A ROM whose form fails that check (singular
    ``G_i``, a defective pencil, an error above
    :data:`~repro.mor.modal.MODAL_TOL`) keeps the direct solves, and the
    fallback is counted (``rom.modal_fallback`` in
    :func:`~repro.obs.metrics.default_metrics`, and a health ``warn`` while
    monitors are on).  Direct queries run block by block: each block is
    solved against its own input columns (plus the border columns), blocks
    of equal order and width in one stacked ``np.linalg.solve``, and a
    border is closed by the interface Schur complement
    ``A_s - sum_i F_i A_i^{-1} E_i``.  The assembled
    ``C``/``G``/``B``/``L`` are built on first use — the arrays of a
    one-block, border-free ROM as they are (dense), every other ROM as
    sparse CSR — so the generic analyses run on any ROM.
    Blocks must not change after the first query or assembly.

    ``health`` is the :class:`~repro.obs.health.HealthReport` of the
    reducer's own health scope (``None`` when it ran outside any
    :func:`~repro.obs.health.collect_health` block); artifacts do not
    persist it.
    """

    _dense = staticmethod(_dense)
    #: Constructor-specific attributes the artifact codec round-trips.
    _extras: tuple[str, ...] = ()

    def __init__(self, blocks: list[ROMBlock], *, n_ports: int,
                 n_outputs: int, interface=None, method: str = "projection",
                 s0: complex | list[complex] = 0.0, n_moments: int = 0,
                 reusable: bool = True, original_size: int = 0,
                 original_ports: int = 0, name: str = "rom",
                 output_names: list[str] | None = None) -> None:
        if interface is None:
            self.C_ss = self.G_ss = self.B_s = self.L_s = None
        else:
            self.C_ss, self.G_ss, self.B_s, self.L_s = (
                sp.csr_matrix(x) for x in interface)
        err = self._error
        if not blocks:
            raise err(f"a {type(self).__name__} needs at least one block")
        self.blocks = list(blocks)
        self.n_ports = int(n_ports)
        self.n_outputs = int(n_outputs)
        n_s = self.interface_order
        for block in self.blocks:
            if block.L.shape[0] != self.n_outputs:
                raise err(f"block {block.index} has {block.L.shape[0]} "
                          f"output rows, expected {self.n_outputs}")
            if block.ports is None:
                if block.B.shape[1] != self.n_ports:
                    raise err(f"block {block.index} sees {block.B.shape[1]}"
                              f" ports, expected {self.n_ports}")
            elif block.ports.size and not (
                    0 <= block.ports.min()
                    and block.ports.max() < self.n_ports):
                raise err(f"block {block.index} drives a port outside "
                          f"[0, {self.n_ports})")
            coupled = 0 if block.Ec is None else block.Ec.shape[1]
            if (block.Ec is None) != (interface is None) or coupled != n_s:
                raise err(f"block {block.index} couples to {coupled} "
                          f"interface states, expected {n_s}")
            if interface is not None and block.ports is not None:
                raise err(f"bordered block {block.index} must be driven "
                          "by every port")
        if interface is not None:
            if self.C_ss.shape != (n_s, n_s) or self.G_ss.shape != (n_s, n_s):
                raise err("interface blocks must be square")
            if self.B_s.shape != (n_s, self.n_ports) \
                    or self.L_s.shape != (self.n_outputs, n_s):
                raise err("interface B/L dimensions are inconsistent")
        self.method = method
        self.s0 = s0
        self.n_moments = int(n_moments)
        self.reusable = bool(reusable)
        self.original_size = int(original_size)
        self.original_ports = int(original_ports)
        self.name = name
        self.output_names = list(output_names or [])
        self.health = None
        self._assembled: dict[str, object] = {}
        self._groups: dict[tuple, dict] = {}
        # Per-block (mu, LX, XB) once built, () where direct solves serve.
        self._modal: tuple | None = None
        self._modal_lock = threading.Lock()
        self._plans: dict[int | None, list] = {}
        self._dense_interface: tuple[np.ndarray, ...] | None = None
        self._reduced_system: ReducedSystem | None = None

    @classmethod
    def _restore(cls, blocks: list[ROMBlock], extras: dict, **kwargs):
        """Rebuild a ROM of this class from its decoded parts (the
        artifact codec's one decoder), skipping the constructor."""
        rom = cls.__new__(cls)
        StructuredROM.__init__(rom, blocks, **kwargs)
        for name in cls._extras:
            setattr(rom, name, extras.get(name))
        return rom

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def _error(self) -> type[ReductionError]:
        return ReductionError if self.C_ss is None else PartitionError

    @property
    def interface_order(self) -> int:
        """Order of the interface block (``0`` without a border)."""
        return 0 if self.C_ss is None else int(self.C_ss.shape[0])

    @property
    def n_blocks(self) -> int:
        """Number of diagonal blocks."""
        return len(self.blocks)

    @property
    def size(self) -> int:
        """Reduced order: the block orders plus the interface order."""
        return sum(b.order for b in self.blocks) + self.interface_order

    # ------------------------------------------------------------------ #
    # Assembled global matrices, cached
    # ------------------------------------------------------------------ #
    def _assemble(self, name: str):
        if len(self.blocks) == 1 and self.C_ss is None:
            block = self.blocks[0]
            if name != "B" or block.ports is None:
                return getattr(block, name)
            B = np.zeros((block.order, self.n_ports), dtype=block.B.dtype)
            B[:, block.ports] = block.B
            return B
        border = self.C_ss is not None
        if name == "L":
            return sp.csr_matrix(np.hstack(
                [b.L for b in self.blocks]
                + ([self.L_s.toarray()] if border else [])))
        q, n_int = self.size, self.size - self.interface_order
        every_port = np.arange(self.n_ports)
        parts, offset = [], 0
        for block in self.blocks:
            if name in ("C", "G"):
                parts.append(_triplets(getattr(block, name), offset, offset))
                if border:
                    parts.append(_triplets(getattr(block, f"E{name.lower()}"),
                                           offset, n_int))
                    parts.append(_triplets(getattr(block, f"F{name.lower()}"),
                                           n_int, offset))
            else:
                parts.append(_triplets(block.B, offset,
                                       every_port if block.ports is None
                                       else block.ports))
            offset += block.order
        if border:
            corner = {"C": (self.C_ss, n_int, n_int),
                      "G": (self.G_ss, n_int, n_int), "B": (self.B_s, n_int, 0)}
            parts.append(_triplets(*corner[name]))
        rows, cols, data = (np.concatenate(x) for x in zip(*parts))
        return sp.csr_matrix((data, (rows, cols)),
                             shape=(q, self.n_ports if name == "B" else q))

    def _matrix(self, name: str):
        if name not in self._assembled:
            self._assembled[name] = self._assemble(name)
        return self._assembled[name]

    @property
    def C(self):
        """Global ``C_r`` (dense for one border-free block, else CSR)."""
        return self._matrix("C")

    @property
    def G(self):
        """Global ``G_r`` (dense for one border-free block, else CSR)."""
        return self._matrix("G")

    @property
    def B(self):
        """Global ``B_r``: block-row ``i`` holds ``B_i`` in its ports'
        columns (dense for one border-free block, else CSR)."""
        return self._matrix("B")

    @property
    def L(self):
        """Global ``L_r = [L_1, ..., L_k, L_s]`` (dense for one
        border-free block, else CSR)."""
        return self._matrix("L")

    @property
    def nnz(self) -> int:
        """Non-zero entries of the assembled ``C_r``, ``G_r`` and ``B_r``
        (the paper's ``m l^2``-type count for a BDSM ROM)."""
        return sum(int(np.count_nonzero(M.data if sp.issparse(M) else M))
                   for M in (self.C, self.G, self.B))

    def density(self) -> dict[str, float]:
        """Per-matrix non-zero density (the Fig. 4 numbers)."""
        return {name: nnz_density(getattr(self, name))
                for name in ("C", "G", "B", "L")}

    # ------------------------------------------------------------------ #
    # Transfer evaluation: the one evaluator
    # ------------------------------------------------------------------ #
    def _plan(self, port: int | None) -> list:
        """Blocks that take part in a query, grouped for stacked solves.

        Each group is ``(members, sel, targets)``: block positions of
        equal order and input width, the local ``B`` column they solve
        against (``None`` = all), and the output column of each solved
        column (``None`` = each member's columns are the output columns,
        in order).  An entry query skips every block that ``port`` does
        not drive (a bordered block is driven by every port).
        """
        plan = self._plans.get(port)
        if plan is not None:
            return plan
        groups: dict[tuple, list[int]] = {}
        for k, block in enumerate(self.blocks):
            sel = port
            if port is not None and block.ports is not None:
                hits = np.flatnonzero(block.ports == port)
                if not hits.size:
                    continue
                sel = int(hits[0])
            groups.setdefault((block.order, block.B.shape[1], sel),
                              []).append(k)
        plan = []
        for (_, _, sel), members in groups.items():
            ports = [self.blocks[k].ports for k in members]
            targets = None
            if port is None and any(p is not None for p in ports):
                targets = np.concatenate(
                    [np.arange(self.n_ports) if p is None else p
                     for p in ports])
            plan.append((tuple(members), sel, targets))
        self._plans[port] = plan
        return plan

    def _group(self, members: tuple[int, ...], form=None) -> dict:
        """The arrays of ``members`` — their pencils, or with ``form`` (the
        per-block modal arrays) their ``mu``/``LX``/``XB`` — one block's
        own arrays, or stacked ``(k, ...)`` copies for two or more blocks,
        built once; a pencil's ``B`` is cast to complex once either way."""
        key = (members, form is not None)
        group = self._groups.get(key)
        if group is None:
            if form is None:
                names = ("C", "G", "B", "L") + (
                    () if self.C_ss is None else ("Ec", "Eg"))
                parts = [{name: getattr(self.blocks[k], name)
                          for name in names} for k in members]
            else:
                parts = [dict(zip(("mu", "LX", "XB"), form[k]))
                         for k in members]
            group = parts[0] if len(parts) == 1 else {
                name: np.stack([part[name] for part in parts])
                for name in parts[0]}
            if form is None:
                group["B"] = group["B"].astype(complex)
            self._groups[key] = group
        return group

    def _modal_form(self) -> tuple | None:
        """The per-block ``(mu, LX, XB)`` modal arrays, built on first use
        under the ROM's lock; ``None`` where direct solves serve (a border,
        or a form that failed its check)."""
        if self.C_ss is not None:
            return None
        if self._modal is None:
            with self._modal_lock:
                if self._modal is None:
                    self._modal = self._build_modal()
        return self._modal or None

    def _build_modal(self) -> tuple:
        """Build and check the modal form; ``()`` (direct solves) when a
        block has none or it misses the direct solve at the probe point
        by more than :data:`~repro.mor.modal.MODAL_TOL`.  The span records
        how many blocks each LAPACK kernel built (``sygvd_blocks``,
        ``dgeev_blocks``, ``zgeev_blocks``) and ``max_pole_real``, the
        largest real part of the finite poles."""
        with trace_span("rom.modal_build", blocks=self.n_blocks,
                        order=self.size) as span:
            try:
                built = [modal_block(b.C, b.G, b.B, b.L)
                         for b in self.blocks]
                form = tuple(parts[:3] for parts in built)
                kernels = [parts[3] for parts in built]
                for kernel in ("sygvd", "dgeev", "zgeev"):
                    span.set_tag(f"{kernel}_blocks", kernels.count(kernel))
                mu = np.concatenate([mu for mu, _, _ in form])
                span.set_tag("max_pole_real", float(np.max(
                    (1.0 / mu[mu != 0]).real, initial=-np.inf)))
                s = probe_point(mu for mu, _, _ in form)
                direct = self._respond(s, None, None)
                error = float(np.max(np.abs(self._respond(s, None, form)
                                            - direct), initial=0.0))
                scale = float(np.max(np.abs(direct), initial=0.0)) or 1.0
                if not error <= MODAL_TOL * scale:
                    raise ModalFormError(
                        "residual", f"modal form misses the direct solve "
                        f"at s={s:.3g} by {error / scale:.1e} (relative)")
            except ReductionError as exc:
                for key in [k for k in self._groups if k[1]]:
                    del self._groups[key]
                default_metrics().increment(
                    "rom.modal_fallback",
                    reason=getattr(exc, "reason", "probe"))
                if health_enabled():
                    record_health(
                        "rom.modal_fallback", 1.0,
                        detail=f"{self.name}: {exc}", method=self.method)
                return ()
        return form

    def modal_form(self) -> tuple:
        """The per-block ``(mu, LX, XB)`` modal arrays the ROM is served
        from, in block order; ``XB`` covers the block's own ports.

        Raises the ROM's error type when there is no modal form: a
        bordered ROM (its poles are not the blocks'), or one whose form
        failed its check."""
        form = self._modal_form()
        if form is None:
            raise self._error(
                "no modal form: " + ("the ROM has a border"
                                     if self.C_ss is not None else
                                     "its check failed, direct solves "
                                     "serve this ROM"))
        return form

    def poles(self) -> np.ndarray:
        """Poles ``1 / mu`` of every block, in block order (``inf`` for
        ``mu = 0``), read off :meth:`modal_form` (which raises when there
        is none)."""
        mu = np.concatenate([mu for mu, _, _ in self.modal_form()])
        poles = np.full(mu.shape, np.inf, dtype=complex)
        np.divide(1.0, mu, out=poles, where=mu != 0)
        return poles

    def _evaluate(self, s: complex, port: int | None = None) -> np.ndarray:
        """Outputs ``L_r (s C_r - G_r)^{-1} B_r[:, cols]`` for every port
        (``port=None``) or the one column ``port``."""
        if not cmath.isfinite(s):
            raise self._error(f"frequency point s={s} is not finite")
        return self._respond(s, port, self._modal_form())

    def _respond(self, s: complex, port: int | None, form) -> np.ndarray:
        """:meth:`_evaluate` from the modal ``form``, or with ``form=None``
        by direct solves."""
        border = self.C_ss is not None
        y = np.zeros((self.n_outputs, self.n_ports if port is None else 1),
                     dtype=complex)
        solved: dict[int, tuple] = {}
        for members, sel, targets in self._plan(port):
            group = self._group(members, form)
            if form is not None:
                den = s * group["mu"] - 1.0
                if not den.all():
                    raise self._error(
                        f"block {self.blocks[members[0]].index}: reduced "
                        f"pencil singular at s={s}")
                rhs = group["XB"] if sel is None else group["XB"][..., [sel]]
                Y = group["LX"] @ (rhs / den[..., np.newaxis])
            else:
                A = s * group["C"] - group["G"]
                rhs = group["B"] if sel is None else group["B"][..., [sel]]
                if border:
                    rhs = np.concatenate([rhs, s * group["Ec"] - group["Eg"]],
                                         axis=-1)
                try:
                    X = np.linalg.solve(A, rhs)
                except np.linalg.LinAlgError as exc:
                    raise self._error(
                        f"block {self.blocks[members[0]].index}"
                        + (f" (of {len(members)} stacked)" if len(members) > 1
                           else "")
                        + f": reduced pencil singular at s={s}: {exc}"
                    ) from exc
                if border:
                    n_b = rhs.shape[-1] - self.interface_order
                    X = X if X.ndim == 3 else X[np.newaxis]
                    for j, k in enumerate(members):
                        solved[k] = (X[j, :, :n_b], X[j, :, n_b:])
                    continue
                Y = group["L"] @ X
            if targets is None:
                y += Y if Y.ndim == 2 else Y.sum(axis=0)
            else:
                if Y.ndim == 3:
                    Y = Y.transpose(1, 0, 2).reshape(self.n_outputs, -1)
                np.add.at(y, (slice(None), targets), Y)
        if not border:
            return y
        return self._close_border(s, port, solved)

    def _close_border(self, s: complex, port: int | None,
                      solved: dict[int, tuple]) -> np.ndarray:
        """Couple the eliminated blocks through the interface Schur
        complement and fold the back-substitution into the outputs."""
        if self._dense_interface is None:
            # Densified once: sweeps query the interface per point.
            self._dense_interface = (self.C_ss.toarray(),
                                     self.G_ss.toarray(),
                                     self.B_s.toarray())
        C_ss, G_ss, B_s = self._dense_interface
        cols = np.arange(self.n_ports) if port is None else [port]
        S = np.asarray(s * C_ss - G_ss, dtype=complex)
        R = np.array(B_s[:, cols], dtype=complex)
        for k, block in enumerate(self.blocks):
            F = s * block.Fc - block.Fg
            X_B, X_E = solved[k]
            S -= F @ X_E
            R -= F @ X_B
        if self.interface_order:
            try:
                x_s = np.linalg.solve(S, R)
            except np.linalg.LinAlgError as exc:
                raise self._error(
                    f"interface Schur complement singular at s={s}: {exc}"
                ) from exc
        else:
            x_s = np.zeros((0, len(cols)), dtype=complex)
        y = np.asarray(self.L_s @ x_s, dtype=complex)
        for k, block in enumerate(self.blocks):
            X_B, X_E = solved[k]
            y += block.L @ (X_B - X_E @ x_s)
        return y

    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate the ``p x m`` transfer matrix ``L_r (s C_r - G_r)^{-1}
        B_r`` block by block: from the modal form, ``O(p l)`` per port
        for a BDSM ROM, or by direct solves, ``O(m l^3)`` (Sec. III-B)."""
        return self._evaluate(s)

    def transfer_entry(self, s: complex, output: int, port: int) -> complex:
        """Evaluate one transfer-matrix entry, solving only the blocks
        that ``port`` drives (plus the border)."""
        if not 0 <= port < self.n_ports:
            raise self._error(f"port {port} out of range [0, "
                              f"{self.n_ports})")
        if not 0 <= output < self.n_outputs:
            raise self._error(f"output {output} out of range [0, "
                              f"{self.n_outputs})")
        return complex(self._evaluate(s, int(port))[output, 0])

    # ------------------------------------------------------------------ #
    # Conversions and reports
    # ------------------------------------------------------------------ #
    def to_reduced_system(self) -> ReducedSystem:
        """Densify into one dense block (a :class:`ReducedSystem`, cached).

        Gives up the structure, so only do this for small ROMs (dense
        comparisons, code that expects dense matrices).
        """
        if isinstance(self, ReducedSystem):
            return self
        if self._reduced_system is None:
            s0 = self.s0
            if isinstance(s0, (list, tuple)):
                s0 = complex(s0[0]) if s0 else 0.0
            self._reduced_system = ReducedSystem(
                C=self.C, G=self.G, B=self.B, L=self.L, method=self.method,
                s0=s0, n_moments=self.n_moments, reusable=self.reusable,
                original_size=self.original_size,
                original_ports=self.original_ports, name=self.name)
        return self._reduced_system

    def reconstruct_state(self, z: np.ndarray) -> np.ndarray:
        """Lift a reduced state back to original coordinates:
        ``x = sum_i V_i z[offset_i : offset_i + q_i]``, the blocks' bases
        side by side times the length-``size`` vector ``z``.

        Needs the bases (a reduction run with ``keep_projection=True``).
        A bordered ROM raises :class:`~repro.exceptions.PartitionError`:
        its shard bases cover only their internal states, and
        :meth:`~repro.partition.assemble.PartitionedROM.global_basis`
        places them in the full model.
        """
        if self.C_ss is not None:
            raise PartitionError(
                f"cannot lift the state of a ROM with a border to "
                f"{self.interface_order} interface states; use "
                "global_basis()")
        z = np.asarray(z)
        if z.shape != (self.size,):
            raise ReductionError(
                f"reduced state has shape {z.shape}, expected "
                f"({self.size},)")
        if any(block.basis is None for block in self.blocks):
            raise ReductionError(
                "this ROM was built without keep_projection=True")
        offsets = np.cumsum([block.order for block in self.blocks])[:-1]
        return sum(block.basis @ z_i
                   for block, z_i in zip(self.blocks, np.split(z, offsets)))

    def summary(self, *, mor_seconds: float | None = None,
                ortho_stats: OrthoStats | None = None) -> "ReductionSummary":
        """Build the Table II record for this ROM."""
        return ReductionSummary(
            method=self.method,
            benchmark=self.name,
            original_size=self.original_size,
            original_ports=self.original_ports,
            rom_size=self.size,
            rom_nnz=self.nnz,
            matched_moments=self.n_moments,
            reusable=self.reusable,
            mor_seconds=mor_seconds,
            ortho_inner_products=(ortho_stats.inner_products
                                  if ortho_stats else None),
            status="ok",
            extra=dict(getattr(self, "partition_info", None) or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(method={self.method!r}, "
                f"blocks={self.n_blocks}, q={self.size}, "
                f"interface={self.interface_order}, m={self.n_ports}, "
                f"p={self.n_outputs})")


class ReducedSystem(StructuredROM):
    """Dense reduced-order descriptor model ``C_r dz/dt = G_r z + B_r u``:
    one block driven by every port (PRIMA / SVDMOR / EKS ROMs
    *are* dense — that is the paper's point).

    ``C``/``G``/``B``/``L`` stay ``ndarray``s, so the analyses see the
    same types as before.  ``projection`` is the optional ``n x q`` basis
    ``V`` (``x ~= V z``), ``const_input`` the reduced constant source
    term, ``reusable`` whether the ROM stays valid under new input
    waveforms (False for EKS-style input-dependent ROMs).
    """

    _extras = ("const_input",)

    def __init__(self, C, G, B, L, projection=None, method: str = "projection",
                 s0: complex = 0.0, n_moments: int = 0, reusable: bool = True,
                 original_size: int = 0, original_ports: int = 0,
                 name: str = "rom", const_input=None) -> None:
        block = ROMBlock(0, C, G, B, L, basis=projection)
        super().__init__([block], n_ports=block.B.shape[1],
                         n_outputs=block.L.shape[0], method=method, s0=s0,
                         n_moments=n_moments, reusable=reusable,
                         original_size=original_size,
                         original_ports=original_ports, name=name)
        self.const_input = const_input

    @property
    def projection(self):
        """The projection basis ``V`` (``None`` when not kept)."""
        return self.blocks[0].basis

    @projection.setter
    def projection(self, basis) -> None:
        self.blocks[0].basis = basis


@dataclass
class ReductionSummary:
    """One row of the Table I / Table II style reports.

    ``status`` is ``"ok"`` for a completed reduction and ``"break down"``
    when the method exceeded its resource budget, mirroring the wording of
    the paper's Table II.
    """

    method: str
    benchmark: str
    original_size: int
    original_ports: int
    rom_size: int | None
    rom_nnz: int | None
    matched_moments: int | None
    reusable: bool
    mor_seconds: float | None = None
    ortho_inner_products: int | None = None
    status: str = "ok"
    notes: str = ""
    extra: dict = field(default_factory=dict)

    @classmethod
    def break_down(cls, method: str, benchmark: str, original_size: int,
                   original_ports: int, reason: str) -> "ReductionSummary":
        """Record for a method that exceeded its resource budget."""
        return cls(
            method=method, benchmark=benchmark,
            original_size=original_size, original_ports=original_ports,
            rom_size=None, rom_nnz=None, matched_moments=None,
            reusable=True, mor_seconds=None, status="break down",
            notes=reason)

    def as_row(self) -> dict[str, object]:
        """Flatten into a plain dict for the table writer."""
        return {
            "method": self.method,
            "benchmark": self.benchmark,
            "nodes": self.original_size,
            "ports": self.original_ports,
            "MOR time (s)": (None if self.mor_seconds is None
                             else round(self.mor_seconds, 3)),
            "ROM size": self.rom_size,
            "ROM nnz": self.rom_nnz,
            "moments": self.matched_moments,
            "reusable": "yes" if self.reusable else "no",
            "status": self.status,
        }
