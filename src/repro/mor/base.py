"""Common containers shared by every reducer in the library.

Four pieces live here:

:class:`ReducedSystem`
    A dense reduced descriptor model with the same interface as the full
    :class:`~repro.circuit.mna.DescriptorSystem`, so frequency and transient
    analyses run unchanged on it.

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

Expansion-point helpers
    :func:`expansion_points_checked`, :func:`real_columns_per_input` and
    :func:`expansion_point_options` — the argument check, dense-budget
    column bound and store-key record the Krylov reducers (BDSM, PRIMA)
    share, whatever the number of expansion points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ReductionError, ResourceBudgetExceeded
from repro.linalg.orthogonalization import OrthoStats
from repro.linalg.recycle import DEFAULT_RECYCLE_TOL
from repro.linalg.sparse_utils import estimate_dense_bytes, nnz_density

__all__ = [
    "ReducedSystem",
    "ReductionSummary",
    "ResourceBudget",
    "expansion_point_options",
    "expansion_points_checked",
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


@dataclass
class ReducedSystem:
    """Dense reduced-order descriptor model ``C_r dz/dt = G_r z + B_r u``.

    The matrices are stored dense (PRIMA / SVDMOR / EKS ROMs *are* dense —
    that is the paper's point) but the interface mirrors
    :class:`~repro.circuit.mna.DescriptorSystem` so analyses are agnostic.

    Attributes
    ----------
    C, G, B, L:
        Reduced matrices (numpy arrays).
    projection:
        Optional ``n x q`` projection basis ``V`` (for state reconstruction
        ``x ~= V z``); omitted when memory matters.
    method:
        Name of the reduction algorithm.
    s0:
        Expansion point used.
    n_moments:
        Moments matched (per column / per block, as defined by the method).
    reusable:
        Whether the ROM remains valid under arbitrary new input waveforms
        (False for EKS-style input-dependent ROMs).
    original_size, original_ports:
        Dimensions of the model that was reduced.
    name:
        Label used in reports.
    """

    C: np.ndarray
    G: np.ndarray
    B: np.ndarray
    L: np.ndarray
    projection: np.ndarray | None = None
    method: str = "projection"
    s0: complex = 0.0
    n_moments: int = 0
    reusable: bool = True
    original_size: int = 0
    original_ports: int = 0
    name: str = "rom"
    const_input: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.C = self._dense(self.C)
        self.G = self._dense(self.G)
        self.B = self._dense(self.B)
        self.L = self._dense(self.L)
        q = self.C.shape[0]
        if self.C.shape != (q, q) or self.G.shape != (q, q):
            raise ReductionError("reduced C and G must be square and equal")
        if self.B.shape[0] != q or self.L.shape[1] != q:
            raise ReductionError("reduced B/L dimensions are inconsistent")
        # Lazy complex casts reused by every transfer evaluation (a sweep
        # calls transfer_function once per frequency point; re-casting B
        # each time re-densified the whole input block per point).
        self._B_complex: np.ndarray | None = None

    @staticmethod
    def _dense(matrix) -> np.ndarray:
        """Densify preserving complexness (int inputs still become float).

        The sparse branch always preserved the stored dtype; the ndarray
        branch used to coerce to ``float`` unconditionally, silently
        dropping the imaginary part of complex reduced pencils (e.g. a
        ROM built around a complex expansion point without the real-split
        trick).
        """
        if sp.issparse(matrix):
            return matrix.toarray()
        arr = np.asarray(matrix)
        if np.iscomplexobj(arr):
            return arr.astype(complex, copy=False)
        return arr.astype(float, copy=False)

    @property
    def B_complex(self) -> np.ndarray:
        """The input matrix pre-cast to complex (cached per ROM)."""
        if self._B_complex is None:
            self._B_complex = self.B.astype(complex)
        return self._B_complex

    # ------------------------------------------------------------------ #
    # DescriptorSystem-compatible interface
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Reduced order ``q``."""
        return int(self.C.shape[0])

    @property
    def n_ports(self) -> int:
        """Number of input ports ``m``."""
        return int(self.B.shape[1])

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p``."""
        return int(self.L.shape[0])

    @property
    def nnz(self) -> int:
        """Number of (numerically) non-zero stored entries in C, G and B."""
        return int(np.count_nonzero(self.C) + np.count_nonzero(self.G)
                   + np.count_nonzero(self.B))

    def density(self) -> dict[str, float]:
        """Per-matrix non-zero density (Fig. 4 style report)."""
        return {
            "C": nnz_density(self.C),
            "G": nnz_density(self.G),
            "B": nnz_density(self.B),
            "L": nnz_density(self.L),
        }

    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate ``H_r(s) = L_r (s C_r - G_r)^{-1} B_r`` densely."""
        pencil = s * self.C - self.G
        try:
            X = np.linalg.solve(pencil, self.B_complex)
        except np.linalg.LinAlgError as exc:
            raise ReductionError(
                f"reduced pencil is singular at s={s}: {exc}") from exc
        return self.L @ X

    def transfer_entry(self, s: complex, output: int, port: int) -> complex:
        """Evaluate one entry of the reduced transfer matrix."""
        pencil = s * self.C - self.G
        x = np.linalg.solve(pencil, self.B_complex[:, port])
        return complex(self.L[output, :] @ x)

    def reconstruct_state(self, z: np.ndarray) -> np.ndarray:
        """Lift a reduced state back to the original coordinates (``x ~= V z``)."""
        if self.projection is None:
            raise ReductionError(
                "this ROM was built without storing the projection basis")
        return self.projection @ np.asarray(z, dtype=float)

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
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReducedSystem(method={self.method!r}, q={self.size}, "
                f"m={self.n_ports}, p={self.n_outputs}, nnz={self.nnz})")


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
