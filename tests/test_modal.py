"""Tests for the modal (pole–residue) form every border-free ROM is served
from: accuracy against direct solves, the LAPACK kernel each pencil class
takes (``sygvd`` for symmetric-definite RC pencils, ``dgeev`` otherwise),
the guarded fallback, poles, the span attributes of the build, the
artifact round trip (schema 3, and schema 2 built lazily) and the lazy
build under threads."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro import (
    BlockDiagonalROM,
    ReducedSystem,
    SweepEngine,
    bdsm_reduce,
    load_artifact,
    make_benchmark,
    make_multidomain_spec,
    multipoint_bdsm_reduce,
    partitioned_reduce,
    prima_reduce,
    save_artifact,
)
from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid
from repro.exceptions import ReductionError
from repro.mor.modal import MODAL_SYM_TOL, MODAL_TOL, modal_block
from repro.obs import disable_tracing, drain_spans, enable_tracing
from repro.obs.health import collect_health
from repro.obs.metrics import default_metrics
from repro.partition import PartitionedOptions, multilevel_reduce
from repro.store import artifact_meta

#: Points of the accuracy check: 16 log-spaced in [1e5, 1e9] rad/s.
POINTS = 1j * np.logspace(5, 9, 16)

#: ckt1-smoke BDSM ROM (2 moments) written as a schema-2 artifact.
SCHEMA2_FIXTURE = Path(__file__).parent / "data" / "ckt1-smoke-bdsm-schema2.npz"


def _rc_mesh():
    return assemble_mna(build_power_grid(PowerGridSpec(
        rows=6, cols=6, n_ports=6, n_pads=4, package_inductance=0.0,
        seed=7, name="rc-mesh-6x6")))


def _multilevel_densified():
    """The densified two-level macromodel of the smoke
    ``partitioned_multilevel`` grid (24x24 multi-domain, 12 ports)."""
    system = assemble_mna(build_power_grid(make_multidomain_spec(
        24, 24, 12, seed=3, name="multidomain-24x24-12")))
    return multilevel_reduce(
        system, 3, levels=2, n_parts=4,
        interface=PartitionedOptions(interface_order=3,
                                     interface_tol=1e-4),
    )[0].to_reduced_system()


def _complex_l(rom):
    """A real pencil observed through a complex output matrix."""
    L = np.asarray(rom.L)
    return ReducedSystem(C=rom.C, G=rom.G, B=rom.B,
                         L=(1.0 - 2.0j) * L + 0.5j * L[::-1])


def _roms():
    ckt2 = make_benchmark("ckt2", scale="smoke")
    ckt3 = make_benchmark("ckt3", scale="smoke")
    prima = prima_reduce(ckt2, 3)[0]
    return {
        "bdsm": lambda: bdsm_reduce(ckt2, 3)[0],
        "prima": lambda: prima,
        "multipoint": lambda: multipoint_bdsm_reduce(
            ckt3, 2, [0.0, 1e9], recycle=True)[0],
        "partitioned-densified": lambda: partitioned_reduce(
            ckt2, 3, n_parts=3)[0].to_reduced_system(),
        "complex-L": lambda: _complex_l(prima),
        "rc-bdsm": lambda: bdsm_reduce(_rc_mesh(), 3)[0],
        "rc-prima": lambda: prima_reduce(_rc_mesh(), 3)[0],
        "rc-multilevel-densified": _multilevel_densified,
    }


#: ROMs of RC grids: congruence projections, so symmetric-definite.
RC_KINDS = ("rc-bdsm", "rc-prima", "rc-multilevel-densified")

#: ROMs of the RLC ckt2-smoke grid, whose reduced ``G`` is unsymmetric.
RLC_KINDS = ("bdsm", "prima")


def _kernels(rom) -> list[str]:
    return [modal_block(b.C, b.G, b.B, b.L)[3] for b in rom.blocks]


def _fallbacks(reason: str | None = None) -> float:
    """Modal fallbacks counted so far, for one ``reason`` or all."""
    return sum(c["value"] for c in default_metrics().snapshot()["counters"]
               if c["name"] == "rom.modal_fallback"
               and reason in (None, c["labels"].get("reason")))


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("kind", list(_roms()))
def test_modal_matches_direct(kind):
    rom = _roms()[kind]()
    assert rom._modal_form() is not None, "the form fell back"
    modal = np.stack([rom.transfer_function(s) for s in POINTS])
    direct = np.stack([rom._respond(s, None, None) for s in POINTS])
    assert _relative_error(modal, direct) <= MODAL_TOL
    for s, H in zip(POINTS[::5], modal[::5]):
        assert rom.transfer_entry(s, 0, rom.n_ports - 1) == pytest.approx(
            H[0, -1], rel=1e-12)


@pytest.mark.parametrize("kind", RC_KINDS)
def test_rc_roms_take_sygvd_with_real_poles(kind):
    rom = _roms()[kind]()
    assert set(_kernels(rom)) == {"sygvd"}
    poles, offset = rom.poles(), 0
    assert np.all(poles.imag == 0.0)
    for block in rom.blocks:
        ours = poles[offset:offset + block.order].real
        offset += block.order
        reference = -1.0 / scipy.linalg.eigh(block.C, -block.G,
                                             eigvals_only=True)
        assert np.all(np.abs(np.sort(ours) - np.sort(reference))
                      <= 1e-10 * np.abs(np.sort(reference)))
    assert offset == poles.size == rom.size


@pytest.mark.parametrize("kind", RLC_KINDS)
def test_rlc_roms_keep_dgeev(kind):
    assert set(_kernels(_roms()[kind]())) == {"dgeev"}


def _definite_pencil():
    """A symmetric pencil with ``C`` and ``-G`` positive definite."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5))
    return (np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
            -(A @ A.T + 5.0 * np.eye(5)), rng.standard_normal((5, 2)),
            rng.standard_normal((3, 5)))


class TestKernelChoice:
    @pytest.mark.parametrize("factor,kernel",
                             [(0.5, "sygvd"), (2.0, "dgeev")])
    def test_symmetry_tolerance(self, factor, kernel):
        C, G, B, L = _definite_pencil()
        G[0, 1] += factor * MODAL_SYM_TOL * np.max(np.abs(G))
        assert modal_block(C, G, B, L)[3] == kernel
        rom = ReducedSystem(C=C, G=G, B=B, L=L)
        assert rom._modal_form() is not None
        assert _relative_error(rom.transfer_function(2j),
                               rom._respond(2j, None, None)) <= MODAL_TOL

    def test_indefinite_g_falls_through_to_dgeev(self):
        C, G, B, L = _definite_pencil()
        G[4, 4] += 2.0 * np.max(np.linalg.eigvalsh(-G))
        assert np.min(np.linalg.eigvalsh(-G)) < 0.0
        assert modal_block(C, G, B, L)[3] == "dgeev"
        before = _fallbacks()
        rom = ReducedSystem(C=C, G=G, B=B, L=L)
        assert rom._modal_form() is not None
        assert _fallbacks() == before
        assert _relative_error(rom.transfer_function(2j),
                               rom._respond(2j, None, None)) <= MODAL_TOL


@pytest.fixture()
def tracing():
    drain_spans()
    enable_tracing()
    yield
    disable_tracing()
    drain_spans()


@pytest.mark.parametrize("kind,kernel", [("rc-prima", "sygvd"),
                                         ("bdsm", "dgeev")])
def test_build_span_records_kernels_and_stability(tracing, kind, kernel):
    rom = _roms()[kind]()
    drain_spans()
    assert rom._modal_form() is not None
    (span,) = [s for s in drain_spans() if s.name == "rom.modal_build"]
    assert {k: span.tags[f"{k}_blocks"]
            for k in ("sygvd", "dgeev", "zgeev")} == {
        "sygvd": rom.n_blocks if kernel == "sygvd" else 0,
        "dgeev": rom.n_blocks if kernel == "dgeev" else 0,
        "zgeev": 0}
    poles = rom.poles()
    assert span.tags["max_pole_real"] == np.max(
        poles[np.isfinite(poles)].real)
    assert span.tags["max_pole_real"] < 0.0


def test_complex_pencil_uses_the_complex_path():
    rom = ReducedSystem(C=np.diag([1.0 + 0.5j, 2.0 - 0.25j]),
                        G=-np.eye(2) + 0.125j * np.eye(2),
                        B=np.array([[1.0 + 1.0j], [0.0]]),
                        L=np.array([[1.0, 1.0 - 2.0j]]))
    assert rom._modal_form() is not None
    for s in POINTS:
        assert _relative_error(rom.transfer_function(s),
                               rom._respond(s, None, None)) <= MODAL_TOL


class TestFallback:
    def test_defective_pencil_keeps_direct_solves(self):
        # G^{-1} C is one 2x2 Jordan block: no eigenvector basis.
        rom = ReducedSystem(C=np.array([[1.0, 1.0], [0.0, 1.0]]),
                            G=-np.eye(2), B=np.ones((2, 1)),
                            L=np.ones((1, 2)))
        before = _fallbacks("defective")
        with collect_health() as report:
            H = rom.transfer_function(1j)
        assert rom._modal_form() is None
        assert _fallbacks("defective") == before + 1
        assert [(c.monitor, c.status) for c in report.checks] == [
            ("rom.modal_fallback", "warn")]
        pencil = 1j * rom.C - rom.G
        assert np.allclose(H, rom.L @ np.linalg.solve(pencil, rom.B))
        with pytest.raises(ReductionError, match="no modal form"):
            rom.poles()

    def test_singular_g_keeps_direct_solves(self):
        rom = ReducedSystem(C=np.eye(2), G=np.diag([0.0, -1.0]),
                            B=np.ones((2, 1)), L=np.ones((1, 2)))
        before = _fallbacks("singular_G")
        H = rom.transfer_function(2j)
        assert _fallbacks("singular_G") == before + 1
        assert H[0, 0] == pytest.approx(1.0 / 2j + 1.0 / (2j + 1.0))
        # The direct solve still raises the typed error where the pencil
        # itself is singular.
        with pytest.raises(ReductionError, match="singular"):
            rom.transfer_function(0.0)

    def test_singular_pencil_raises_typed_errors(self):
        rom = ReducedSystem(C=np.zeros((2, 2)), G=np.zeros((2, 2)),
                            B=np.ones((2, 1)), L=np.ones((1, 2)))
        with pytest.raises(ReductionError):
            rom.transfer_entry(1j, 0, 0)
        with pytest.raises(ReductionError):
            rom.transfer_function(1j)
        assert rom._modal_form() is None

    def test_pole_hit_exactly_raises(self):
        rom = ReducedSystem(C=np.eye(1), G=-np.eye(1), B=np.ones((1, 1)),
                            L=np.ones((1, 1)))
        assert rom._modal_form() is not None
        with pytest.raises(ReductionError, match="singular"):
            rom.transfer_function(-1.0)

    def test_bordered_rom_is_served_directly(self):
        rom = partitioned_reduce(make_benchmark("ckt1", scale="smoke"), 2,
                                 n_parts=2)[0]
        assert rom._modal_form() is None
        with pytest.raises(ReductionError, match="border"):
            rom.poles()


@pytest.mark.parametrize("grid", ["rc-mesh-6x6", "ckt1-smoke"])
def test_poles_match_generalized_eigenvalues(grid):
    system = (_rc_mesh() if grid == "rc-mesh-6x6"
              else make_benchmark("ckt1", scale="smoke"))
    rom = bdsm_reduce(system, 3)[0]
    poles, offset = rom.poles(), 0
    for block in rom.blocks:
        ours = poles[offset:offset + block.order]
        offset += block.order
        reference = scipy.linalg.eig(block.G, block.C, right=False)
        # Every reference pole has its match (order is LAPACK's own).
        gap = np.min(np.abs(ours[:, None] - reference[None, :]), axis=0)
        assert np.all(gap <= 1e-10 * np.abs(reference))
    assert offset == poles.size == rom.size


class TestArtifact:
    def test_schema3_stores_the_form(self, tmp_path):
        rom = prima_reduce(make_benchmark("ckt1", scale="smoke"), 3)[0]
        assert rom._modal is None
        path = save_artifact(rom, tmp_path / "rom.npz")
        assert rom._modal, "saving builds the form"
        meta = artifact_meta(path)
        assert meta["schema"] == 3
        assert {"modal_mu", "modal_LX", "modal_XB"} <= set(meta["shapes"])
        loaded = load_artifact(path)
        assert loaded._modal, "the form is loaded, not rebuilt"
        for s in POINTS:
            assert np.array_equal(loaded.transfer_function(s),
                                  rom.transfer_function(s))

    def test_rc_schema3_round_trips_bit_identical(self, tmp_path):
        rom = bdsm_reduce(_rc_mesh(), 3)[0]
        loaded = load_artifact(save_artifact(rom, tmp_path / "rom.npz"))
        assert set(_kernels(rom)) == {"sygvd"}
        assert len(loaded._modal) == len(rom._modal) == rom.n_blocks
        for ours, theirs in zip(rom._modal, loaded._modal):
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(loaded.poles(), rom.poles())
        for s in POINTS:
            assert np.array_equal(loaded.transfer_function(s),
                                  rom.transfer_function(s))

    def test_bordered_artifact_has_no_form(self, tmp_path):
        rom = partitioned_reduce(make_benchmark("ckt1", scale="smoke"), 2,
                                 n_parts=2)[0]
        meta = artifact_meta(save_artifact(rom, tmp_path / "rom.npz"))
        assert "modal_mu" not in meta["shapes"]

    def test_schema2_fixture_loads_and_builds_lazily(self):
        assert artifact_meta(SCHEMA2_FIXTURE)["schema"] == 2
        loaded = load_artifact(SCHEMA2_FIXTURE)
        assert loaded._modal is None
        fresh = bdsm_reduce(make_benchmark("ckt1", scale="smoke"), 2)[0]
        for s in POINTS:
            assert _relative_error(loaded.transfer_function(s),
                                   fresh._respond(s, None, None)) <= 1e-10
        assert loaded._modal


def test_lazy_build_under_threads_is_bit_identical():
    """Parallel sweeps of a freshly loaded schema-2 (RLC) ROM build its form
    once and answer exactly what a serial sweep of another copy answers."""
    _check_lazy_build_under_threads(lambda: load_artifact(SCHEMA2_FIXTURE))


def test_lazy_build_under_threads_is_bit_identical_rc():
    """The same for an RC ROM, whose form ``sygvd`` builds: fresh copies of
    one RC BDSM ROM share its blocks but not its form."""
    rom = bdsm_reduce(_rc_mesh(), 3)[0]
    _check_lazy_build_under_threads(
        lambda: BlockDiagonalROM(rom.blocks, n_outputs=rom.n_outputs))


def _check_lazy_build_under_threads(fresh) -> None:
    serial = fresh()
    expected = SweepEngine(jobs=1).sample_matrix(serial, POINTS)

    def builds() -> int:
        return sum(h["count"] for h in default_metrics().snapshot(
            span="rom.modal_build")["histograms"])

    shared = fresh()
    assert shared._modal is None
    before = builds()
    results, errors = [None] * 4, []

    def sweep(k: int) -> None:
        try:
            with SweepEngine(jobs=2) as engine:
                results[k] = engine.sample_matrix(shared, POINTS)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert builds() == before + 1
    for result in results:
        assert np.array_equal(result, expected)
