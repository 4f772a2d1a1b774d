"""Golden-regression harness: the analyses must reproduce stored outputs.

Two deterministic seed grids — a pure-RC mesh (symmetric SPD pencil) and the
RLC ``ckt1`` smoke benchmark (unsymmetric pencil) — are pushed through the
three analyses the paper's application section cares about:

* static IR-drop node voltages (a DC solve),
* BDSM ROM poles (generalized eigenvalues of the reduced block pencils),
* transfer-function samples over a log-spaced frequency band.

The reference values live in ``tests/golden/data/<grid>.json`` and are
(re)generated by running

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

The library's one solver policy must reproduce the goldens to tight
tolerance, which pins down both the numerics of the solvers and any
accidental behaviour change in the MOR/analysis stack.

Setting ``REPRO_GOLDEN_JOBS=N`` (the CI matrix exercises ``2``) routes all
frequency sweeps through a parallel
:class:`~repro.analysis.engine.SweepEngine` with ``N`` workers; the stored
goldens must still be reproduced, which pins the parallel sweep path
bit-identical to the serial one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro import (
    FrequencyAnalysis,
    SweepEngine,
    bdsm_reduce,
    ir_drop_analysis,
    make_benchmark,
)
from repro.circuit import PowerGridSpec, assemble_mna, build_power_grid

GOLDEN_DIR = Path(__file__).parent / "data"

#: Label the stored reference values carry: they were generated with
#: SuperLU forced for every solve; ``--update-golden`` keeps the label.
REFERENCE_BACKEND = "splu"

#: Moments matched by the BDSM ROM whose poles are pinned.
N_MOMENTS = 3

#: Relative tolerances per golden quantity (scaled by the golden magnitude).
RTOL = {"dc_voltages": 1e-6, "rom_poles": 1e-5, "tf_samples": 1e-6}

#: Sweep workers (CI matrix sets 2 to pin the parallel path to the goldens).
GOLDEN_JOBS = int(os.environ.get("REPRO_GOLDEN_JOBS", "1"))


def _sweep_engine() -> SweepEngine | None:
    return SweepEngine(jobs=GOLDEN_JOBS) if GOLDEN_JOBS != 1 else None


def _rc_mesh():
    spec = PowerGridSpec(rows=6, cols=6, n_ports=6, n_pads=4,
                         package_inductance=0.0, seed=7,
                         name="rc-mesh-6x6")
    return assemble_mna(build_power_grid(spec))


GRIDS = {
    "rc-mesh-6x6": _rc_mesh,
    "ckt1-smoke": lambda: make_benchmark("ckt1", scale="smoke"),
}

#: One row per grid: the library's solver policy (there is no other).
CASES = [(grid, "auto") for grid in GRIDS]


def _rom_poles(system) -> np.ndarray:
    """Spectrum summary of the BDSM ROM's block pencils.

    The generalized eigenvalues are collected over all blocks; their real
    and imaginary parts are then sorted *independently* and re-paired.  A
    lexicographic sort of the complex values would be fragile — conjugate
    pairs whose real parts agree to roundoff can swap order between
    solvers — while each sorted 1-D array is stable under tiny jitter, so
    this pins the spectrum without pinning an arbitrary ordering.
    """
    rom, _, _ = bdsm_reduce(system, N_MOMENTS)
    poles = []
    for block in rom.blocks:
        vals = scipy.linalg.eig(block.G, block.C, right=False)
        poles.extend(np.asarray(vals))
    poles = np.asarray(poles, dtype=complex)
    return np.sort(poles.real) + 1j * np.sort(poles.imag)


def compute_observables(system) -> dict[str, np.ndarray]:
    """The golden quantities of one grid."""
    m = system.B.shape[1]
    loads = np.linspace(1e-3, 2e-3, m)
    dc = ir_drop_analysis(system, loads).voltages
    poles = _rom_poles(system)
    sweep = FrequencyAnalysis(omega_min=1e5, omega_max=1e10, n_points=7,
                              engine=_sweep_engine())
    tf = sweep.sweep_entry(system, output=0, port=1).values
    return {"dc_voltages": np.asarray(dc, dtype=float),
            "rom_poles": poles,
            "tf_samples": np.asarray(tf, dtype=complex)}


def _to_json(values: dict[str, np.ndarray]) -> dict:
    out: dict[str, object] = {}
    for key, arr in values.items():
        if np.iscomplexobj(arr):
            out[key] = {"real": arr.real.tolist(), "imag": arr.imag.tolist()}
        else:
            out[key] = arr.tolist()
    return out


def _from_json(payload: dict) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out[key] = (np.asarray(value["real"])
                        + 1j * np.asarray(value["imag"]))
        else:
            out[key] = np.asarray(value, dtype=float)
    return out


def golden_path(grid: str) -> Path:
    return GOLDEN_DIR / f"{grid}.json"


@pytest.fixture(scope="module")
def systems():
    return {name: build() for name, build in GRIDS.items()}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_update_golden(grid, systems, update_golden):
    """Regenerate the stored reference values (only with --update-golden)."""
    if not update_golden:
        pytest.skip("golden update not requested")
    values = compute_observables(systems[grid])
    GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {"grid": grid, "reference_backend": REFERENCE_BACKEND,
               "n_moments": N_MOMENTS, **_to_json(values)}
    golden_path(grid).write_text(json.dumps(payload, indent=2) + "\n")
    assert golden_path(grid).exists()


@pytest.mark.parametrize("grid,backend", CASES,
                         ids=[f"{g}-{b}" for g, b in CASES])
def test_backend_reproduces_golden(grid, backend, systems):
    """The solver policy must match the stored reference outputs."""
    path = golden_path(grid)
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run "
                    "pytest tests/golden --update-golden")
    stored = _from_json({k: v for k, v in
                         json.loads(path.read_text()).items()
                         if k in RTOL})
    actual = compute_observables(systems[grid])
    for key, golden in stored.items():
        got = actual[key]
        assert got.shape == golden.shape, key
        scale = float(np.max(np.abs(golden))) or 1.0
        rtol = RTOL[key]
        assert np.allclose(got, golden, rtol=rtol, atol=rtol * scale), (
            f"{grid}/{backend}: {key} deviates from golden by "
            f"{np.max(np.abs(got - golden)):.3e} "
            f"(allowed {rtol * scale:.3e})")


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_parallel_sweep_bit_identical_to_serial(grid, systems):
    """A ``--jobs 2`` sweep must reproduce the serial sweep bit-for-bit.

    This is the in-tree counterpart of the CI matrix entry that reruns the
    whole golden harness under ``REPRO_GOLDEN_JOBS=2``: chunking is
    deterministic and each worker runs the serial per-point kernel, so not
    a single ULP may differ.
    """
    system = systems[grid]
    serial = FrequencyAnalysis(omega_min=1e5, omega_max=1e10, n_points=7)
    parallel = FrequencyAnalysis(omega_min=1e5, omega_max=1e10, n_points=7,
                                 engine=SweepEngine(jobs=2))
    assert np.array_equal(
        serial.sweep_entry(system, output=0, port=1).values,
        parallel.sweep_entry(system, output=0, port=1).values)
    assert np.array_equal(serial.sweep(system).values,
                          parallel.sweep(system).values)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_stored_rom_reproduces_pole_goldens(grid, systems, tmp_path):
    """A ROM round-tripped through the artifact store must still pin the
    golden BDSM pole spectrum — and match the in-memory ROM bit-for-bit.

    This is the persistence counterpart of the golden rows above: the
    store may not perturb a single ULP of the model, so the reloaded ROM's
    observables are *identical* to the in-memory ones, which in turn match
    the stored goldens.
    """
    from repro.store import ModelStore

    path = golden_path(grid)
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run "
                    "pytest tests/golden --update-golden")
    system = systems[grid]
    rom, _, _ = bdsm_reduce(system, N_MOMENTS)

    store = ModelStore(tmp_path / "store")
    key = store.key_for(system, "BDSM", {"n_moments": N_MOMENTS})
    store.put(key, rom, method="BDSM")
    loaded = store.load(key)

    def poles_of(model) -> np.ndarray:
        vals = []
        for block in model.blocks:
            vals.extend(np.asarray(
                scipy.linalg.eig(block.G, block.C, right=False)))
        vals = np.asarray(vals, dtype=complex)
        return np.sort(vals.real) + 1j * np.sort(vals.imag)

    in_memory = poles_of(rom)
    reloaded = poles_of(loaded)
    assert np.array_equal(in_memory, reloaded), (
        "store round-trip perturbed the ROM spectrum")

    stored = _from_json({k: v for k, v in
                         json.loads(path.read_text()).items()
                         if k in RTOL})
    golden = stored["rom_poles"]
    scale = float(np.max(np.abs(golden))) or 1.0
    rtol = RTOL["rom_poles"]
    assert np.allclose(reloaded, golden, rtol=rtol, atol=rtol * scale), (
        f"{grid}: reloaded ROM poles deviate from golden by "
        f"{np.max(np.abs(reloaded - golden)):.3e}")


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_partitioned_reduce_matches_goldens(grid, systems):
    """A k=2 partitioned reduce must pin the existing DC/TF goldens.

    The partitioned macromodel is a different approximation than the
    monolithic BDSM ROM (richer shard spaces, exactly-preserved interface
    states), so its poles are not comparable — but its DC solve and its
    transfer-function samples must track the *full-model* goldens tightly,
    which pins the subdomain extraction and the interface coupling
    assembly: any sign slip or dropped coupling block shows up here as a
    large TF deviation long before it would trip an accuracy test.
    """
    from repro.partition import partitioned_reduce

    path = golden_path(grid)
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run "
                    "pytest tests/golden --update-golden")
    stored = _from_json({k: v for k, v in
                         json.loads(path.read_text()).items()
                         if k in RTOL})
    system = systems[grid]
    rom, _, _ = partitioned_reduce(system, N_MOMENTS, n_parts=2)

    # DC IR-drop voltages: moment 0 at s0=0 is matched exactly, so the
    # macromodel must reproduce the stored DC solve to golden tolerance.
    m = system.B.shape[1]
    loads = np.linspace(1e-3, 2e-3, m)
    dc = ir_drop_analysis(rom, loads).voltages
    golden_dc = stored["dc_voltages"]
    scale = float(np.max(np.abs(golden_dc))) or 1.0
    rtol = RTOL["dc_voltages"]
    assert np.allclose(dc, golden_dc, rtol=rtol, atol=rtol * scale), (
        f"{grid}: partitioned DC voltages deviate from golden by "
        f"{np.max(np.abs(dc - golden_dc)):.3e}")

    # Transfer samples over the golden band.
    sweep = FrequencyAnalysis(omega_min=1e5, omega_max=1e10, n_points=7,
                              engine=_sweep_engine())
    tf = sweep.sweep_entry(rom, output=0, port=1).values
    golden_tf = stored["tf_samples"]
    scale = float(np.max(np.abs(golden_tf))) or 1.0
    rtol = RTOL["tf_samples"]
    assert np.allclose(tf, golden_tf, rtol=rtol, atol=rtol * scale), (
        f"{grid}: partitioned TF samples deviate from golden by "
        f"{np.max(np.abs(tf - golden_tf)):.3e}")


@pytest.mark.parametrize("variant", ["interface-reduced", "two-level"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_interface_reduced_multilevel_matches_goldens(grid, variant,
                                                      systems):
    """Interface-reduced and 2-level reduces must pin the same goldens.

    The reduced separator basis and the recursive hierarchy are *extra*
    approximation stages on top of the k=2 partitioned reduce pinned
    above; on the golden grids their measured deviation from the stored
    DC/TF references is ~1e-13 (the shard + interface spans are
    numerically complete at this size), so passing at golden tolerance
    pins the whole interface-compression and recursion chain: any sign
    slip in ``W``-projected couplings or a mis-assembled child pencil
    shows up as a many-orders-of-magnitude jump."""
    from repro.partition import (
        PartitionedOptions,
        multilevel_reduce,
        partitioned_reduce,
    )

    path = golden_path(grid)
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run "
                    "pytest tests/golden --update-golden")
    stored = _from_json({k: v for k, v in
                         json.loads(path.read_text()).items()
                         if k in RTOL})
    system = systems[grid]
    interface = PartitionedOptions(interface_order=N_MOMENTS,
                                   interface_tol=1e-8)
    if variant == "interface-reduced":
        rom, _, _ = partitioned_reduce(
            system, N_MOMENTS, n_parts=2, interface=interface)
        assert rom.is_interface_reduced
    else:
        rom, _, _ = multilevel_reduce(
            system, N_MOMENTS, levels=2, n_parts=2, interface=interface,
            min_states=16)
        assert rom.partition_info["levels"] == 2

    m = system.B.shape[1]
    loads = np.linspace(1e-3, 2e-3, m)
    dc = ir_drop_analysis(rom, loads).voltages
    golden_dc = stored["dc_voltages"]
    scale = float(np.max(np.abs(golden_dc))) or 1.0
    rtol = RTOL["dc_voltages"]
    assert np.allclose(dc, golden_dc, rtol=rtol, atol=rtol * scale), (
        f"{grid}/{variant}: DC voltages deviate from golden by "
        f"{np.max(np.abs(dc - golden_dc)):.3e}")

    sweep = FrequencyAnalysis(omega_min=1e5, omega_max=1e10, n_points=7,
                              engine=_sweep_engine())
    tf = sweep.sweep_entry(rom, output=0, port=1).values
    golden_tf = stored["tf_samples"]
    scale = float(np.max(np.abs(golden_tf))) or 1.0
    rtol = RTOL["tf_samples"]
    assert np.allclose(tf, golden_tf, rtol=rtol, atol=rtol * scale), (
        f"{grid}/{variant}: TF samples deviate from golden by "
        f"{np.max(np.abs(tf - golden_tf)):.3e}")


def test_goldens_match_reference_backend_exactly(systems):
    """The solver policy must reproduce the goldens bit-tightly.

    Guards against accidental regeneration drift: if this fails while the
    golden rows pass, the seed grids or the analyses changed and the
    goldens need a reviewed ``--update-golden`` run.
    """
    for grid, system in systems.items():
        path = golden_path(grid)
        if not path.exists():
            pytest.fail(f"golden file {path} missing; run "
                        "pytest tests/golden --update-golden")
        stored = _from_json({k: v for k, v in
                             json.loads(path.read_text()).items()
                             if k in RTOL})
        actual = compute_observables(system)
        for key, golden in stored.items():
            scale = float(np.max(np.abs(golden))) or 1.0
            assert np.allclose(actual[key], golden, rtol=1e-9,
                               atol=1e-9 * scale), (grid, key)
