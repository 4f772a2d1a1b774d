"""Named performance workloads for the ``repro bench`` runner.

Each workload times one hot path of the reduction stack on a registered
synthetic benchmark grid and returns a JSON-ready entry for
:class:`~repro.perf.bench.BenchmarkRunner`.  Each workload records a
*speedup ratio* against a baseline path — the machine-independent quantity
the CI gate enforces:

``ortho_blocked_vs_columnwise``
    The production blocked BLAS-3 kernel head-to-head with the column-wise
    MGS reference on one PRIMA-style global candidate block (``m*l``
    Krylov candidates of the grid), timed as interleaved pairs; the gated
    speedup is the best per-round ratio.  The reducers always run the
    blocked kernel; column-wise MGS survives only here and as the test
    oracle.
``partitioned_scaled``
    Cold interface-reduced multilevel partitioned reduction
    (:func:`~repro.partition.multilevel_reduce` with a reduced separator
    basis) vs. the cold monolithic BDSM reduction, on a *port-dominated*
    multi-domain grid — the regime the partition subsystem targets, where
    the monolithic Krylov/projection cost grows with the full port count
    while every shard only sees its own ports plus a few compressed
    interface injections.  Records the speedup, the macromodel sizes and
    the transfer-function error against its configured budget.  Recorded
    to the main payload *and* merged per scale into
    ``benchmarks/results/partitioned_scaled.json`` (so a ``--quick``
    smoke run never clobbers the committed laptop entry); never gated
    in the main payload — the conformance suite asserts on the committed
    JSON instead.
``serving_load``
    The layered serving stack under deterministic popularity-skewed mixed
    query traffic (:mod:`repro.serve.loadgen`): the same request stream is
    replayed through the naive per-request path and the coalescing
    planner of one warm :class:`~repro.store.ModelServer`, every coalesced
    answer is checked bit-identical to its per-request counterpart, and
    the recorded speedup (the QPS ratio) is **gated** — the coalescing
    planner must stay ≥2x the naive path within the usual tolerance.
    QPS and batch-latency percentiles are merged per scale into
    ``benchmarks/results/serving_load.json``.
``multipoint_recycle``
    Multipoint reduction with cross-shift basis recycling vs. the
    from-scratch build on the same >=3-point shift list.  The **gated**
    quantity is the shifted-solve ratio (scratch solve columns over
    recycled solve columns — deterministic and machine-independent, the
    unit the recycling work is counted in), asserted >= 1.5x inside the
    workload alongside transfer-function parity of the two ROMs; wall
    clocks are recorded for the trajectory.  Merged per scale into
    ``benchmarks/results/multipoint_recycle.json``.
``obs_overhead``
    The observability layer's cost contract on the cold PRIMA reduce:
    tracing-disabled instrumentation overhead (no-op span price x spans
    per run over the untraced reduce time) is asserted <= 3 % inside the
    workload, and the enabled/disabled wall-clock ratio is recorded and
    **gated**.  Merged per scale into
    ``benchmarks/results/obs_overhead.json``.
``health_overhead``
    The numerical-health monitors' cost contract on the cold BDSM
    reduce: the monitors-enabled run is asserted within 5 % of the
    monitors-off run inside the workload, the enabled/disabled ratio is
    recorded and **gated**, and the monitors-on run's health report is
    written to ``benchmarks/results/health_report.json`` (the CI
    perf-smoke artifact).  Merged per scale into
    ``benchmarks/results/health_overhead.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.circuit.benchmarks import BENCHMARKS, make_benchmark
from repro.circuit.mna import assemble_mna
from repro.circuit.powergrid import build_power_grid, make_multidomain_spec
from repro.core.bdsm import bdsm_reduce, multipoint_bdsm_reduce
from repro.exceptions import ValidationError
from repro.linalg.backends import clear_default_cache
from repro.linalg.krylov import ShiftedOperator, krylov_candidate_blocks
from repro.linalg.orthogonalization import (
    block_orthonormalize,
    modified_gram_schmidt,
)
from repro.mor.prima import multipoint_prima_reduce, prima_reduce
from repro.obs.metrics import default_metrics
from repro.obs.tracing import (
    SPAN_SECONDS,
    default_tracer,
    disable_tracing,
    enable_tracing,
    trace_span,
    tracing_enabled,
)
from repro.partition import PartitionedOptions, multilevel_reduce
from repro.perf.bench import BenchmarkRunner
from repro.validation.error_metrics import rom_agreement_report

__all__ = ["WORKLOADS", "run_workloads", "workload_names"]

#: Where the interface-reduced multilevel trajectory is recorded, merged
#: per scale (the acceptance artifact of the interface-reduction PR).
PARTITIONED_SCALED_PATH = Path("benchmarks/results/partitioned_scaled.json")

#: Port-dominated grids of the ``partitioned_scaled`` workload per scale:
#: (rows, cols, n_ports, n_parts, n_moments, levels, interface_order,
#: interface_tol, error_budget).  The port counts are deliberately large —
#: the monolithic Krylov/projection cost is what the partition subsystem
#: amortises, and it scales with ``(ports * moments)^2``.
_SCALED_GRIDS = {
    "smoke": (64, 64, 256, 4, 3, 1, 3, 1e-4, 5e-2),
    "laptop": (256, 256, 3072, 8, 4, 2, 4, 1e-4, 5e-2),
}

#: Where the serving-stack trajectory is recorded, merged per scale (the
#: acceptance artifact of the layered-serving PR).
SERVING_LOAD_PATH = Path("benchmarks/results/serving_load.json")

#: Traffic shape of the ``serving_load`` workload per scale:
#: (n_requests, duplication, transfer_points, sweep_points, clients,
#: batch_size, moments).  Duplication is the popularity-skew assumption
#: the coalescing planner exploits; batch size bounds how many duplicates
#: one plan can see, so the laptop spec pairs heavier skew (12) with
#: larger batches (120) — at that scale per-call overhead is negligible
#: next to the solves and dedup is where the whole win comes from.
_SERVING_SPECS = {
    "smoke": (240, 8.0, 24, 32, 4, 60, 4),
    "laptop": (480, 12.0, 24, 32, 4, 120, 6),
}

#: Least wall-clock of one blocked-kernel sample in
#: ``ortho_blocked_vs_columnwise`` (seconds).
ORTHO_SAMPLE_SECONDS = 2e-2

#: Grid the reduction workloads run on — the paper's ckt2 (Table II), the
#: scale (smoke/laptop) chosen by the caller.
DEFAULT_BENCHMARK = "ckt2"


def _grid(benchmark: str, scale: str):
    system = make_benchmark(benchmark, scale=scale)
    n_moments = BENCHMARKS[benchmark].matched_moments
    return system, n_moments


def _ortho_blocked_vs_columnwise(runner: BenchmarkRunner, benchmark: str,
                                 scale: str) -> dict:
    """Blocked kernel vs column-wise MGS on one global candidate block.

    The two kernels are timed as interleaved blocked/column-wise rounds,
    alternating which runs first, after one untimed warm-up call of each;
    each side keeps its fastest sample and ``speedup`` is their ratio.
    Host noise only ever slows a sample, so the fastest one per side is
    the honest estimate, and interleaving exposes both sides to the same
    host phases; a real kernel regression slows every blocked sample.
    On a 2-vCPU box with BLAS unpinned, twelve repeated runs of this
    estimator spread by 1.06x (max/min) on ckt1-smoke; the best
    per-round ratio of the same rounds spread by 1.43x, more than the
    gate's 20% tolerance, because it picks the round whose column-wise
    sample was slowed most.
    """
    system, n_moments = _grid(benchmark, scale)
    operator = ShiftedOperator(system.C, system.G, s0=0.0)
    candidates = np.hstack(
        krylov_candidate_blocks(operator, system.B, n_moments))
    # One sample runs a kernel ``inner`` times back to back, enough for
    # ORTHO_SAMPLE_SECONDS of the blocked kernel: a single smoke-scale
    # call is ~1 ms, too short to time alone.  The untimed first calls
    # warm both kernels, so no round books a cold start to one side.
    modified_gram_schmidt(candidates)
    inner = max(1, int(np.ceil(ORTHO_SAMPLE_SECONDS / runner.time_callable(
        lambda: block_orthonormalize(candidates), repeats=3))))
    kernels = {
        "blocked": lambda: [block_orthonormalize(candidates)
                            for _ in range(inner)],
        "columnwise": lambda: [modified_gram_schmidt(candidates)
                               for _ in range(inner)]}
    best = {name: np.inf for name in kernels}
    for round_idx in range(max(8, runner.repeats)):
        order = list(kernels) if round_idx % 2 == 0 else list(kernels)[::-1]
        for name in order:
            best[name] = min(best[name], runner.time_callable(
                kernels[name], repeats=1) / inner)
    rank_blocked = block_orthonormalize(candidates)[0].shape[1]
    rank_columnwise = modified_gram_schmidt(candidates)[0].shape[1]
    return {
        "seconds": best["blocked"],
        "baseline_seconds": best["columnwise"],
        "speedup": best["columnwise"] / best["blocked"],
        "gate": True,
        "grid": system.name,
        "n": int(system.size),
        "candidates": int(candidates.shape[1]),
        "rank_blocked": int(rank_blocked),
        "rank_columnwise": int(rank_columnwise),
    }


def _partitioned_scaled(runner: BenchmarkRunner, benchmark: str,
                        scale: str) -> dict:
    """Interface-reduced multilevel vs. monolithic cold reduce, at scale.

    The grid is port-dominated (see ``_SCALED_GRIDS``): the monolithic
    BDSM baseline drags every port through its global Krylov recursion
    and the ``(ports * moments)``-wide congruence projection, while the
    multilevel partitioned reduction gives each shard only its own ports
    plus the compressed interface injections.  One repetition per side —
    the laptop baseline runs for minutes and the recorded quantity is a
    structural multiple, not a timer-noise measurement.
    """
    (rows, cols, n_ports, n_parts, n_moments, levels, interface_order,
     interface_tol, error_budget) = _SCALED_GRIDS.get(
        scale, _SCALED_GRIDS["laptop"])
    spec = make_multidomain_spec(
        rows, cols, n_ports, seed=3,
        name=f"multidomain-scaled-{rows}x{cols}-{scale}")
    system = assemble_mna(build_power_grid(spec))
    interface = PartitionedOptions(interface_order=interface_order,
                                   interface_tol=interface_tol)

    roms: dict[str, object] = {}

    def run_monolithic():
        roms["monolithic"] = bdsm_reduce(system, n_moments)[0]

    def run_multilevel():
        roms["multilevel"] = multilevel_reduce(
            system, n_moments, levels=levels, n_parts=n_parts,
            interface=interface)[0]

    monolithic = runner.time_callable(run_monolithic, repeats=1,
                                      setup=clear_default_cache)
    multilevel = runner.time_callable(run_multilevel, repeats=1,
                                      setup=clear_default_cache)

    mono_rom = roms["monolithic"]
    multi_rom = roms["multilevel"]
    agreement = rom_agreement_report(mono_rom, multi_rom,
                                     np.logspace(5, 9, 7))
    error = float(agreement["max_rel_error"])
    entry = {
        "seconds": multilevel,
        "baseline_seconds": monolithic,
        "speedup": monolithic / multilevel,
        # Machine-dependent wall clock — recorded, never gated here; the
        # partition conformance suite asserts on the committed JSON.
        "gate": False,
        "grid": system.name,
        "n": int(system.size),
        "ports": int(system.n_ports),
        "n_moments": int(n_moments),
        "n_parts": int(n_parts),
        "levels": int(levels),
        "interface_order": int(interface_order),
        "interface_tol": float(interface_tol),
        "partition": multi_rom.partition_info,
        "macromodel_size": int(multi_rom.size),
        "monolithic_size": int(mono_rom.size),
        "max_rel_error_vs_monolithic": error,
        "error_budget": float(error_budget),
        "within_budget": bool(error <= error_budget),
    }
    # Merge by scale: a smoke run updates only its own entry, leaving the
    # committed laptop trajectory untouched.
    _merge_scale(PARTITIONED_SCALED_PATH, scale, entry)
    return entry


def _serving_load(runner: BenchmarkRunner, benchmark: str,
                  scale: str) -> dict:
    """Coalescing planner vs. naive per-request serving, bit-checked.

    Reduces ckt1+ckt2 with BDSM and PRIMA into a temporary store, warms a
    :class:`~repro.store.ModelServer` and replays one deterministic
    popularity-skewed request stream (transfer/sweep/IR-drop mix) through
    both planning modes with concurrent client threads.  Each mode runs
    ``runner.repeats`` drives and the best (lowest-wall-clock) drive is
    recorded; one drive per mode collects results for the bit-identity
    check.  The gated quantity is the QPS ratio — machine-independent to
    first order because both paths run the same engine on the same
    models, so the ratio isolates the planner's dedup/coalescing wins.
    """
    import tempfile

    from repro.serve.loadgen import (
        LoadSpec,
        generate_requests,
        results_equal,
        run_load,
    )
    from repro.store.model_store import ModelStore
    from repro.store.server import ModelServer

    (n_requests, duplication, transfer_points, sweep_points, clients,
     batch_size, moments) = _SERVING_SPECS.get(scale,
                                               _SERVING_SPECS["laptop"])
    spec = LoadSpec(n_requests=n_requests, duplication=duplication,
                    transfer_points=transfer_points,
                    sweep_points=sweep_points)
    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(tmp)
        for name in ("ckt1", "ckt2"):
            system = make_benchmark(name, scale=scale)
            bdsm_reduce(system, moments, store=store)
            prima_reduce(system, moments, store=store)
        with ModelServer(store) as server:
            server.warm()
            models = {name: server.registry.resolve(name)
                      for name in server.registry.known_names()}
            requests = generate_requests(models, spec)
            runs = {}
            for mode, coalesce in (("naive", False), ("coalesced", True)):
                best = None
                for repeat in range(max(1, runner.repeats)):
                    drive = run_load(server, requests, clients=clients,
                                     batch_size=batch_size,
                                     coalesce=coalesce,
                                     collect_results=repeat == 0)
                    if best is None or drive.seconds < best.seconds:
                        best = drive
                    if repeat == 0:
                        runs[mode + "_results"] = drive.results
                runs[mode] = best
            serving = server.serving_stats()
    naive, coalesced = runs["naive"], runs["coalesced"]
    bit_identical = all(
        results_equal(a, b) for a, b in zip(runs["naive_results"],
                                            runs["coalesced_results"]))
    if not bit_identical:
        raise ValidationError(
            "serving_load: coalesced results diverged from the "
            "per-request path")
    return {
        "seconds": coalesced.seconds,
        "baseline_seconds": naive.seconds,
        # The gated, machine-independent quantity: how much faster the
        # coalescing planner answers the same traffic.
        "speedup": naive.seconds / coalesced.seconds,
        "gate": True,
        "n_requests": int(n_requests),
        "duplication": float(duplication),
        "clients": int(clients),
        "batch_size": int(batch_size),
        "bit_identical": True,
        "coalescing_rate": serving.coalescing_rate,
        "naive_qps": naive.qps,
        "coalesced_qps": coalesced.qps,
        "naive_p50_s": naive.p50,
        "naive_p99_s": naive.p99,
        "coalesced_p50_s": coalesced.p50,
        "coalesced_p99_s": coalesced.p99,
    }


def _serving_load_recorded(runner: BenchmarkRunner, benchmark: str,
                           scale: str) -> dict:
    """:func:`_serving_load`, merged per scale into its results JSON."""
    entry = _serving_load(runner, benchmark, scale)
    _merge_scale(SERVING_LOAD_PATH, scale, entry)
    return entry


#: Where the cross-shift recycling trajectory is recorded, merged per
#: scale (the acceptance artifact of the basis-recycling PR).
MULTIPOINT_RECYCLE_PATH = Path("benchmarks/results/multipoint_recycle.json")

#: In-workload floor on the shifted-solve ratio: recycling must cut the
#: solve columns of a >=3-point multipoint reduce by at least this factor.
MULTIPOINT_RECYCLE_FLOOR = 1.5

#: In-workload ceiling on the recycled-vs-scratch transfer-function
#: disagreement over the 1e5-1e9 rad/s band.
MULTIPOINT_RECYCLE_ERROR_BUDGET = 1e-6

#: Shift lists of the ``multipoint_recycle`` workload per scale:
#: (moments_per_point, expansion_points).  The points are clustered —
#: the regime where neighbouring Krylov spaces overlap and recycling
#: pays; >=3 points so the skipped work dominates the mandatory
#: starting-block solves.
_MULTIPOINT_SPECS = {
    "smoke": (3, (1e3, 5e3, 2e4)),
    "laptop": (4, (1e3, 5e3, 2e4, 1e5)),
}


def _multipoint_recycle(runner: BenchmarkRunner, benchmark: str,
                        scale: str) -> dict:
    """Cross-shift basis recycling vs. from-scratch multipoint reduction.

    Runs the multipoint PRIMA reducer over a clustered shift list twice —
    from scratch and with a shared
    :class:`~repro.linalg.recycle.RecycleWorkspace` — and gates on the
    **shifted-solve ratio**: the solve columns the scratch build spends
    over what the recycled build spends.  Solve counts are exact and
    deterministic (every right-hand-side column through the factorised
    pencil is counted), so the gate is machine-independent where wall
    clock is not; both wall clocks are still recorded.  The workload
    asserts the ratio stays >= ``MULTIPOINT_RECYCLE_FLOOR`` and the two
    ROMs agree in transfer function, and records the BDSM-side ratio on
    the same shift list alongside.
    """
    system, _ = _grid(benchmark, scale)
    moments, raw_points = _MULTIPOINT_SPECS.get(scale,
                                                _MULTIPOINT_SPECS["laptop"])
    points = [complex(p) for p in raw_points]
    roms: dict[str, object] = {}

    def run_scratch():
        roms["scratch"] = multipoint_prima_reduce(system, moments, points)[0]

    def run_recycled():
        roms["recycled"] = multipoint_prima_reduce(system, moments, points,
                                                   recycle=True)[0]

    scratch = runner.time_callable(run_scratch, setup=clear_default_cache)
    recycled = runner.time_callable(run_recycled, setup=clear_default_cache)

    scratch_solves = sum(roms["scratch"].solve_counts)
    recycled_solves = sum(roms["recycled"].solve_counts)
    if recycled_solves <= 0:
        raise ValidationError("multipoint_recycle: no solves recorded")
    solve_ratio = scratch_solves / recycled_solves
    agreement = rom_agreement_report(roms["scratch"], roms["recycled"],
                                     np.logspace(5, 9, 7))
    error = float(agreement["max_rel_error"])
    if error > MULTIPOINT_RECYCLE_ERROR_BUDGET:
        raise ValidationError(
            f"multipoint_recycle: recycled ROM diverged from scratch "
            f"(max rel TF error {error:.2e} > "
            f"{MULTIPOINT_RECYCLE_ERROR_BUDGET:.0e})")
    if solve_ratio < MULTIPOINT_RECYCLE_FLOOR:
        raise ValidationError(
            f"multipoint_recycle: solve ratio {solve_ratio:.2f}x below "
            f"the {MULTIPOINT_RECYCLE_FLOOR}x floor "
            f"({scratch_solves} scratch vs {recycled_solves} recycled "
            "solve columns)")
    recycle_stats = roms["recycled"].recycle_stats

    # BDSM-side ratio on the same shift list: counted, not separately
    # timed — solve counts are deterministic, and one extra pair of
    # reduces keeps the workload cheap.
    bdsm_scratch = multipoint_bdsm_reduce(system, moments, points)[0]
    bdsm_recycled = multipoint_bdsm_reduce(system, moments, points,
                                           recycle=True)[0]
    bdsm_ratio = (sum(bdsm_scratch.solve_counts)
                  / max(1, sum(bdsm_recycled.solve_counts)))

    entry = {
        "seconds": recycled,
        "baseline_seconds": scratch,
        # The gated, machine-independent quantity: how many shifted-solve
        # columns recycling saves on the same shift list.
        "speedup": solve_ratio,
        "gate": True,
        "grid": system.name,
        "n": int(system.size),
        "ports": int(system.n_ports),
        "moments_per_point": int(moments),
        "points": [str(p) for p in points],
        "scratch_solves": int(scratch_solves),
        "recycled_solves": int(recycled_solves),
        "wall_speedup": scratch / recycled if recycled > 0 else 0.0,
        "recycle_hits": int(recycle_stats.hits),
        "recycle_screened": int(recycle_stats.screened),
        "solves_skipped": int(recycle_stats.solves_skipped),
        "bdsm_solve_ratio": bdsm_ratio,
        "max_rel_error_vs_scratch": error,
        "error_budget": MULTIPOINT_RECYCLE_ERROR_BUDGET,
        "solve_ratio_floor": MULTIPOINT_RECYCLE_FLOOR,
    }
    _merge_scale(MULTIPOINT_RECYCLE_PATH, scale, entry)
    return entry


#: Where the tracing-overhead gate is recorded, merged per scale (the
#: acceptance artifact of the observability layer).
OBS_OVERHEAD_PATH = Path("benchmarks/results/obs_overhead.json")

#: Hard in-workload budget: fraction of a cold PRIMA reduce the *disabled*
#: tracing instrumentation may cost (the acceptance bar is <= 3%).
OBS_OVERHEAD_BUDGET = 0.03


def _merge_scale(path: Path, scale: str, entry: dict) -> None:
    """Merge ``entry`` under ``scale`` into a per-scale results JSON, so a
    smoke run never clobbers the committed laptop entry."""
    payload = {"schema": 1, "scales": {}}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = {}
        if isinstance(previous.get("scales"), dict):
            payload["scales"].update(previous["scales"])
    payload["scales"][scale] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _obs_overhead(runner: BenchmarkRunner, benchmark: str,
                  scale: str) -> dict:
    """Tracing overhead on the cold PRIMA workload, disabled and enabled.

    Two quantities are recorded:

    * the **disabled-path overhead** — the cost of every ``trace_span``
      call site while tracing is off (an aggregate-only timer feeding
      ``span.seconds``).  It is measured deterministically: a
      microbenchmark prices one disabled span entry/exit, the enabled
      run counts how many spans one cold reduce opens, and the product
      over the untraced reduce time bounds the fraction.  The workload
      *asserts* this stays within ``OBS_OVERHEAD_BUDGET`` (3%) — tracing
      must be near free when off;
    * the **enabled/disabled wall-clock ratio** as the recorded
      ``speedup`` (enabled over disabled, ~1.0), gated against the
      baseline so a regression of the disabled path trips the perf
      check.  The traced and untraced cold reduces are timed as
      interleaved pairs (order alternating per round, as in
      :func:`_health_overhead`) and the ratio is the **best per-round**
      one: host noise at this ~10 ms scale is positive spikes that hit
      one side of a round, while a systematic disabled-path cost lowers
      every round, the best one included.
    """
    system, n_moments = _grid(benchmark, scale)
    was_enabled = tracing_enabled()
    tracer = default_tracer()

    def reduce_cold() -> None:
        prima_reduce(system, n_moments)

    def setup_enabled() -> None:
        clear_default_cache()
        tracer.drain()

    def timed_sample(setup, inner: int = 4) -> float:
        # One cold reduce is too short to time alone: a sample averages
        # ``inner`` of them.
        total = 0.0
        for _ in range(inner):
            setup()
            start = time.perf_counter()
            reduce_cold()
            total += time.perf_counter() - start
        return total / inner

    try:
        # The untimed first traced run warms BLAS and counts the spans.
        enable_tracing()
        setup_enabled()
        reduce_cold()
        spans_per_run = len(tracer.drain())
        ratios = []
        disabled = enabled = float("inf")
        for round_idx in range(max(6, runner.repeats)):
            sample = {}
            for traced in ((False, True) if round_idx % 2 == 0
                           else (True, False)):
                (enable_tracing if traced else disable_tracing)()
                sample[traced] = timed_sample(
                    setup_enabled if traced else clear_default_cache)
            disable_tracing()
            if sample[False] > 0:
                ratios.append(sample[True] / sample[False])
            disabled = min(disabled, sample[False])
            enabled = min(enabled, sample[True])
    finally:
        disable_tracing()
        tracer.drain()

    # Price one disabled trace_span call site (kwargs included — tags are
    # evaluated whether or not tracing is on).
    n_calls = 200_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        with trace_span("obs.noop", backend="x", cache="off"):
            pass
    noop_seconds = (time.perf_counter() - t0) / n_calls

    overhead_fraction = (noop_seconds * spans_per_run / disabled
                         if disabled > 0 else 0.0)
    if overhead_fraction > OBS_OVERHEAD_BUDGET:
        raise ValidationError(
            f"obs_overhead: disabled-tracing overhead "
            f"{overhead_fraction:.2%} exceeds the "
            f"{OBS_OVERHEAD_BUDGET:.0%} budget "
            f"({spans_per_run} spans x {noop_seconds * 1e9:.0f} ns over "
            f"{disabled:.4f} s)")

    entry = {
        "seconds": disabled,
        "baseline_seconds": enabled,
        # Gated ~1.0 ratio: the best paired enabled/disabled ratio.  A
        # drop means either the disabled path got slower or the enabled
        # path got faster than the untraced one — both worth a look.
        "speedup": max(ratios) if ratios else 1.0,
        "gate": True,
        "grid": system.name,
        "n": int(system.size),
        "n_moments": int(n_moments),
        "spans_per_run": int(spans_per_run),
        "noop_span_seconds": noop_seconds,
        "disabled_overhead_fraction": overhead_fraction,
        "overhead_budget": OBS_OVERHEAD_BUDGET,
        "enabled_overhead_fraction": max(0.0, enabled / disabled - 1.0),
    }
    _merge_scale(OBS_OVERHEAD_PATH, scale, entry)
    if was_enabled:
        enable_tracing()
    return entry


#: Where the health-monitor overhead gate is recorded, merged per scale.
HEALTH_OVERHEAD_PATH = Path("benchmarks/results/health_overhead.json")

#: Where the monitors-on reduce's health report is written (the CI
#: perf-smoke job uploads it as a run artifact).
HEALTH_REPORT_PATH = Path("benchmarks/results/health_report.json")

#: Hard in-workload budget: fractional wall-clock cost the *enabled*
#: health monitors may add to a cold BDSM reduce (acceptance bar: 5%).
HEALTH_OVERHEAD_BUDGET = 0.05


def _health_overhead(runner: BenchmarkRunner, benchmark: str,
                     scale: str) -> dict:
    """Health-monitor cost on the cold BDSM workload, off and on.

    The monitors-off reduce and the monitors-on reduce are timed as
    interleaved off/on pairs (order alternating per round) and compared
    by the **best of the per-round on/off ratios**.  On shared CI
    hardware, timing noise at this ~5ms scale is strictly-positive
    spikes (preemption, frequency drops) over a stable floor, so the
    cleanest round is the honest estimate — while a *systematic* monitor
    cost lifts every round, best one included, so a real hot-path
    regression still trips the gate.  The workload *asserts* the enabled
    run stays within ``HEALTH_OVERHEAD_BUDGET`` (5%) of the disabled one
    — the monitors buy orthogonality-loss, solve-residual and
    deflation-rate watchdogs with a capped-subsample Gram probe and a
    1-in-16 residual sample, and this gate is what keeps those caps
    honest.  The enabled/disabled ratio is recorded as the gated
    ``speedup`` (~1.0), and the monitors-on run's
    :class:`~repro.obs.health.HealthReport` is written to
    ``benchmarks/results/health_report.json`` for the CI artifact.
    """
    from repro.obs.health import (
        default_health,
        disable_health_monitors,
        enable_health_monitors,
        health_enabled,
    )

    system, n_moments = _grid(benchmark, scale)
    was_enabled = health_enabled()
    disable_health_monitors()
    monitors = default_health()

    roms: dict[str, object] = {}

    def reduce_cold() -> None:
        roms["last"] = bdsm_reduce(system, n_moments)[0]

    def timed_sample(inner: int = 8) -> float:
        # A smoke-scale reduce is ~5ms — too short to time alone — so
        # one sample aggregates ``inner`` cold reduces.
        total = 0.0
        for _ in range(inner):
            clear_default_cache()
            start = time.perf_counter()
            reduce_cold()
            total += time.perf_counter() - start
        return total / inner

    try:
        # One untimed warmup so BLAS dispatch / allocator state is hot
        # before either side is measured.
        clear_default_cache()
        reduce_cold()
        rounds = max(6, runner.repeats)
        ratios = []
        disabled = enabled = None
        report = None
        for round_idx in range(rounds):
            # Alternate which side goes first: on a thermally throttling
            # or shared CPU the second sample of a pair runs slower, and
            # a fixed order would book that bias entirely to one side.
            if round_idx % 2 == 0:
                disable_health_monitors()
                off_s = timed_sample()
                enable_health_monitors()
                monitors.reset()
                on_s = timed_sample()
                on_report = roms["last"].health
            else:
                enable_health_monitors()
                monitors.reset()
                on_s = timed_sample()
                on_report = roms["last"].health
                disable_health_monitors()
                off_s = timed_sample()
            if off_s > 0:
                ratios.append(on_s / off_s)
            disabled = off_s if disabled is None else min(disabled, off_s)
            if enabled is None or on_s < enabled:
                enabled = on_s
                report = on_report
    finally:
        disable_health_monitors()
        monitors.reset()

    ratio = float(min(ratios)) if ratios else 1.0
    overhead = ratio - 1.0
    if overhead > HEALTH_OVERHEAD_BUDGET:
        raise ValidationError(
            f"health_overhead: monitors-enabled reduce is "
            f"{overhead:.2%} slower than monitors-off, over the "
            f"{HEALTH_OVERHEAD_BUDGET:.0%} budget "
            f"(best of {len(ratios)} paired rounds; best samples "
            f"{enabled:.4f}s vs {disabled:.4f}s, "
            f"{len(report.checks)} checks recorded)")

    by_monitor: dict[str, int] = {}
    for check in report.checks:
        by_monitor[check.monitor] = by_monitor.get(check.monitor, 0) + 1
    HEALTH_REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    HEALTH_REPORT_PATH.write_text(json.dumps({
        "schema": 1,
        "workload": "health_overhead",
        "grid": system.name,
        "scale": scale,
        "n_moments": int(n_moments),
        "checks_by_monitor": by_monitor,
        "report": report.as_dict(),
    }, indent=2, sort_keys=True) + "\n")

    entry = {
        # "baseline" = monitors off, "seconds" = monitors on, matching
        # the speedup direction below (bigger = monitors cheaper).
        "seconds": enabled,
        "baseline_seconds": disabled,
        # Gated ~1.0 ratio: disabled over enabled (inverse of the best
        # paired on/off ratio), so lower = monitors more expensive — the
        # direction check_regressions gates on.  A hot-path regression
        # pushes this below the baseline floor, while downward timing
        # noise only pushes it up (harmlessly past the gate).
        "speedup": 1.0 / ratio if ratio > 0 else 1.0,
        "gate": True,
        "grid": system.name,
        "n": int(system.size),
        "ports": int(system.n_ports),
        "n_moments": int(n_moments),
        "health_status": report.status,
        "health_checks": len(report.checks),
        "checks_by_monitor": by_monitor,
        "enabled_overhead_fraction": max(0.0, overhead),
        "overhead_budget": HEALTH_OVERHEAD_BUDGET,
    }
    _merge_scale(HEALTH_OVERHEAD_PATH, scale, entry)
    if was_enabled:
        enable_health_monitors()
    return entry


#: Registry of the named workloads (name -> fn(runner, benchmark, scale)).
WORKLOADS = {
    "ortho_blocked_vs_columnwise": _ortho_blocked_vs_columnwise,
    "partitioned_scaled": _partitioned_scaled,
    "serving_load": _serving_load_recorded,
    "multipoint_recycle": _multipoint_recycle,
    "obs_overhead": _obs_overhead,
    "health_overhead": _health_overhead,
}


def workload_names() -> list[str]:
    """All registered workload names, in registry order."""
    return list(WORKLOADS)


def _workload_metrics() -> dict:
    """JSON-ready attribution snapshot of one workload's run, all from
    the default metrics registry: per-span totals (the ``span.seconds``
    histogram), counters and cache hit rates."""
    metrics = default_metrics().snapshot()
    counters: dict[str, float] = {}
    for item in metrics.get("counters", ()):
        labels = ",".join(f"{k}={v}"
                          for k, v in sorted(item["labels"].items()))
        key = item["name"] + (f"{{{labels}}}" if labels else "")
        counters[key] = counters.get(key, 0) + item["value"]

    def rate(name: str) -> float | None:
        hits = sum(i["value"] for i in metrics.get("counters", ())
                   if i["name"] == name and i["labels"].get("result") == "hit")
        misses = sum(i["value"] for i in metrics.get("counters", ())
                     if i["name"] == name
                     and i["labels"].get("result") == "miss")
        total = hits + misses
        return hits / total if total else None

    out = {
        "span_totals": {
            item["labels"]["span"]: {"count": item["count"],
                                     "total_seconds": item["total"]}
            for item in metrics.get("histograms", ())
            if item["name"] == SPAN_SECONDS},
        "counters": counters,
    }
    for label, name in (("factorize_cache_hit_rate", "linalg.factorize.cache"),
                        ("store_hit_rate", "store.fetch"),
                        ("warm_set_hit_rate", "serve.warm_set")):
        value = rate(name)
        if value is not None:
            out[label] = value
    return out


def run_workloads(names=None, *, benchmark: str = DEFAULT_BENCHMARK,
                  scale: str = "laptop", repeats: int = 3) -> dict:
    """Run the named workloads (default: all) and return the payload."""
    selected = workload_names() if names is None else list(names)
    for name in selected:
        if name not in WORKLOADS:
            raise ValidationError(
                f"unknown workload {name!r}; "
                f"available: {workload_names()}")
    if benchmark not in BENCHMARKS:
        raise ValidationError(
            f"unknown benchmark {benchmark!r}; "
            f"available: {sorted(BENCHMARKS)}")
    runner = BenchmarkRunner(repeats=repeats)
    runner.set_meta(benchmark=benchmark, scale=scale, repeats=repeats)
    for name in selected:
        # Reset the process-wide telemetry so each workload's snapshot
        # attributes cache hits and span totals to *its* run only.
        default_metrics().reset()
        entry = dict(WORKLOADS[name](runner, benchmark, scale))
        entry["metrics"] = _workload_metrics()
        runner.record(name, entry)
    return runner.to_payload()
