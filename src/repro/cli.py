"""Command-line interface: ``python -m repro <command> ...``.

A thin front end over the library for quick experiments without writing a
script:

``python -m repro benchmarks``
    List the registered synthetic benchmarks and their sizes per scale.

``python -m repro reduce --benchmark ckt1 --method bdsm --moments 6``
    Generate a benchmark, reduce it with the chosen method and print the
    Table-II style summary row (time, ROM size, non-zeros, accuracy).

``python -m repro reduce --partitions 4 --partitioner bfs --jobs 4``
    Same reduction, but *partitioned*: the grid is sharded into 4
    subdomains (:mod:`repro.partition`), each shard reduced independently
    (``--jobs`` fans the shards over a thread pool), and the reduced
    pieces reassembled into a coupled macromodel whose interface states
    are preserved exactly.  Works with ``--method bdsm`` or ``prima`` and
    composes with ``--store`` (per-shard memoization).

``python -m repro reduce --partitions 8 --interface-order 4 --interface-tol 1e-4 --levels 2``
    Partitioned again, but the separator is *reduced* too — a
    Schur-complement-aware Krylov basis spans 4 global moments on the
    interface, every shard's promoted interface inputs are compressed
    through it, and ``--levels 2`` re-partitions each shard recursively
    (:func:`repro.partition.multilevel_reduce`, the one partitioned driver;
    ``--levels 1`` is plain ``partitioned_reduce``).  A shard too small to
    split again is reduced directly, the summary prints the depth actually
    reached, and under ``--health`` that shows as a
    ``partition.recursion_fallback`` warn.

``python -m repro sweep --benchmark ckt1 --moments 6 --output 1 --port 2``
    Print the Fig. 5 style frequency sweep (full model vs BDSM and PRIMA)
    for one transfer-matrix entry.

``python -m repro reduce --store runs/store``
    Same reduction, but memoized through a persistent
    :class:`~repro.store.ModelStore`: the first run saves the ROM, every
    later run (in any process) loads it instead of re-reducing.  Add
    ``--from-store`` to *require* a hit, or ``--save rom.npz`` to export
    the ROM as a standalone artifact.

``python -m repro store list --store runs/store``
    Inspect (``list``/``stats``) or empty (``clear``) a model store.

``python -m repro query --store runs/store --benchmark ckt1 --method bdsm``
    Serve transfer-function samples from a previously stored ROM through
    the :class:`~repro.store.ModelServer` — no reduction happens; a missing
    entry is a clean error telling you to populate the store first.
    ``--warm-budget BYTES`` caps the server's admission-controlled warm
    set and ``--no-coalesce`` disables the request-coalescing planner
    (both default to the server defaults; results are bit-identical
    either way).

``python -m repro serve-bench --requests 240 --clients 4``
    Benchmark the layered serving stack: reduce ckt1+ckt2 with BDSM and
    PRIMA (memoized through a model store), warm a
    :class:`~repro.store.ModelServer`, replay a deterministic
    popularity-skewed request stream through the naive per-request path
    and the coalescing planner, verify the answers are bit-identical and
    print QPS / batch-latency percentiles plus the coalescing speedup.
    ``--output PATH`` records the run as JSON.

``python -m repro trace --benchmark ckt1 --method bdsm --serve``
    Run a cold traced reduction (plus, with ``--serve``, one served sweep
    through a temporary :class:`~repro.store.ModelServer`) and print the
    hierarchical span tree — the quickest "where did the time go" view.
    ``--out trace.json`` additionally writes the Chrome trace-event JSON
    (load it in Perfetto or ``chrome://tracing``).  The same Chrome trace
    is available from real runs via ``--trace-out PATH`` on ``reduce``,
    ``query``, ``serve-bench`` and ``bench``.

``python -m repro stats --benchmark ckt1 --method bdsm --serve``
    Same canned run, but print the collected counters, gauges and
    histograms (span timings as ``repro_span_seconds{span=...}``) in the
    Prometheus text exposition format (``--out`` writes the exposition to
    a file for a file-based scrape; ``--json-out`` writes the raw metrics
    snapshot, re-renderable later via ``--from FILE``).

``python -m repro trace --diff benchmarks/baselines/trace_profile.json --budget 20%``
    Trace-diff regression gating: roll the current run (or ``--from
    FILE`` — a Chrome trace or profile JSON) up by span path, attribute
    the time delta against the baseline to phases, and exit non-zero
    when any phase blew the budget.  ``--mode share`` gates
    share-of-total instead of absolute seconds (hardware-portable — the
    CI perf-smoke mode); ``--profile-out`` writes the committed-baseline
    format.

``python -m repro reduce --health --ledger runs/ledger.jsonl``
    Observed run: ``--health`` runs the command inside one health scope
    (:func:`~repro.obs.health.collect_health`), which turns on the
    numerical-health monitors for it (orthogonality loss after every
    blocked merge, sampled solve residuals, deflation/recycle rates,
    interface SVD tails), and prints the scope's watchdog verdict;
    ``--ledger`` appends a flight-recorder record (git SHA, config
    fingerprint, duration, span rollup, counters, health) to a JSONL
    file.  Both flags ride on ``reduce``, ``bench``,
    ``query`` and ``serve-bench``; ``repro obs report --ledger PATH``
    summarizes the recorded runs and their duration trends.

``python -m repro bench --quick --check``
    Run the named performance workloads of :mod:`repro.perf.workloads`
    (blocked vs. column-wise orthogonalisation, cold BDSM/PRIMA, pooled
    BDSM clusters), record them to ``benchmarks/results/*.json`` and —
    with ``--check`` — fail on a >20% speedup regression against the
    checked-in baseline.  ``--quick`` uses the smoke-scale grid (the CI
    perf smoke job); the default laptop scale records the ckt2-scale
    trajectory numbers.

All commands accept ``--scale smoke|laptop|paper`` (default ``smoke`` so the
CLI responds in seconds).  ``reduce`` and ``sweep`` print a
factorization-cache hit/miss summary after each run; pencils are solved by
the one policy of :mod:`repro.linalg.backends`, which has no flags.
``sweep`` also accepts
``--jobs N`` to fan frequency points across N workers (bit-identical to the
serial sweep) and ``--adaptive``/``--target-error`` to refine the grid
adaptively instead of sweeping it densely.  ``repro --version`` prints the
package version.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

from repro import (
    BDSMOptions,
    FrequencyAnalysis,
    ModelServer,
    ModelStore,
    QueryRequest,
    ReproError,
    SweepEngine,
    __version__,
    bdsm_reduce,
    eks_reduce,
    make_benchmark,
    max_relative_error,
    multipoint_bdsm_reduce,
    multipoint_prima_reduce,
    prima_reduce,
    save_artifact,
    svdmor_reduce,
)
from repro.circuit.benchmarks import BENCHMARKS, SCALES
from repro.core.bdsm import bdsm_store_options
from repro.exceptions import ValidationError
from repro.mor.prima import prima_store_options
from repro.io import format_table
from repro.linalg import default_cache
from repro.obs import (
    RunLedger,
    check_budget,
    collect_health,
    diff_profiles,
    disable_tracing,
    drain_spans,
    enable_tracing,
    format_diff,
    load_profile,
    parse_budget,
    read_ledger,
    span_tree_report,
    summarize_ledger,
    to_prometheus,
    trace_profile,
    write_chrome_trace,
)
from repro.partition import (
    DEFAULT_INTERFACE_TOL,
    PartitionedOptions,
    available_partitioners,
    multilevel_reduce,
)

__all__ = ["main", "build_parser"]

def _reduce_bdsm(system, l, points=(0.0,), store=None, engine=None,
                 recycle=False):
    return multipoint_bdsm_reduce(
        system, l, points, options=BDSMOptions(engine=engine),
        store=store, recycle=recycle)


def _reduce_prima(system, l, points=(0.0,), store=None, recycle=False, **_):
    return multipoint_prima_reduce(system, l, points, store=store,
                                   recycle=recycle)


#: Every reducer the CLI drives.  Only bdsm/prima take expansion points, a
#: store or recycling (and only bdsm a chunk fan-out engine); the other
#: methods ignore those keywords and the CLI rejects the flags for them.
_REDUCERS = {
    "bdsm": _reduce_bdsm,
    "prima": _reduce_prima,
    "svdmor": lambda system, l, **_: svdmor_reduce(system, l, alpha=0.6),
    "eks": lambda system, l, **_: eks_reduce(system, l),
}

#: Methods whose reductions the model store can memoize, each mapped to its
#: reducer's canonical store-key builder so CLI pre-checks (`--from-store`,
#: `query`) can never drift from the key the reducer actually uses.
_STORABLE_METHODS = {
    "bdsm": bdsm_store_options,
    "prima": prima_store_options,
}


def _store_options(method: str, moments: int, points=(0.0,),
                   recycle: bool = False) -> dict:
    return _STORABLE_METHODS[method](moments, points, recycle=recycle)

def _print_cache_summary() -> None:
    stats = default_cache().stats()
    print(f"solver cache: hits={stats.hits} misses={stats.misses} "
          f"evictions={stats.evictions} hit_rate={stats.hit_rate:.0%}")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDSM power-grid model reduction (DATE 2011 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("benchmarks",
                   help="list the registered synthetic benchmarks")

    reduce_cmd = sub.add_parser(
        "reduce", help="reduce a benchmark and print a summary row")
    reduce_cmd.add_argument("--benchmark", default="ckt1",
                            choices=sorted(BENCHMARKS))
    reduce_cmd.add_argument("--method", default="bdsm",
                            choices=sorted(_REDUCERS))
    reduce_cmd.add_argument("--moments", type=int, default=6)
    reduce_cmd.add_argument("--scale", default="smoke", choices=SCALES)
    reduce_cmd.add_argument("--save", metavar="PATH", default=None,
                            help="export the ROM as a standalone .npz "
                                 "artifact after reducing")
    reduce_cmd.add_argument("--store", metavar="DIR", default=None,
                            help="memoize the reduction through a "
                                 "persistent model store at DIR "
                                 "(bdsm/prima only)")
    reduce_cmd.add_argument("--from-store", action="store_true",
                            help="require a store hit: fail cleanly "
                                 "instead of reducing on a miss")
    reduce_cmd.add_argument("--jobs", type=int, default=None,
                            help="worker threads for BDSM per-cluster "
                                 "chunks or partitioned shards (0 = one "
                                 "per CPU, 1 = serial).  By default BDSM "
                                 "chunks run on the shared pool (one "
                                 "worker per CPU) and shards serially; "
                                 "the ROM is bit-identical for every "
                                 "value and core count")
    reduce_cmd.add_argument("--partitions", type=int, default=1,
                            metavar="K",
                            help="shard the grid into K subdomains and "
                                 "reduce them independently before "
                                 "reassembling a coupled macromodel "
                                 "(bdsm/prima only; 1 = monolithic)")
    reduce_cmd.add_argument("--partitioner", default="bfs",
                            choices=available_partitioners(),
                            help="partition strategy for --partitions")
    reduce_cmd.add_argument("--interface-order", type=int, default=None,
                            metavar="L",
                            help="with --partitions: reduce the separator "
                                 "with a Krylov basis spanning L global "
                                 "moments (default: exact interface)")
    reduce_cmd.add_argument("--interface-tol", type=float,
                            default=DEFAULT_INTERFACE_TOL, metavar="TOL",
                            help="relative truncation tolerance of the "
                                 "interface basis (with --interface-order)")
    reduce_cmd.add_argument("--levels", type=int, default=1, metavar="N",
                            help="with --partitions: recursion depth of "
                                 "the multilevel partitioned reduction "
                                 "(each level re-partitions its shards)")
    reduce_cmd.add_argument("--points", metavar="S0,S1,...", default=None,
                            help="comma-separated expansion points for a "
                                 "multipoint reduction (bdsm/prima only; "
                                 "accepts complex values like 1e3+1e6j)")
    reduce_cmd.add_argument("--recycle",
                            action=argparse.BooleanOptionalAction,
                            default=False,
                            help="recycle the Krylov basis across --points "
                                 "shifts (skipping already-captured solves) "
                                 "or, with --partitions, share bases "
                                 "between content-identical shards; "
                                 "--no-recycle forces the from-scratch "
                                 "path (nothing screens)")
    _add_trace_out(reduce_cmd)

    bench_cmd = sub.add_parser(
        "bench", help="run recorded performance workloads with baseline "
                      "regression gating")
    bench_cmd.add_argument("--quick", action="store_true",
                           help="smoke-scale grids (the CI perf smoke "
                                "configuration)")
    bench_cmd.add_argument("--benchmark", default="ckt2",
                           choices=sorted(BENCHMARKS),
                           help="grid the workloads run on (default ckt2)")
    bench_cmd.add_argument("--workload", action="append", default=None,
                           metavar="NAME",
                           help="run only this workload (repeatable; "
                                "default: all)")
    bench_cmd.add_argument("--repeats", type=int, default=3,
                           help="timing repetitions per workload "
                                "(best-of; default 3)")
    bench_cmd.add_argument("--output", metavar="PATH", default=None,
                           help="results JSON path (default "
                                "benchmarks/results/perf_quick.json with "
                                "--quick, else "
                                "benchmarks/results/reduction_speedup.json)")
    bench_cmd.add_argument("--baseline", metavar="PATH",
                           default="benchmarks/baselines/perf_quick.json",
                           help="baseline JSON for --check/--update-baseline")
    bench_cmd.add_argument("--check", action="store_true",
                           help="fail (exit 1) when a gated workload's "
                                "speedup regressed >20%% vs the baseline")
    bench_cmd.add_argument("--update-baseline", action="store_true",
                           help="also write the results to --baseline")
    _add_trace_out(bench_cmd)

    store_cmd = sub.add_parser(
        "store", help="inspect or clear a persistent model store")
    store_cmd.add_argument("action", choices=("list", "stats", "clear"))
    store_cmd.add_argument("--store", metavar="DIR", required=True,
                           help="model store directory")

    query_cmd = sub.add_parser(
        "query", help="serve transfer samples from a stored ROM "
                      "(no reduction)")
    query_cmd.add_argument("--store", metavar="DIR", required=True,
                           help="model store directory")
    query_cmd.add_argument("--benchmark", default="ckt1",
                           choices=sorted(BENCHMARKS))
    query_cmd.add_argument("--method", default="bdsm",
                           choices=sorted(_STORABLE_METHODS))
    query_cmd.add_argument("--moments", type=int, default=6)
    query_cmd.add_argument("--scale", default="smoke", choices=SCALES)
    query_cmd.add_argument("--output", type=int, default=1,
                           help="1-based output index (paper style)")
    query_cmd.add_argument("--port", type=int, default=1,
                           help="1-based input port index (paper style)")
    query_cmd.add_argument("--points", type=int, default=9)
    query_cmd.add_argument("--jobs", type=int, default=1,
                           help="sweep workers inside the model server")
    query_cmd.add_argument("--warm-budget", type=int, default=None,
                           metavar="BYTES",
                           help="byte budget of the server's "
                                "admission-controlled warm set (default: "
                                "unlimited, no eviction)")
    query_cmd.add_argument("--coalesce", default=True,
                           action=argparse.BooleanOptionalAction,
                           help="plan the query through the coalescing "
                                "planner (--no-coalesce forces the naive "
                                "per-request path; results are "
                                "bit-identical either way)")
    _add_trace_out(query_cmd)

    serve_cmd = sub.add_parser(
        "serve-bench",
        help="load-test the serving stack: naive vs coalesced QPS")
    serve_cmd.add_argument("--store", metavar="DIR", default=None,
                           help="model store directory to reduce into and "
                                "serve from (default: a temporary store)")
    serve_cmd.add_argument("--scale", default="smoke", choices=SCALES)
    serve_cmd.add_argument("--moments", type=int, default=4,
                           help="moments per reducer for the served ROMs")
    serve_cmd.add_argument("--requests", type=int, default=240,
                           help="total requests in the generated stream")
    serve_cmd.add_argument("--clients", type=int, default=4,
                           help="concurrent client threads")
    serve_cmd.add_argument("--batch-size", type=int, default=60,
                           help="requests per client serve() batch")
    serve_cmd.add_argument("--duplication", type=float, default=8.0,
                           help="average recurrence of each unique "
                                "request template (popularity skew)")
    serve_cmd.add_argument("--transfer-points", type=int, default=24,
                           help="max s-points per transfer request")
    serve_cmd.add_argument("--sweep-points", type=int, default=32,
                           help="frequency points per sweep request")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="server worker threads")
    serve_cmd.add_argument("--jobs", type=int, default=1,
                           help="sweep-engine workers (0 = one per CPU)")
    serve_cmd.add_argument("--seed", type=int, default=20110314,
                           help="load-generator seed")
    serve_cmd.add_argument("--warm-budget", type=int, default=None,
                           metavar="BYTES",
                           help="warm-set byte budget (default: unlimited)")
    serve_cmd.add_argument("--output", metavar="PATH", default=None,
                           help="also record the run as JSON")
    serve_cmd.add_argument("--metrics-port", type=int, default=None,
                           metavar="PORT",
                           help="expose /metrics (Prometheus) and /healthz "
                                "on 127.0.0.1:PORT for the duration of "
                                "the load test (0 picks a free port)")
    _add_trace_out(serve_cmd)

    for observe in ("trace", "stats"):
        obs_cmd = sub.add_parser(
            observe,
            help=("run a canned traced reduction (+ optional serve) and "
                  + ("print the hierarchical span tree"
                     if observe == "trace" else
                     "print Prometheus-format metrics")))
        obs_cmd.add_argument("--benchmark", default="ckt1",
                             choices=sorted(BENCHMARKS))
        obs_cmd.add_argument("--method", default="bdsm",
                             choices=sorted(_STORABLE_METHODS))
        obs_cmd.add_argument("--moments", type=int, default=4)
        obs_cmd.add_argument("--scale", default="smoke", choices=SCALES)
        obs_cmd.add_argument("--jobs", type=int, default=1,
                             help="sweep-engine workers for the served "
                                  "query (0 = one per CPU)")
        obs_cmd.add_argument("--serve", action="store_true",
                             help="also serve one sweep query through a "
                                  "temporary ModelServer (adds the "
                                  "serve.plan/step/engine_eval spans)")
        obs_cmd.add_argument("--min-ms", type=float, default=0.0,
                             help="(trace) prune spans shorter than this "
                                  "many milliseconds from the tree")
        obs_cmd.add_argument("--out", metavar="PATH", default=None,
                             help="also write the Chrome trace JSON "
                                  "(trace) or the text exposition (stats) "
                                  "to PATH")
        obs_cmd.add_argument("--from", dest="from_file", metavar="FILE",
                             default=None,
                             help="skip the canned run and read FILE "
                                  "instead: a Chrome trace / trace profile "
                                  "(trace) or a `stats --json-out` "
                                  "snapshot (stats)")
        if observe == "trace":
            obs_cmd.add_argument("--profile-out", metavar="PATH",
                                 default=None,
                                 help="write the phase-rollup trace "
                                      "profile JSON to PATH (the format "
                                      "--diff compares against)")
            obs_cmd.add_argument("--diff", metavar="BASELINE", default=None,
                                 help="diff this run (or --from FILE) "
                                      "against BASELINE (a trace profile "
                                      "or Chrome trace) and print the "
                                      "per-phase deltas")
            obs_cmd.add_argument("--budget", metavar="PCT", default=None,
                                 help="with --diff: exit 1 when a phase "
                                      "regressed more than this budget "
                                      "(e.g. '20%%' or '0.2')")
            obs_cmd.add_argument("--mode", default="time",
                                 choices=("time", "share"),
                                 help="--budget gating mode: 'time' gates "
                                      "absolute seconds (same machine); "
                                      "'share' gates share-of-total "
                                      "(hardware-portable, what CI uses)")
        else:
            obs_cmd.add_argument("--json-out", metavar="PATH", default=None,
                                 help="also write the metrics "
                                      "snapshot as JSON (re-renderable "
                                      "via `repro stats --from PATH`)")

    flight_cmd = sub.add_parser(
        "obs", help="flight-recorder utilities (`obs report`)")
    flight_sub = flight_cmd.add_subparsers(dest="obs_action", required=True)
    report_cmd = flight_sub.add_parser(
        "report", help="summarize a run ledger: durations, trends, "
                       "health verdicts per recorded run")
    # dest differs from the generic --ledger recorder flag on purpose:
    # reporting on a ledger must not append a record to it.
    report_cmd.add_argument("--ledger", dest="ledger_file", metavar="PATH",
                            required=True,
                            help="ledger JSONL written via --ledger on "
                                 "reduce/bench/query/serve-bench")
    report_cmd.add_argument("--last", type=int, default=20,
                            help="rows shown (most recent; default 20)")

    sweep_cmd = sub.add_parser(
        "sweep", help="frequency sweep of one transfer-matrix entry")
    sweep_cmd.add_argument("--benchmark", default="ckt1",
                           choices=sorted(BENCHMARKS))
    sweep_cmd.add_argument("--moments", type=int, default=6)
    sweep_cmd.add_argument("--scale", default="smoke", choices=SCALES)
    sweep_cmd.add_argument("--output", type=int, default=1,
                           help="1-based output index (paper style)")
    sweep_cmd.add_argument("--port", type=int, default=2,
                           help="1-based input port index (paper style)")
    sweep_cmd.add_argument("--points", type=int, default=9)
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="parallel sweep workers (0 = one per CPU); "
                                "results are bit-identical to --jobs 1")
    sweep_cmd.add_argument("--adaptive", action="store_true",
                           help="refine the frequency grid adaptively "
                                "instead of sweeping it densely")
    sweep_cmd.add_argument("--target-error", type=float, default=1e-3,
                           help="relative-error target steering --adaptive "
                                "refinement (default 1e-3)")
    return parser


def _cmd_benchmarks() -> int:
    rows = []
    for name, spec in BENCHMARKS.items():
        row = {"benchmark": name,
               "paper nodes": spec.paper_nodes,
               "paper ports": spec.paper_ports,
               "moments (Table II)": spec.matched_moments}
        for scale in ("smoke", "laptop"):
            rows_cols_ports = spec.grids[scale]
            row[f"{scale} mesh"] = f"{rows_cols_ports[0]}x{rows_cols_ports[1]}"
            row[f"{scale} ports"] = rows_cols_ports[2]
        rows.append(row)
    print(format_table(rows, title="registered synthetic benchmarks"))
    return 0


def _parse_points(spec: str) -> list[complex]:
    """Parse the ``--points`` value: comma-separated python complex/floats."""
    points: list[complex] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            points.append(complex(token))
        except ValueError:
            raise ValidationError(
                f"--points: {token!r} is not a number (use python float/"
                "complex syntax, e.g. 1e3 or 1e3+1e6j)") from None
    if not points:
        raise ValidationError("--points needs at least one expansion point")
    return points


def _cmd_reduce(args: argparse.Namespace) -> int:
    system = make_benchmark(args.benchmark, scale=args.scale)
    partitions = getattr(args, "partitions", 1)
    if partitions < 1:
        raise ValidationError("--partitions must be >= 1")
    points = None
    if getattr(args, "points", None) is not None:
        points = _parse_points(args.points)
        if args.method not in ("bdsm", "prima"):
            raise ValidationError(
                f"--points drives the multipoint bdsm/prima reducers, "
                f"not {args.method}")
        if partitions > 1:
            raise ValidationError(
                "--points and --partitions are separate drivers; pick one")
    shifts = points or [0.0]
    recycle = bool(getattr(args, "recycle", False))
    if recycle and points is None and partitions <= 1:
        raise ValidationError(
            "--recycle reuses bases across --points shifts or "
            "--partitions shards; add one of them")
    if partitions > 1 and args.method not in _STORABLE_METHODS:
        raise ValidationError(
            f"--partitions shards {'/'.join(_STORABLE_METHODS)} "
            f"reductions, not {args.method}")
    levels = getattr(args, "levels", 1)
    if levels < 1:
        raise ValidationError("--levels must be >= 1")
    interface_order = getattr(args, "interface_order", None)
    if partitions <= 1 and levels > 1:
        raise ValidationError("--levels recurses partitioned shards; "
                              "add --partitions K")
    if partitions <= 1 and interface_order is not None:
        raise ValidationError("--interface-order reduces the partition "
                              "separator; add --partitions K")
    if interface_order is not None and interface_order < 1:
        raise ValidationError("--interface-order must be >= 1")
    interface_tol = getattr(args, "interface_tol", DEFAULT_INTERFACE_TOL)
    if not 0.0 <= interface_tol < 1.0:
        raise ValidationError("--interface-tol must be in [0, 1)")
    interface = PartitionedOptions(interface_order=interface_order,
                                   interface_tol=interface_tol)
    if partitions > 1 and args.from_store:
        raise ValidationError(
            "--from-store checks the monolithic store key; partitioned "
            "reductions memoize per shard, so rerun with --store alone "
            "(shards hit the store automatically)")
    store = None
    if args.store is not None:
        if args.method not in _STORABLE_METHODS:
            raise ValidationError(
                f"--store only memoizes {'/'.join(_STORABLE_METHODS)} "
                f"reductions, not {args.method}")
        # --from-store must not create an empty directory just to miss in it.
        store = ModelStore(args.store, create=not args.from_store)
        if args.from_store:
            key = store.key_for(system, args.method.upper(),
                                _store_options(args.method, args.moments,
                                               shifts, recycle))
            if not store.contains(key):
                raise ValidationError(
                    f"store {args.store} has no entry for "
                    f"{args.benchmark}/{args.method} with "
                    f"--moments {args.moments} at --scale {args.scale}; "
                    "run the same command without --from-store to "
                    "populate it")
    elif args.from_store:
        raise ValidationError("--from-store requires --store DIR")
    jobs = args.jobs
    if jobs is not None and jobs < 0:
        raise ValidationError("--jobs must be >= 0 (0 = one per CPU)")
    if jobs not in (None, 1) and args.method != "bdsm" and partitions <= 1:
        raise ValidationError(
            "--jobs parallelizes BDSM per-cluster chunks or partitioned "
            f"shards; monolithic {args.method} has no chunked reduction")
    # No --jobs: BDSM chunks take the shared pool (engine=None).
    engine = SweepEngine(jobs=jobs) if jobs is not None else None
    try:
        if partitions > 1:
            # Sharded: shard reductions are independent, so a thread pool
            # fans them out; the store (if any) memoizes per shard.
            rom, stats, seconds = multilevel_reduce(
                system, args.moments, levels=levels, n_parts=partitions,
                partitioner=args.partitioner, method=args.method,
                interface=interface,
                engine=engine, store=store, recycle=recycle)
        else:
            # One reduce spanning every expansion point (default s0 = 0).
            # BDSM splits the ports into the problem's own chunks, so
            # every worker builds a few independent clusters over each
            # point's one cached pencil factorisation.
            rom, stats, seconds = _REDUCERS[args.method](
                system, args.moments, points=shifts,
                store=store, engine=engine, recycle=recycle)
    finally:
        if engine is not None:
            engine.close()
    omegas = np.logspace(5, 9, 5)
    row = {
        "benchmark": system.name,
        "nodes": system.size,
        "ports": system.n_ports,
        "method": (rom.method if partitions > 1 else args.method.upper()),
        "MOR time (s)": round(seconds, 4),
        "ROM size": rom.size,
        "ROM nnz": rom.nnz,
        "ortho inner products": stats.inner_products,
        "max rel. error (1e5-1e9 rad/s)":
            f"{max_relative_error(system, rom, omegas):.2e}",
        "reusable": "yes" if rom.reusable else "no",
    }
    if points is not None:
        solves = sum(getattr(rom, "solve_counts", []) or [])
        note = f"{len(points)} points, {solves} shifted solves"
        recycle_stats = getattr(rom, "recycle_stats", None)
        if recycle_stats is not None:
            note += (f", recycled {recycle_stats.hits}/"
                     f"{recycle_stats.screened} candidates "
                     f"({recycle_stats.solves_skipped} solves skipped)")
        row["multipoint"] = note
    if partitions > 1:
        info = rom.partition_info
        iface_note = f"interface {info.get('interface')}"
        if info.get("interface_reduced") is not None:
            iface_note += (f" -> {info['interface_reduced']} "
                           f"(order {info['interface_order']}, "
                           f"tol {info['interface_tol']:g})")
        row["partitions"] = (f"{info.get('k')}x {info.get('strategy')}, "
                             f"{iface_note}")
        if levels > 1:
            row["partitions"] += (f", {levels} levels requested, depth "
                                  f"{info['depth']} reached")
    print(format_table([row], title="reduction summary"))
    if args.save is not None:
        path = save_artifact(rom, args.save)
        print(f"ROM artifact saved to {path}")
    if store is not None:
        _print_store_summary(store)
    _print_cache_summary()
    return 0


def _print_store_summary(store: ModelStore) -> None:
    stats = store.stats()
    outcome = "hit (reduction skipped)" if stats.hits else "miss (ROM saved)"
    print(f"model store: {outcome}  hits={stats.hits} "
          f"misses={stats.misses} evictions={stats.evictions}")


def _cmd_store(args: argparse.Namespace) -> int:
    store = ModelStore(args.store, create=False)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {args.store}")
        return 0
    entries = store.entries()
    if args.action == "stats":
        print(f"store {args.store}: {len(entries)} entries, "
              f"{store.total_bytes()} bytes")
        return 0
    if not entries:
        print(f"store {args.store} is empty")
        return 0
    rows = [{
        "key": entry.key[:12],
        "system": entry.system_name,
        "method": entry.method,
        "kind": entry.meta.get("kind", "?"),
        "ROM size": entry.meta.get("rom_size"),
        "bytes": entry.n_bytes,
    } for entry in reversed(entries)]
    print(format_table(rows, title=f"model store {args.store}"))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.output < 1 or args.port < 1:
        print("error: --output and --port are 1-based indices",
              file=sys.stderr)
        return 2
    store = ModelStore(args.store, create=False)
    system = make_benchmark(args.benchmark, scale=args.scale)
    key = store.key_for(system, args.method.upper(),
                        _store_options(args.method, args.moments))
    if not store.contains(key):
        raise ValidationError(
            f"store {args.store} has no ROM for {args.benchmark}/"
            f"{args.method} with --moments {args.moments} at --scale "
            f"{args.scale}; populate it with `repro reduce --store "
            f"{args.store} ...` first")
    if args.output > system.n_outputs or args.port > system.n_ports:
        print(f"error: benchmark has {system.n_outputs} outputs and "
              f"{system.n_ports} ports", file=sys.stderr)
        return 2
    name = f"{args.benchmark}/{args.method}"
    engine = SweepEngine(jobs=args.jobs) if args.jobs != 1 else None
    with ModelServer(store, engine=engine, warm_budget=args.warm_budget,
                     coalesce=args.coalesce) as server:
        server.load(name, key=key)
        request = QueryRequest("sweep", name, {
            "omega_min": 1e5, "omega_max": 1e12, "n_points": args.points,
            "output": args.output - 1, "port": args.port - 1})
        sweep = server.serve([request])[0]
    rows = [{"omega (rad/s)": float(omega), "|H| ROM": float(mag)}
            for omega, mag in zip(sweep.omegas, sweep.magnitude)]
    print(format_table(
        rows, title=f"served H[{args.output},{args.port}] of {name} "
                    f"(no reduction performed)"))
    print(f"model store: served entry {key[:12]} from {args.store}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # The load generator lives in repro.serve; imported lazily like the
    # perf workloads so plain CLI start-up stays fast.
    import json
    import tempfile
    from pathlib import Path

    from repro.serve import LoadSpec, generate_requests, results_equal, run_load

    if args.requests < 1 or args.clients < 1 or args.batch_size < 1:
        raise ValidationError(
            "--requests, --clients and --batch-size must be >= 1")
    spec = LoadSpec(n_requests=args.requests, duplication=args.duplication,
                    transfer_points=args.transfer_points,
                    sweep_points=args.sweep_points, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(args.store if args.store is not None else tmp)
        for benchmark in ("ckt1", "ckt2"):
            system = make_benchmark(benchmark, scale=args.scale)
            bdsm_reduce(system, args.moments, store=store)
            prima_reduce(system, args.moments, store=store)
        engine = SweepEngine(jobs=args.jobs) if args.jobs != 1 else None
        with ModelServer(store, engine=engine, max_workers=args.workers,
                         warm_budget=args.warm_budget,
                         metrics_port=args.metrics_port) as server:
            if server.telemetry is not None:
                print(f"telemetry: {server.telemetry.url}/metrics "
                      f"and /healthz")
            server.warm()
            models = {name: server.registry.resolve(name)
                      for name in server.registry.known_names()}
            requests = generate_requests(models, spec)
            runs = {}
            for mode, coalesce in (("naive", False), ("coalesced", True)):
                runs[mode] = run_load(server, requests,
                                      clients=args.clients,
                                      batch_size=args.batch_size,
                                      coalesce=coalesce,
                                      collect_results=True)
            serving = server.serving_stats()
            serve_health = serving.health_report()
            warm = server.warm_stats()
    naive, coalesced = runs["naive"], runs["coalesced"]
    bit_identical = all(
        results_equal(a, b)
        for a, b in zip(naive.results, coalesced.results))
    speedup = coalesced.qps / naive.qps if naive.qps > 0 else 0.0
    rows = [{"path": mode,
             "QPS": round(run.qps, 1),
             "p50 (ms)": round(run.p50 * 1e3, 2),
             "p99 (ms)": round(run.p99 * 1e3, 2)}
            for mode, run in runs.items()]
    print(format_table(
        rows, title=f"serving load ({args.requests} requests, "
                    f"{args.clients} clients, dup {args.duplication:g}, "
                    f"scale {args.scale})"))
    print(f"coalescing speedup: {speedup:.2f}x; results bit-identical: "
          f"{bit_identical}")
    print(f"serving stats: plans={serving.plans} "
          f"requests={serving.requests} coalesced={serving.coalesced} "
          f"({serving.coalescing_rate:.0%}) "
          f"queue_depth_peak={serving.queue_depth_peak}")
    print(f"warm set: loads={warm.loads} hits={warm.hits} "
          f"misses={warm.misses} evictions={warm.evictions} "
          f"resident_bytes={warm.resident_bytes}")
    print(f"serving health: {serve_health.summary()}")
    for check in serve_health.failed() + serve_health.warned():
        print(f"  {check.status}: {check.monitor}={check.value:.4g} "
              f"{check.labels} {check.detail}")
    if args.output is not None:
        payload = {
            "scale": args.scale,
            "spec": {"n_requests": spec.n_requests,
                     "duplication": spec.duplication,
                     "transfer_points": spec.transfer_points,
                     "sweep_points": spec.sweep_points,
                     "seed": spec.seed},
            "clients": args.clients,
            "batch_size": args.batch_size,
            "workers": args.workers,
            "naive": {"qps": naive.qps, "p50_s": naive.p50,
                      "p99_s": naive.p99},
            "coalesced": {"qps": coalesced.qps, "p50_s": coalesced.p50,
                          "p99_s": coalesced.p99},
            "speedup": speedup,
            "bit_identical": bit_identical,
            "coalescing_rate": serving.coalescing_rate,
            "health": serve_health.as_dict(),
        }
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        print(f"recorded: {path}")
    if not bit_identical:
        print("error: coalesced results diverged from the per-request "
              "path", file=sys.stderr)
        return 1
    return 0


def _add_trace_out(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--trace-out", metavar="PATH", default=None,
                     help="enable span tracing for this run and write the "
                          "Chrome trace-event JSON to PATH (open in "
                          "Perfetto / chrome://tracing)")
    cmd.add_argument("--ledger", metavar="PATH", default=None,
                     help="append one flight-recorder record for this run "
                          "(JSONL: git SHA, config fingerprint, duration, "
                          "span rollup, counters, health verdict) to PATH; "
                          "summarize with `repro obs report --ledger PATH`")
    cmd.add_argument("--health", action="store_true",
                     help="run the command inside one health scope, "
                          "which turns the numerical-health monitors on "
                          "for it (orthogonality loss, solve residuals, "
                          "deflation/recycle rates, interface SVD tails), "
                          "and print the scope's verdict afterwards")


def _run_observed(args: argparse.Namespace) -> dict:
    """The canned pipeline behind ``repro trace`` / ``repro stats``: one
    cold reduction and, with ``--serve``, one served sweep query.  Returns
    the metrics snapshot taken before the server closes (closing drops
    its series)."""
    import tempfile

    from repro.obs import default_metrics

    system = make_benchmark(args.benchmark, scale=args.scale)
    if not args.serve:
        _REDUCERS[args.method](system, args.moments)
        return default_metrics().snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(tmp)
        _REDUCERS[args.method](system, args.moments, store=store)
        name = f"{args.benchmark}/{args.method}"
        key = store.key_for(system, args.method.upper(),
                            _store_options(args.method, args.moments))
        engine = SweepEngine(jobs=args.jobs) if args.jobs != 1 else None
        with ModelServer(store, engine=engine) as server:
            server.load(name, key=key)
            server.serve([QueryRequest("sweep", name, {
                "omega_min": 1e5, "omega_max": 1e12, "n_points": 9,
                "output": 0, "port": 0})])
            return default_metrics().snapshot()


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.budget is not None and args.diff is None:
        raise ValidationError("--budget gates a --diff; add --diff BASELINE")
    spans = None
    if args.from_file is not None:
        # Offline: the "current" run is a file (Chrome trace or profile),
        # so there is no span tree to print — only profile-level output.
        try:
            current = load_profile(args.from_file)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"--from: {exc}") from exc
    else:
        enable_tracing()
        try:
            _run_observed(args)
        finally:
            spans = drain_spans()
            disable_tracing()
        current = trace_profile(spans)
    if spans is not None:
        print(span_tree_report(spans, min_duration=args.min_ms / 1e3),
              end="")
        if args.out is not None:
            path = write_chrome_trace(spans, args.out)
            print(f"chrome trace written to {path}")
    if args.profile_out is not None:
        import json
        from pathlib import Path

        path = Path(args.profile_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True)
                        + "\n")
        print(f"trace profile written to {path}")
    if args.diff is not None:
        try:
            base = load_profile(args.diff)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"--diff: {exc}") from exc
        deltas = diff_profiles(base, current)
        print(format_table(
            format_diff(deltas),
            title=f"trace diff vs {args.diff} "
                  f"(total {base.get('total_s', 0.0):.4f}s -> "
                  f"{current.get('total_s', 0.0):.4f}s)"))
        if args.budget is not None:
            try:
                budget = parse_budget(args.budget)
            except ValueError as exc:
                raise ValidationError(f"--budget: {exc}") from exc
            failures = check_budget(deltas, budget=budget, mode=args.mode)
            if failures:
                for failure in failures:
                    print(f"trace regression: {failure}", file=sys.stderr)
                return 1
            print(f"trace diff OK: every phase within {args.budget} "
                  f"({args.mode} mode)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import default_metrics

    if args.from_file is not None:
        try:
            document = json.loads(Path(args.from_file).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"--from: {exc}") from exc
        metrics_snapshot = (document.get("metrics")
                            if isinstance(document, dict) else None)
        if not isinstance(metrics_snapshot, dict):
            raise ValidationError(
                f"--from: {args.from_file} is not a stats snapshot "
                "(expected a JSON object with a 'metrics' object)")
    else:
        default_metrics().reset()
        enable_tracing()
        try:
            metrics_snapshot = _run_observed(args)
        finally:
            drain_spans()
            disable_tracing()
    text = to_prometheus(metrics_snapshot)
    print(text, end="")
    if args.out is not None:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"metrics exposition written to {path}")
    if args.json_out is not None:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"metrics": metrics_snapshot},
            indent=1, sort_keys=True, default=str) + "\n")
        print(f"stats snapshot written to {path}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    records = read_ledger(args.ledger_file)
    if not records:
        print(f"ledger {args.ledger_file} has no readable records")
        return 0
    rows = summarize_ledger(records, last=args.last)
    print(format_table(
        rows, title=f"run ledger {args.ledger_file} "
                    f"({len(records)} records, last {len(rows)})"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.output < 1 or args.port < 1:
        print("error: --output and --port are 1-based indices",
              file=sys.stderr)
        return 2
    system = make_benchmark(args.benchmark, scale=args.scale)
    if args.output > system.n_outputs or args.port > system.n_ports:
        print(f"error: benchmark has {system.n_outputs} outputs and "
              f"{system.n_ports} ports", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("error: --jobs must be >= 0 (0 = one per CPU)",
              file=sys.stderr)
        return 2
    output, port = args.output - 1, args.port - 1
    bdsm_rom, _, _ = bdsm_reduce(system, args.moments)
    prima_rom, _, _ = prima_reduce(system, args.moments)
    engine = SweepEngine(jobs=args.jobs) if args.jobs != 1 else None
    analysis = FrequencyAnalysis(omega_min=1e5, omega_max=1e12,
                                 n_points=args.points, engine=engine)
    report = analysis.compare(system, {"BDSM": bdsm_rom, "PRIMA": prima_rom},
                              output=output, port=port,
                              adaptive=args.adaptive,
                              target_error=args.target_error)
    rows = []
    for k, omega in enumerate(report["reference"]["omegas"]):
        rows.append({
            "omega (rad/s)": float(omega),
            "|H| full": float(report["reference"]["magnitude"][k]),
            "relerr BDSM": float(report["BDSM"]["relative_error"][k]),
            "relerr PRIMA": float(report["PRIMA"]["relative_error"][k]),
        })
    print(format_table(
        rows, title=f"H[{args.output},{args.port}] of {system.name} "
                    f"(l={args.moments})"))
    if args.adaptive:
        info = report["adaptive"]
        print(f"adaptive sweep: evaluated {info['n_evaluated']}/"
              f"{info['n_points']} grid points "
              f"(target {info['target_error']:.0e}, saved "
              f"{info['evaluations_saved']} model evaluations)")
    _print_cache_summary()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Workloads import the reducers, so they are loaded lazily here rather
    # than at CLI import time.
    from repro.perf import check_regressions, format_workloads, load_results
    from repro.perf.bench import write_results
    from repro.perf.workloads import run_workloads, workload_names

    if args.repeats < 1:
        raise ValidationError("--repeats must be >= 1")
    names = args.workload
    if names is not None:
        unknown = sorted(set(names) - set(workload_names()))
        if unknown:
            raise ValidationError(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"available: {', '.join(workload_names())}")
    scale = "smoke" if args.quick else "laptop"
    output = args.output
    if output is None:
        output = ("benchmarks/results/perf_quick.json" if args.quick
                  else "benchmarks/results/reduction_speedup.json")

    payload = run_workloads(names, benchmark=args.benchmark, scale=scale,
                            repeats=args.repeats)
    path = write_results(payload, output)
    print(format_table(format_workloads(payload),
                       title=f"perf workloads ({args.benchmark}-{scale}, "
                             f"best of {args.repeats})"))
    print(f"results recorded to {path}")

    if args.update_baseline:
        baseline_path = write_results(payload, args.baseline)
        print(f"baseline updated at {baseline_path}")
    if args.check:
        baseline = load_results(args.baseline)
        failures = check_regressions(payload, baseline, only=names)
        if failures:
            for failure in failures:
                print(f"perf regression: {failure}", file=sys.stderr)
            return 1
        gated = [name for name, entry in
                 baseline.get("workloads", {}).items()
                 if entry.get("gate") and (names is None or name in names)]
        print(f"perf check OK: {len(gated)} gated workload(s) within 20% "
              f"of baseline {args.baseline}")
    return 0


#: argparse fields excluded from a run's ledger config (they describe the
#: observation, not the run, so recording them would change the config
#: fingerprint and break across-run duration trends).
_LEDGER_META_FIELDS = ("command", "ledger", "trace_out", "health")


def _ledger_config(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in _LEDGER_META_FIELDS}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import time

    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "benchmarks": lambda a: _cmd_benchmarks(),
        "reduce": _cmd_reduce,
        "sweep": _cmd_sweep,
        "store": _cmd_store,
        "query": _cmd_query,
        "serve-bench": _cmd_serve_bench,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "obs": _cmd_obs,
    }
    handler = commands.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2  # pragma: no cover
    trace_out = getattr(args, "trace_out", None)
    ledger_path = getattr(args, "ledger", None)
    use_health = bool(getattr(args, "health", False))
    # A ledger record wants the span rollup, so --ledger turns tracing on
    # even without --trace-out (tracing is bit-transparent to the run).
    if trace_out is not None or ledger_path is not None:
        enable_tracing()
    health_scope = collect_health() if use_health else nullcontext()
    health_report = None
    start = time.perf_counter()
    exit_code = 1
    try:
        with health_scope as health_report:
            exit_code = handler(args)
        return exit_code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        duration = time.perf_counter() - start
        spans = None
        if trace_out is not None or ledger_path is not None:
            spans = drain_spans()
            disable_tracing()
        if trace_out is not None:
            path = write_chrome_trace(spans, trace_out)
            print(f"chrome trace written to {path} "
                  f"({len(spans)} spans)")
        if health_report is not None:
            print(f"health: {health_report.summary()}")
            for check in (health_report.failed()
                          + health_report.warned()):
                print(f"  {check.status}: {check.monitor}="
                      f"{check.value:.4g} {check.detail}")
        if ledger_path is not None:
            from repro.obs import default_metrics

            RunLedger(ledger_path).record(
                args.command, config=_ledger_config(args),
                duration_s=duration,
                metrics=default_metrics().snapshot(), spans=spans,
                health=health_report,
                extra={"exit_code": exit_code})
            print(f"ledger: recorded this {args.command} run in "
                  f"{ledger_path}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
