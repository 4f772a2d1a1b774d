"""Load generator for the serving stack (``repro serve-bench``).

Produces deterministic, popularity-skewed mixed query traffic — batched
transfer samples, full-band frequency sweeps and IR-drop reports — and
drives a :class:`~repro.store.server.ModelServer` with concurrent client
threads, measuring sustained QPS and batch-latency percentiles.  The same
request list can be replayed through the naive per-request path
(``coalesce=False``) and the planner path (``coalesce=True``), which is how
the ``serving_load`` perf workload records the coalescing speedup, and how
:func:`results_equal` verifies that every coalesced result is bit-identical
to its per-request counterpart.

Traffic model: the generator first builds a pool of *unique* request
templates (distinct frequency grids per model, a couple of sweep bands, a
few IR-drop load vectors), then samples ``n_requests`` from the pool with
repetition.  ``duplication`` sets the average number of times each template
recurs — the serving-world assumption that query traffic is heavy-tailed
(many users ask the popular queries), which is exactly what request
coalescing exploits.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.frequency import FrequencySweepResult
from repro.analysis.ir_drop import IRDropResult
from repro.analysis.transient import TransientResult
from repro.exceptions import ValidationError
from repro.obs.metrics import percentile
from repro.serve.planner import QueryRequest

__all__ = ["LoadSpec", "LoadRunResult", "generate_requests", "run_load",
           "results_equal"]


@dataclass(frozen=True)
class LoadSpec:
    """Shape of a generated request stream.

    ``mix`` weights the request kinds; ``duplication`` is the average
    recurrence of each unique template (1 = all-unique traffic).
    """

    n_requests: int = 240
    duplication: float = 4.0
    transfer_points: int = 8
    sweep_points: int = 12
    seed: int = 20110314
    mix: tuple = (("transfer", 0.5), ("sweep", 0.3), ("ir_drop", 0.2))

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValidationError("n_requests must be >= 1")
        if self.duplication < 1.0:
            raise ValidationError("duplication must be >= 1")
        if self.transfer_points < 1 or self.sweep_points < 2:
            raise ValidationError(
                "transfer_points must be >= 1 and sweep_points >= 2")


@dataclass
class LoadRunResult:
    """Outcome of one :func:`run_load` drive."""

    n_requests: int
    seconds: float
    batch_latencies: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Sustained requests per second over the whole drive."""
        return self.n_requests / self.seconds if self.seconds > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Batch-latency percentile ``q`` (0..100) in seconds."""
        return percentile(self.batch_latencies, q)

    @property
    def p50(self) -> float:
        """Median batch latency in seconds."""
        return self.latency_percentile(50.0)

    @property
    def p99(self) -> float:
        """99th-percentile batch latency in seconds."""
        return self.latency_percentile(99.0)


def generate_requests(models: dict, spec: LoadSpec) -> list[QueryRequest]:
    """A deterministic popularity-skewed request stream over ``models``.

    ``models`` maps registry names to model objects (only ``n_ports`` is
    inspected, to size IR-drop load vectors).  The stream mixes the kinds
    by ``spec.mix``, reuses templates with average multiplicity
    ``spec.duplication`` and is fully determined by ``spec.seed``.
    """
    if not models:
        raise ValidationError("generate_requests needs at least one model")
    rng = np.random.default_rng(spec.seed)
    names = sorted(models)
    n_unique = max(len(names), int(round(spec.n_requests
                                         / spec.duplication)))
    kinds = [kind for kind, _ in spec.mix]
    weights = np.asarray([weight for _, weight in spec.mix], dtype=float)
    weights = weights / weights.sum()

    #: Two full-band sweep variants so sweep traffic coalesces into two
    #: sweep_many fan-outs instead of one degenerate group.
    bands = ({"n_points": spec.sweep_points},
             {"omega_min": 1e6, "omega_max": 1e11,
              "n_points": spec.sweep_points})

    templates: list[QueryRequest] = []
    while len(templates) < n_unique:
        name = names[int(rng.integers(len(names)))]
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "transfer":
            n_points = int(rng.integers(max(1, spec.transfer_points // 2),
                                        spec.transfer_points + 1))
            decades = np.sort(rng.uniform(5.0, 10.0, size=n_points))
            params = {"s_values": 1j * (10.0 ** decades)}
        elif kind == "sweep":
            params = dict(bands[int(rng.integers(len(bands)))])
        else:  # ir_drop
            n_ports = int(getattr(models[name], "n_ports", 1) or 1)
            params = {"load_currents":
                      rng.uniform(1e-4, 1e-2, size=n_ports)}
        templates.append(QueryRequest(kind, name, params))

    picks = rng.integers(len(templates), size=spec.n_requests)
    return [templates[int(pick)] for pick in picks]


def run_load(server, requests: list[QueryRequest], *, clients: int = 4,
             batch_size: int = 24, coalesce: bool | None = None,
             collect_results: bool = False) -> LoadRunResult:
    """Drive ``server`` with ``requests`` from concurrent client threads.

    The request list is dealt round-robin to ``clients`` threads; each
    client submits its share in batches of ``batch_size`` through
    ``server.serve(..., coalesce=...)`` and records per-batch latency.
    Returns the sustained QPS over the whole drive plus the latency
    samples.  With ``collect_results=True`` the per-request results are
    reassembled in original request order (used for bit-identity checks).
    """
    if clients < 1:
        raise ValidationError("clients must be >= 1")
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    shares: list[list[tuple[int, QueryRequest]]] = [
        [] for _ in range(clients)]
    for index, request in enumerate(requests):
        shares[index % clients].append((index, request))

    latencies_by_client: list[list[float]] = [[] for _ in range(clients)]
    results: list = [None] * len(requests)
    errors: list[Exception] = []

    def drive(client: int) -> None:
        share = shares[client]
        try:
            for offset in range(0, len(share), batch_size):
                chunk = share[offset:offset + batch_size]
                batch = [request for _, request in chunk]
                started = time.perf_counter()
                answers = server.serve(batch, coalesce=coalesce)
                latencies_by_client[client].append(
                    time.perf_counter() - started)
                if collect_results:
                    for (index, _), answer in zip(chunk, answers):
                        results[index] = answer
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    # Each client runs in a copy of the caller's context, so its
    # serve.plan spans sit under the caller's span.
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(drive, client),
                                name=f"serve-bench-client-{client}")
               for client in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return LoadRunResult(
        n_requests=len(requests), seconds=elapsed,
        batch_latencies=[latency for per_client in latencies_by_client
                         for latency in per_client],
        results=results if collect_results else [])


def results_equal(a, b) -> bool:
    """Whether two served results are bit-identical.

    Understands the result types of the four request kinds (arrays, sweep
    results, transient results, IR-drop reports); anything else falls back
    to ``==``.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    if isinstance(a, FrequencySweepResult):
        return bool(np.array_equal(a.values, b.values)
                    and np.array_equal(a.omegas, b.omegas))
    if isinstance(a, TransientResult):
        return bool(np.array_equal(a.outputs, b.outputs))
    if isinstance(a, IRDropResult):
        return bool(np.array_equal(a.voltages, b.voltages))
    return bool(a == b)
