"""Query planner: validate, deduplicate and coalesce serving requests.

The planner is the first layer of the serving stack.  It turns a batch of
:class:`QueryRequest` objects into an explicit :class:`ExecutionPlan` — a
list of :class:`PlanStep` engine evaluations plus the scatter information
needed to hand every original request its own result — **without touching
any model or lock**, so planning runs entirely outside the server's
per-model critical sections.

Coalescing semantics (every rule is bit-identity preserving — a coalesced
request's result equals what the naive per-request path would have
computed, element for element):

``dedup``
    Requests with identical ``(kind, model, params)`` are executed once and
    the single result is shared by every duplicate (the arrays are aliased,
    not copied; treat served results as read-only).  This applies to every
    kind, including transient, because the serving methods are
    deterministic functions of their inputs.
``transfer coalescing``
    Two or more distinct ``transfer`` requests against the *same model* are
    concatenated into one multi-point
    :meth:`~repro.analysis.engine.SweepEngine.sample_matrix` evaluation and
    the stacked samples are sliced back per request.  Each frequency point
    is evaluated by the same per-point kernel regardless of its neighbours
    (the engine's determinism invariant), so the slices are bit-identical
    to per-request evaluation.
``sweep coalescing``
    Full-matrix ``sweep`` requests sharing one frequency band
    ``(omega_min, omega_max, n_points)`` but naming *different models* are
    fanned through a single
    :meth:`~repro.analysis.frequency.FrequencyAnalysis.sweep_many` call.
    ``sweep_many`` runs the exact standalone sweep of each model inside a
    worker, so per-model results are again bit-identical.  Entry sweeps
    (``output``/``port`` given) are only deduplicated — evaluating them
    through a shared full-matrix sweep would switch evaluation kernels and
    is *not* bit-identity safe.

Requests whose parameters the planner does not recognise (unexpected keys,
non-array payloads it cannot fingerprint) are never dropped: they fall back
to a ``single`` step that calls the server method of their kind with their
own parameters, including its error behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["QueryRequest", "PlanStep", "ExecutionPlan", "QueryPlanner",
           "REQUEST_KINDS"]

#: The request kinds the serving stack understands, in dispatch order.
REQUEST_KINDS = ("transfer", "sweep", "transient", "ir_drop")

#: Default sweep band of :meth:`ModelServer.sweep`, used to normalise
#: partially-specified sweep parameters so ``{"n_points": 60}`` and ``{}``
#: plan into the same band group.
_SWEEP_DEFAULTS = {"omega_min": 1e5, "omega_max": 1e12, "n_points": 60}


@dataclass(frozen=True)
class QueryRequest:
    """One serving request: ``kind`` selects the analysis, ``model`` the
    registry entry, ``params`` the keyword arguments of the corresponding
    :class:`~repro.store.server.ModelServer` method.

    Kinds: ``"transfer"``, ``"sweep"``, ``"transient"``, ``"ir_drop"``.
    """

    kind: str
    model: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PlanStep:
    """One engine evaluation of an :class:`ExecutionPlan`.

    Attributes
    ----------
    kind:
        Request kind this step answers (stats are attributed to it).
    op:
        ``"single"`` — one request (and its duplicates) through the server
        method of its kind; ``"transfer_batch"`` — one multi-point
        ``transfer`` evaluation scattered back by slice; ``"sweep_many"``
        — one multi-model ``sweep_models`` evaluation scattered back by
        model name.
    models:
        Model names whose locks the server must hold while evaluating
        (one, except for ``"sweep_many"``).
    payload:
        Keyword arguments of the evaluating server method (``transfer``'s
        ``s_values``, a sweep band, or a request's own ``params``).
    targets:
        Scatter spec mapping evaluation output to original request indices:
        the indices (``"single"``), ``(start, stop, indices)`` slices
        (``"transfer_batch"``) or ``(model, indices)`` pairs
        (``"sweep_many"``).
    """

    kind: str
    op: str
    models: tuple[str, ...]
    payload: object
    targets: tuple

    @property
    def n_requests(self) -> int:
        """Original requests answered by this single evaluation."""
        if self.op == "single":
            return len(self.targets)
        return sum(len(indices) for *_rest, indices in self.targets)


@dataclass
class ExecutionPlan:
    """A planned batch: the original requests plus the steps answering
    them."""

    requests: tuple[QueryRequest, ...]
    steps: list[PlanStep]

    @property
    def n_requests(self) -> int:
        """Number of original requests covered by the plan."""
        return len(self.requests)

    @property
    def n_steps(self) -> int:
        """Number of engine evaluations the plan executes."""
        return len(self.steps)

    @property
    def n_coalesced(self) -> int:
        """Requests that ride along on another request's evaluation."""
        return self.n_requests - self.n_steps


class _Unfingerprintable:
    """Sentinel for params the planner cannot hash (each instance unique,
    so such requests never alias each other)."""

    __slots__ = ()


def _freeze(value):
    """A hashable, equality-faithful fingerprint of a request parameter.

    Numpy arrays are fingerprinted by ``(shape, dtype, bytes)`` so two
    requests carrying equal arrays deduplicate even though ``ndarray`` is
    unhashable.  Anything unrecognised gets a unique sentinel — the request
    still executes, it just never coalesces.
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return ("ndarray", arr.shape, arr.dtype.str, arr.tobytes())
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(item) for item in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((str(k), _freeze(v))
                                    for k, v in value.items())))
    if isinstance(value, (bool, int, float, complex, str, bytes,
                          type(None))):
        return value
    return _Unfingerprintable()


def _as_points(s_values) -> np.ndarray | None:
    """``s_values`` as a 1-D complex array, or ``None`` when the request
    must stay on the single-step path (empty or non-1-D payloads keep the
    error behaviour of a per-request ``transfer``)."""
    try:
        points = np.asarray(s_values, dtype=complex)
    except (TypeError, ValueError):
        return None
    if points.ndim != 1 or points.size == 0:
        return None
    return points


def _sweep_band(params: dict) -> tuple | None:
    """The normalised full-matrix band of a sweep request, or ``None`` when
    the request is an entry sweep or carries unknown parameters."""
    if not set(params) <= set(_SWEEP_DEFAULTS):
        return None
    band = dict(_SWEEP_DEFAULTS)
    band.update(params)
    try:
        return (float(band["omega_min"]), float(band["omega_max"]),
                int(band["n_points"]))
    except (TypeError, ValueError):
        return None


@dataclass
class QueryPlanner:
    """Builds :class:`ExecutionPlan` objects from request batches.

    Parameters
    ----------
    coalesce:
        With ``False`` the planner degrades to the naive per-request path:
        one ``single`` step per request, no dedup.  This is the baseline
        the ``serving_load`` perf workload measures coalescing against.
    """

    coalesce: bool = True

    def plan(self, requests: list[QueryRequest]) -> ExecutionPlan:
        """Validate ``requests`` and plan their execution.

        Raises :class:`~repro.exceptions.ValidationError` for an unknown
        request kind, an empty model name or non-dict params, before any
        work is scheduled.
        """
        requests = tuple(requests)
        for request in requests:
            if request.kind not in REQUEST_KINDS:
                raise ValidationError(
                    f"unknown request kind {request.kind!r}; "
                    f"choose from {REQUEST_KINDS}")
            if not request.model:
                raise ValidationError("request model name must be non-empty")
            if not isinstance(request.params, dict):
                raise ValidationError(
                    f"request params must be a dict, "
                    f"got {type(request.params).__name__}")
        if not self.coalesce:
            steps = [
                PlanStep(kind=request.kind, op="single",
                         models=(request.model,), payload=request.params,
                         targets=(index,))
                for index, request in enumerate(requests)]
            return ExecutionPlan(requests=requests, steps=steps)
        return ExecutionPlan(requests=requests,
                             steps=self._coalesced_steps(requests))

    # ------------------------------------------------------------------ #
    # Coalescing
    # ------------------------------------------------------------------ #
    def _coalesced_steps(self,
                         requests: tuple[QueryRequest, ...]) -> list[PlanStep]:
        # 1. Dedup: group request indices by (kind, model, frozen params).
        groups: dict = {}
        order: list = []
        for index, request in enumerate(requests):
            key = (request.kind, request.model, _freeze(request.params))
            if key not in groups:
                groups[key] = []
                order.append((key, request))
            groups[key].append(index)

        steps: list[PlanStep] = []
        transfer_by_model: dict[str, list] = {}
        sweeps_by_band: dict[tuple, list] = {}
        for key, request in order:
            indices = tuple(groups[key])
            if request.kind == "transfer" \
                    and set(request.params) == {"s_values"}:
                points = _as_points(request.params["s_values"])
                if points is not None:
                    transfer_by_model.setdefault(request.model, []).append(
                        (points, indices))
                    continue
            if request.kind == "sweep":
                band = _sweep_band(request.params)
                if band is not None:
                    sweeps_by_band.setdefault(band, []).append(
                        (request.model, indices))
                    continue
            steps.append(PlanStep(
                kind=request.kind, op="single", models=(request.model,),
                payload=request.params, targets=indices))

        # 2. Transfer coalescing: one multi-point evaluation per model.
        for model, entries in transfer_by_model.items():
            if len(entries) == 1:
                points, indices = entries[0]
                steps.append(PlanStep(
                    kind="transfer", op="single", models=(model,),
                    payload={"s_values": points}, targets=indices))
                continue
            concat = np.concatenate([points for points, _ in entries])
            segments = []
            offset = 0
            for points, indices in entries:
                segments.append((offset, offset + len(points), indices))
                offset += len(points)
            steps.append(PlanStep(
                kind="transfer", op="transfer_batch", models=(model,),
                payload={"s_values": concat}, targets=tuple(segments)))

        # 3. Sweep coalescing: one sweep_many fan-out per frequency band.
        for band, entries in sweeps_by_band.items():
            if len(entries) == 1:
                model, indices = entries[0]
                steps.append(PlanStep(
                    kind="sweep", op="single", models=(model,),
                    payload=_band_params(band), targets=indices))
                continue
            steps.append(PlanStep(
                kind="sweep", op="sweep_many",
                models=tuple(model for model, _ in entries),
                payload=_band_params(band), targets=tuple(entries)))
        return steps


def _band_params(band: tuple) -> dict:
    """Sweep keyword arguments of a normalised band tuple."""
    omega_min, omega_max, n_points = band
    return {"omega_min": omega_min, "omega_max": omega_max,
            "n_points": n_points}
