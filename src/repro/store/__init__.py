"""Persistent ROM artifact store and concurrent model serving.

This subsystem turns the library's reduce-once/reuse-forever story into an
actual cross-process service:

``artifacts``
    Versioned, fingerprinted ``.npz`` serialization of
    :class:`~repro.mor.base.ReducedSystem`,
    :class:`~repro.core.structured_rom.BlockDiagonalROM` and
    :class:`~repro.mor.base.ReductionSummary` (schema-version field,
    dtype/sparsity-preserving encoding, integrity check on load).
``model_store``
    :class:`ModelStore` — a directory cache keyed on (system fingerprint,
    method, reduction options) with atomic writes, LRU eviction by size
    budget and hit/miss statistics; ``bdsm_reduce(..., store=...)`` and
    ``prima_reduce(..., store=...)`` memoize through it across processes.
``server``
    :class:`ModelServer` — warm-loads ROMs from the store into an in-memory
    registry and answers batched transfer-function, sweep, transient and
    IR-drop queries concurrently through the
    :class:`~repro.analysis.engine.SweepEngine`.  Since the layered
    refactor the class is a thin facade over :mod:`repro.serve`
    (planner/registry/executor/stats layers), which also adds request
    coalescing and the admission-controlled warm set.
"""

from repro.store.artifacts import (
    SCHEMA_VERSION,
    artifact_meta,
    load_artifact,
    save_artifact,
)
from repro.store.model_store import ModelStore, StoreEntry, StoreStats
from repro.store.server import ModelServer, QueryRequest, ServeError

__all__ = [
    "SCHEMA_VERSION",
    "ModelServer",
    "ModelStore",
    "QueryRequest",
    "ServeError",
    "StoreEntry",
    "StoreStats",
    "artifact_meta",
    "load_artifact",
    "save_artifact",
]
