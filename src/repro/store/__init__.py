"""Persistent ROM artifact store and concurrent model serving.

This subsystem turns the library's reduce-once/reuse-forever story into an
actual cross-process service:

``artifacts``
    Versioned, fingerprinted ``.npz`` serialization: one codec for every
    ROM (a :class:`~repro.mor.base.StructuredROM`, whichever constructor
    built it) plus :class:`~repro.mor.base.ReductionSummary` records
    (schema-version field, dtype-preserving encoding, integrity check on
    load).
``model_store``
    :class:`ModelStore` — a directory cache keyed on (system fingerprint,
    method, reduction options) with atomic writes, LRU eviction by size
    budget and hit/miss statistics; ``bdsm_reduce(..., store=...)`` and
    ``prima_reduce(..., store=...)`` memoize through it across processes.
``server``
    :class:`ModelServer` — warm-loads ROMs from the store into an in-memory
    registry and answers batched transfer-function, sweep, transient and
    IR-drop queries concurrently through the
    :class:`~repro.analysis.engine.SweepEngine`.  The server owns the
    worker pool and the per-model locks, plans batches with the
    :mod:`repro.serve` planner (request coalescing), resolves models
    through its registry (the admission-controlled warm set) and records
    its serving statistics into the process-wide metrics registry.
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
