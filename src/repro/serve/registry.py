"""Model registry with an admission-controlled, byte-budgeted warm set.

The registry is the middle layer of the serving stack: it decides *which
models are resident in memory*, while the planner decides what to evaluate
and the :class:`~repro.store.server.ModelServer` runs it.  Two populations
coexist:

``pinned`` entries
    Registered directly via :meth:`ModelRegistry.register` (or loaded with
    no byte budget configured).  They are never evicted.
``warm`` entries
    Loaded from the backing :class:`~repro.store.model_store.ModelStore`
    under a byte budget.  The warm set is an LRU: every
    :meth:`~ModelRegistry.resolve` hit refreshes an entry's recency, a
    resolve of a catalogued-but-cold model loads it on demand (a *cold
    miss*), and admission evicts least-recently-used warm entries until the
    budget holds again.  Evicted models simply drop out of memory — the
    artifact stays store-resident and the next resolve reloads it, so
    eviction is always safe, never lossy.

Byte accounting uses each entry's on-disk artifact size as the proxy for
its in-memory footprint (the arrays dominate both).  The most recently
admitted model is always kept, even when it alone exceeds the budget —
mirroring :class:`~repro.store.model_store.ModelStore` eviction semantics.

Unreadable store entries (corrupted artifact, schema mismatch) are never
silently swallowed: :meth:`warm` counts them in :class:`WarmSetStats`,
reports their keys in its :class:`WarmResult`, and logs a warning through
the ``repro.serve`` logger.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import ValidationError
from repro.obs.metrics import default_metrics
from repro.obs.tracing import trace_span

if TYPE_CHECKING:  # avoid a circular import with repro.store at runtime
    from repro.store.model_store import ModelStore

__all__ = ["ModelRegistry", "WarmSetStats", "WarmResult"]

logger = logging.getLogger("repro.serve")


@dataclass
class WarmSetStats:
    """Counters of one registry's warm-set behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    skipped: int = 0
    loads: int = 0
    resident_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of store-backed resolves served without a cold load."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class WarmResult:
    """Outcome of :meth:`ModelRegistry.warm`.

    ``loaded`` names are registered and resident; ``skipped`` keys are
    store entries that could not be read (they stay out of the catalog);
    ``deferred`` names are readable entries left cold because the byte
    budget was exhausted — they load on first resolve.
    """

    loaded: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)


class ModelRegistry:
    """Name-keyed model registry over an optional backing store.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.model_store.ModelStore` backing
        :meth:`load`, :meth:`warm` and cold-miss resolution.
    warm_budget:
        Optional byte budget of the warm set.  ``None`` (default) disables
        admission control: :meth:`warm` loads everything and nothing is
        ever evicted (the legacy behaviour).
    labels:
        Labels of this registry's ``serve.warm_set`` and
        ``serve.warm_evictions`` counters and ``serve.warm_resident_bytes``
        gauge in the default metrics registry (a
        :class:`~repro.store.server.ModelServer` passes
        ``server=<server_id>``, so its ``close()`` drops them with its
        other series).
    """

    def __init__(self, store: ModelStore | None = None, *,
                 warm_budget: int | None = None,
                 labels: dict | None = None) -> None:
        if warm_budget is not None and warm_budget <= 0:
            raise ValidationError("warm_budget must be positive (or None)")
        self.store = store
        self.warm_budget = warm_budget
        self._lock = threading.RLock()
        self._pinned: dict[str, object] = {}
        self._warm: OrderedDict[str, object] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._catalog: dict[str, str] = {}  # name -> store key
        self._stats = WarmSetStats()
        self._labels = dict(labels or {})

    # ------------------------------------------------------------------ #
    # Registration and loading
    # ------------------------------------------------------------------ #
    def register(self, name: str, model) -> None:
        """Pin ``model`` under ``name`` (replaces any previous entry;
        pinned entries are never evicted).

        A ROM whose reducer reported ``rom.health.status == "fail"`` is
        refused; ``warn`` is accepted.  Loaded artifacts carry no health
        (it is not persisted), so only in-process ROMs are screened.
        """
        if not name:
            raise ValidationError("model name must be non-empty")
        health = getattr(model, "health", None)
        if health is not None and health.status == "fail":
            failed = ", ".join(c.monitor for c in health.failed())
            raise ValidationError(f"refusing to serve {name!r}: its "
                                  f"reduction failed health checks ({failed})")
        with self._lock:
            self._drop_warm(name)
            self._pinned[name] = model
            self._stats.loads += 1

    def load(self, name: str, *, key: str | None = None,
             path: str | Path | None = None) -> None:
        """Load a model into the registry from the store or an artifact.

        Exactly one of ``key`` (a store key; requires a backing store) or
        ``path`` (a standalone artifact file) must be given.  With a byte
        budget configured, store-backed loads are *admitted* into the warm
        set (evictable, reloadable on demand); path loads and budget-less
        loads are pinned.
        """
        if (key is None) == (path is None):
            raise ValidationError("pass exactly one of key= or path=")
        if key is not None:
            if self.store is None:
                raise ValidationError(
                    "this server has no backing store; load by path= or "
                    "construct it with ModelServer(store)")
            model = self.store.load(key)
            if self.warm_budget is not None:
                with self._lock:
                    self._catalog[name] = key
                    self._admit(name, model, self._entry_bytes(key))
                return
        else:
            from repro.store.artifacts import load_artifact

            model = load_artifact(path)
        self.register(name, model)

    def warm(self, budget: int | None = None) -> WarmResult:
        """Warm-load store entries into the registry, newest-used first.

        Models are named ``"<system_name>/<method>"`` (falling back to the
        store key on collision or missing metadata).  With a byte budget
        (either ``budget`` here or the registry's ``warm_budget``), only
        the most recently used entries that fit are loaded eagerly; the
        rest are catalogued and load lazily on first resolve.  Unreadable
        entries are counted, logged and reported in the result.
        """
        if self.store is None:
            raise ValidationError("this server has no backing store")
        effective = budget if budget is not None else self.warm_budget
        if effective is not None and effective <= 0:
            raise ValidationError("warm budget must be positive (or None)")
        result = WarmResult()
        spent = 0
        # Most-recently-used first, so the budget keeps the hot set.
        for entry in reversed(self.store.entries()):
            with self._lock:
                name = f"{entry.system_name}/{entry.method}"
                if "?" in name or name in self._pinned or name in self._warm \
                        or (name in self._catalog
                            and self._catalog[name] != entry.key):
                    name = entry.key
                self._catalog[name] = entry.key
            if effective is not None and spent + entry.n_bytes > effective \
                    and spent > 0:
                result.deferred.append(name)
                continue
            try:
                with trace_span("serve.warm_load", key=entry.key,
                                model=name):
                    model = self.store.load(entry.key)
            except ValidationError as exc:
                with self._lock:
                    self._stats.skipped += 1
                    self._catalog.pop(name, None)
                result.skipped.append(entry.key)
                logger.warning("warm(): skipping unreadable store entry "
                               "%s: %s", entry.key, exc)
                continue
            with self._lock:
                self._admit(name, model, entry.n_bytes,
                            budget=effective)
            spent += entry.n_bytes
            result.loaded.append(name)
        if result.skipped:
            logger.warning("warm(): skipped %d unreadable store entr%s "
                           "(keys: %s)", len(result.skipped),
                           "y" if len(result.skipped) == 1 else "ies",
                           ", ".join(result.skipped))
        return result

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, name: str):
        """The model registered under ``name``.

        Resolution order: pinned entries, then the warm set (refreshing
        LRU recency), then a cold-miss load from the store catalog.  An
        unknown name raises :class:`~repro.exceptions.ValidationError`
        listing the known names.
        """
        with self._lock:
            if name in self._pinned:
                return self._pinned[name]
            if name in self._warm:
                self._warm.move_to_end(name)
                self._stats.hits += 1
                default_metrics().increment("serve.warm_set", result="hit",
                                            **self._labels)
                return self._warm[name]
            key = self._catalog.get(name)
        if key is None:
            known = ", ".join(self.known_names()) or "(none)"
            raise ValidationError(
                f"no model {name!r} registered; known models: {known}")
        # Cold miss: reload from the store and admit.  The load runs
        # outside the registry lock so resolves of resident models are
        # never blocked behind disk reads.
        default_metrics().increment("serve.warm_set", result="miss",
                                    **self._labels)
        with trace_span("serve.cold_load", model=name, key=key):
            model = self.store.load(key)
        with self._lock:
            self._stats.misses += 1
            self._admit(name, model, self._entry_bytes(key))
            return self._warm.get(name, self._pinned.get(name, model))

    def models(self) -> list[str]:
        """Names currently resident (pinned + warm), sorted."""
        with self._lock:
            return sorted(set(self._pinned) | set(self._warm))

    def known_names(self) -> list[str]:
        """All resolvable names (resident or catalogued), sorted."""
        with self._lock:
            return sorted(set(self._pinned) | set(self._warm)
                          | set(self._catalog))

    def stats(self) -> WarmSetStats:
        """A snapshot of the warm-set counters."""
        with self._lock:
            return WarmSetStats(hits=self._stats.hits,
                                misses=self._stats.misses,
                                evictions=self._stats.evictions,
                                skipped=self._stats.skipped,
                                loads=self._stats.loads,
                                resident_bytes=self._stats.resident_bytes)

    # ------------------------------------------------------------------ #
    # Internals (call with self._lock held)
    # ------------------------------------------------------------------ #
    def _entry_bytes(self, key: str) -> int:
        try:
            return int(self.store.artifact_path(key).stat().st_size)
        except OSError:  # pragma: no cover - entry raced away
            return 0

    def _admit(self, name: str, model, n_bytes: int, *,
               budget: int | None = None) -> None:
        """Admit a store-backed model into the warm set and evict LRU
        entries until the byte budget holds (the new entry is protected)."""
        if name in self._pinned:
            # A pinned entry shadows the store: keep the pin authoritative.
            return
        if name in self._warm:
            self._stats.resident_bytes -= self._sizes.get(name, 0)
        self._warm[name] = model
        self._warm.move_to_end(name)
        self._sizes[name] = int(n_bytes)
        self._stats.resident_bytes += int(n_bytes)
        self._stats.loads += 1
        effective = budget if budget is not None else self.warm_budget
        while effective is not None and len(self._warm) > 1 \
                and self._stats.resident_bytes > effective:
            victim, _ = self._warm.popitem(last=False)
            self._stats.resident_bytes -= self._sizes.pop(victim, 0)
            self._stats.evictions += 1
            default_metrics().increment("serve.warm_evictions",
                                        **self._labels)
        default_metrics().set_gauge("serve.warm_resident_bytes",
                                    self._stats.resident_bytes,
                                    **self._labels)

    def _drop_warm(self, name: str) -> None:
        if name in self._warm:
            del self._warm[name]
            self._stats.resident_bytes -= self._sizes.pop(name, 0)
