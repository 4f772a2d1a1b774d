"""Trace-diff: align two span dumps by span path and gate regressions.

A *trace profile* is the phase rollup of one traced run: every span is
assigned a path (its parent-chain names joined with ``/``), and the
profile records per-path call counts and total seconds plus the run's
root total.  Profiles are small, stable JSON documents — the committed
``benchmarks/baselines/trace_profile.json`` is one — and
:func:`diff_profiles` attributes the total-time delta between two of
them to phases.

Two gating modes (:func:`check_budget`):

* ``"time"`` — a phase regressed when its absolute seconds grew more
  than ``budget`` (e.g. ``0.2`` = 20%).  Right for before/after runs on
  the *same* machine (``repro trace --diff old_trace.json``).
* ``"share"`` — a phase regressed when its *share of the run total*
  grew more than ``budget`` relative.  Total wall-clock divides out, so
  this is the mode CI uses against the committed baseline profile:
  runner hardware shifts every phase together, a real regression shifts
  one phase against the others.

Phases below ``min_share`` of the baseline total are never gated —
microsecond spans jitter by integer factors without meaning anything.

Inputs are forgiving: :func:`load_profile` accepts a profile JSON, a
Chrome trace-event JSON (the run artifact of ``--trace-out``), or a raw list
of span dicts, so ``repro trace --diff A --from B`` works on whatever
was saved.  Stdlib only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "PhaseDelta",
    "check_budget",
    "diff_profiles",
    "format_diff",
    "load_profile",
    "parse_budget",
    "span_rollup",
    "trace_profile",
    "write_profile",
]

#: Baseline share below which a phase is too small to gate.
DEFAULT_MIN_SHARE = 0.05


def _span_fields(raw) -> dict:
    """Normalise a Span object or span dict to the fields we need."""
    if isinstance(raw, dict):
        return {"name": raw.get("name", "?"),
                "span_id": raw.get("span_id"),
                "parent_id": raw.get("parent_id"),
                "duration": float(raw.get("duration", 0.0))}
    return {"name": raw.name, "span_id": raw.span_id,
            "parent_id": raw.parent_id, "duration": float(raw.duration)}


def span_rollup(spans) -> dict[str, dict]:
    """Per-path ``{"count", "total_s"}`` rollup of a span list.

    A span's path is its parent-chain names joined with ``/``; spans
    whose parent is absent from the dump (pool workers whose submitting
    span was not captured, truncated buffers) roll up as roots.
    """
    records = [_span_fields(s) for s in spans]
    by_id = {r["span_id"]: r for r in records if r["span_id"]}

    def path(record: dict) -> str:
        names = [record["name"]]
        seen = {record["span_id"]}
        parent = by_id.get(record["parent_id"])
        while parent is not None and parent["span_id"] not in seen:
            names.append(parent["name"])
            seen.add(parent["span_id"])
            parent = by_id.get(parent["parent_id"])
        return "/".join(reversed(names))

    rollup: dict[str, dict] = {}
    for record in records:
        entry = rollup.setdefault(path(record), {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += record["duration"]
    return rollup


def trace_profile(spans) -> dict:
    """Build a profile document from a span list."""
    rollup = span_rollup(spans)
    total = sum(entry["total_s"] for p, entry in rollup.items()
                if "/" not in p)
    return {"schema": 1, "kind": "trace_profile", "total_s": total,
            "phases": rollup}


def _chrome_trace_spans(document: dict) -> list[dict]:
    """Recover span dicts from a Chrome trace-event JSON document."""
    spans = []
    for event in document.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        spans.append({
            "name": event.get("name", "?"),
            "span_id": args.get("span_id"),
            "parent_id": args.get("parent_id"),
            "duration": float(event.get("dur", 0.0)) / 1e6,
        })
    return spans


def load_profile(path) -> dict:
    """Load a profile from a profile JSON, Chrome trace, or span list.

    A profile of a run artifact (a Chrome trace written by
    ``--trace-out``) also carries that run's ``run`` record, with its
    health status added as ``run["health"]``.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(document, dict) and document.get("kind") == "trace_profile":
        return document
    if isinstance(document, dict) and "traceEvents" in document:
        profile = trace_profile(_chrome_trace_spans(document))
        other = document.get("otherData") or {}
        if isinstance(other.get("run"), dict):
            health = other.get("health") or {}
            profile["run"] = {**other["run"], "health": health.get("status")}
        return profile
    if isinstance(document, list):
        return trace_profile(document)
    raise ValueError(
        f"{path} is neither a trace profile, a Chrome trace-event "
        f"document nor a span list")


def write_profile(spans, path) -> Path:
    """Write :func:`trace_profile` of ``spans`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_profile(spans), indent=1,
                               sort_keys=True) + "\n")
    return path


@dataclass
class PhaseDelta:
    """One phase's contribution to the difference of two profiles."""

    path: str
    base_s: float
    cur_s: float
    base_share: float
    cur_share: float

    @property
    def delta_s(self) -> float:
        return self.cur_s - self.base_s

    @property
    def time_ratio(self) -> float:
        return self.cur_s / self.base_s if self.base_s > 0 else float("inf")

    @property
    def share_ratio(self) -> float:
        return (self.cur_share / self.base_share
                if self.base_share > 0 else float("inf"))


def diff_profiles(base: dict, current: dict) -> list[PhaseDelta]:
    """Per-phase deltas between two profiles, largest time delta first.

    Phases present in only one profile appear with zero seconds on the
    other side (new phases gate like regressions from nothing in time
    mode, and are skipped by the ``min_share`` floor in share mode until
    they matter).
    """
    base_phases = base.get("phases") or {}
    cur_phases = current.get("phases") or {}
    base_total = float(base.get("total_s") or
                       sum(e["total_s"] for e in base_phases.values()) or 0.0)
    cur_total = float(current.get("total_s") or
                      sum(e["total_s"] for e in cur_phases.values()) or 0.0)
    deltas = []
    for path in sorted(set(base_phases) | set(cur_phases)):
        base_s = float(base_phases.get(path, {}).get("total_s", 0.0))
        cur_s = float(cur_phases.get(path, {}).get("total_s", 0.0))
        deltas.append(PhaseDelta(
            path=path, base_s=base_s, cur_s=cur_s,
            base_share=base_s / base_total if base_total > 0 else 0.0,
            cur_share=cur_s / cur_total if cur_total > 0 else 0.0))
    deltas.sort(key=lambda d: -abs(d.delta_s))
    return deltas


def parse_budget(text: str) -> float:
    """Parse a regression budget: ``"20%"`` or ``"0.2"`` -> ``0.2``."""
    text = str(text).strip()
    try:
        value = (float(text[:-1]) / 100.0 if text.endswith("%")
                 else float(text))
    except ValueError:
        raise ValueError(
            f"budget {text!r} is not a percentage (like '20%') or a "
            f"fraction (like '0.2')") from None
    if value <= 0:
        raise ValueError(f"budget must be positive, got {text!r}")
    return value


def check_budget(deltas: list[PhaseDelta], *, budget: float,
                 mode: str = "time",
                 min_share: float = DEFAULT_MIN_SHARE) -> list[str]:
    """Return one failure message per phase that blew the budget."""
    if mode not in ("time", "share"):
        raise ValueError(f"mode must be 'time' or 'share', got {mode!r}")
    failures = []
    for delta in deltas:
        if delta.base_share < min_share:
            continue
        if mode == "time":
            if delta.base_s > 0 and delta.time_ratio - 1.0 > budget:
                failures.append(
                    f"{delta.path}: {delta.base_s:.4f}s -> "
                    f"{delta.cur_s:.4f}s "
                    f"(+{(delta.time_ratio - 1.0):.0%} > "
                    f"{budget:.0%} budget)")
        else:
            if delta.base_share > 0 and delta.share_ratio - 1.0 > budget:
                failures.append(
                    f"{delta.path}: share {delta.base_share:.1%} -> "
                    f"{delta.cur_share:.1%} "
                    f"(+{(delta.share_ratio - 1.0):.0%} > "
                    f"{budget:.0%} budget)")
    return failures


def format_diff(deltas: list[PhaseDelta], *, limit: int = 20) -> list[dict]:
    """Table rows (for :func:`repro.io.format_table`) of the top deltas."""
    rows = []
    for delta in deltas[:limit]:
        rows.append({
            "phase": delta.path,
            "base (s)": round(delta.base_s, 4),
            "current (s)": round(delta.cur_s, 4),
            "delta (s)": round(delta.delta_s, 4),
            "time": (f"{delta.time_ratio:.2f}x" if delta.base_s > 0
                     else "new"),
            "share": f"{delta.base_share:.1%} -> {delta.cur_share:.1%}",
        })
    return rows
