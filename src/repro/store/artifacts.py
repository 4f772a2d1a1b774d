"""Versioned on-disk artifacts for reduced-order models.

A paper-faithful BDSM workflow is *reduce once, query forever*: the ROM is
input-independent, so the expensive reduction should be paid a single time
and its result shipped between processes, machines and CI runs.  This module
provides the serialization layer that makes that possible (in the spirit of
pyMOR's persistence layer and SHARPy's on-disk case artifacts):

* one uncompressed ``.npz`` container per model (``np.savez``: zlib cost
  most of a save and saved a few percent of the bytes, and the file size
  is what the serving warm set budgets), holding every payload array with
  its exact dtype and — for sparse matrices — its CSR structure, so a
  save/load round-trip is bit-identical;
* a JSON metadata record embedded in the container carrying a
  ``schema`` version field (loads of a different schema are rejected with a
  clear error instead of garbage) and the model's scalar attributes;
* a content fingerprint over all payload bytes plus the metadata, verified
  on load, so truncated or corrupted artifacts are rejected instead of
  silently producing a wrong model.

Every ROM round-trips through one codec: a
:class:`~repro.mor.base.StructuredROM` — whichever constructor built it,
:class:`~repro.mor.base.ReducedSystem`,
:class:`~repro.core.structured_rom.BlockDiagonalROM` or
:class:`~repro.partition.assemble.PartitionedROM` — is stored as its block
fields concatenated over the blocks, its port maps, optional projection
bases and border, and the constructor class, which a load restores.
Schema 3 adds the modal form a border-free ROM is served from (see
:class:`~repro.mor.base.StructuredROM`): saving builds it — so a store put
pays for it once — and stores each block's ``mu``, ``L X`` and
``X^{-1} G^{-1} B`` as the ``modal_mu``/``modal_LX``/``modal_XB`` fields,
absent for a bordered ROM or one whose form failed its check.  A load
hands the arrays back, so the loaded ROM answers bit-identically to the
saved one.  Schema-2 artifacts (no modal fields) still load and build the
form on their first query; schema-1 artifacts are rejected (regenerate
them).  :class:`~repro.mor.base.ReductionSummary` records have their own
small codec.  ``rom.health`` is not stored.  All writes are atomic
(tempfile in the target directory + ``os.replace``) so a concurrent
reader never observes a half-written artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.structured_rom import BlockDiagonalROM
from repro.exceptions import ValidationError
from repro.mor.base import (
    ReducedSystem,
    ReductionSummary,
    ROMBlock,
    StructuredROM,
)
from repro.partition.assemble import PartitionedROM

__all__ = [
    "SCHEMA_VERSION",
    "save_artifact",
    "load_artifact",
    "artifact_meta",
    "encode_json_value",
]

#: Version of the artifact container layout.  Bump on any incompatible
#: change to the array naming scheme or the metadata record; loaders reject
#: versions outside ``_READABLE_SCHEMAS`` with a
#: :class:`~repro.exceptions.ValidationError`.
SCHEMA_VERSION = 3

#: Older schemas :func:`load_artifact` still reads (schema 2 lacks only
#: the modal fields).
_READABLE_SCHEMAS = (2, SCHEMA_VERSION)

#: Metadata key of the embedded JSON record.
_META_KEY = "__meta__"

#: ``meta["kind"]`` values understood by :func:`load_artifact`.
_KIND_ROM = "structured_rom"
_KIND_SUMMARY = "reduction_summary"


# --------------------------------------------------------------------------- #
# JSON helpers (complex scalars are not JSON; encode them structurally)
# --------------------------------------------------------------------------- #
def encode_json_value(value) -> object:
    """JSON-encode a metadata value, mapping complex scalars to
    ``{"re": ..., "im": ...}`` (recursively through lists/tuples).

    The single complex-to-JSON encoding shared by the artifact metadata
    and the :func:`~repro.store.model_store.canonical_options` store keys,
    so the two can never drift apart.
    """
    if isinstance(value, (list, tuple)):
        return [encode_json_value(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _encode_s0(s0) -> object:
    """JSON-encode an expansion point (scalar or list of complex).

    Unlike :func:`encode_json_value`, real scalars are promoted to complex
    first: an s0 always decodes back through :func:`_decode_s0`."""
    if isinstance(s0, (list, tuple)):
        return [_encode_s0(v) for v in s0]
    return encode_json_value(complex(s0))


def _decode_s0(payload) -> complex | list[complex]:
    if isinstance(payload, list):
        return [_decode_s0(v) for v in payload]
    return complex(payload["re"], payload["im"])


# --------------------------------------------------------------------------- #
# Matrix encoding (dtype- and sparsity-preserving)
# --------------------------------------------------------------------------- #
def _encode_matrix(arrays: dict, formats: dict, name: str, matrix) -> None:
    """Add one matrix to the payload, preserving dtype and sparsity."""
    if sp.issparse(matrix):
        m = matrix.tocsr()
        if not m.has_canonical_format:
            if m is matrix:
                m = m.copy()
            m.sum_duplicates()
        formats[name] = "csr"
        arrays[f"{name}_data"] = m.data
        arrays[f"{name}_indices"] = np.asarray(m.indices, dtype=np.int64)
        arrays[f"{name}_indptr"] = np.asarray(m.indptr, dtype=np.int64)
        arrays[f"{name}_shape"] = np.asarray(m.shape, dtype=np.int64)
    else:
        formats[name] = "dense"
        arrays[name] = np.asarray(matrix)


def _decode_matrix(data, formats: dict, name: str):
    fmt = formats.get(name)
    if fmt == "csr":
        shape = tuple(int(v) for v in data[f"{name}_shape"])
        return sp.csr_matrix(
            (data[f"{name}_data"], data[f"{name}_indices"],
             data[f"{name}_indptr"]), shape=shape)
    if fmt == "dense":
        return data[name]
    raise ValidationError(f"artifact payload is missing matrix {name!r}")


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #
def _payload_fingerprint(arrays: dict, meta: dict) -> str:
    """Content hash over every payload array and the metadata record.

    The metadata is hashed in canonical JSON form *without* the fingerprint
    field itself, so the stored value can be recomputed and compared on
    load.
    """
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    clean = {k: v for k, v in meta.items() if k != "fingerprint"}
    h.update(json.dumps(clean, sort_keys=True).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# Encoders (model -> arrays + meta)
# --------------------------------------------------------------------------- #
#: The constructor classes a ROM artifact can name.
_ROM_CLASSES = {cls.__name__: cls for cls in
                (StructuredROM, ReducedSystem, BlockDiagonalROM,
                 PartitionedROM)}

#: Per-block fields, each stored as one array concatenated over the blocks.
_BLOCK_FIELDS = ("C", "G", "B", "L", "basis", "ports",
                 "Ec", "Eg", "Fc", "Fg")

#: Per-block fields of the modal form, in ``StructuredROM`` tuple order.
_MODAL_FIELDS = ("modal_mu", "modal_LX", "modal_XB")


def _encode_rom(rom: StructuredROM) -> tuple[dict, dict]:
    """Every ROM in one layout: each block field raveled and concatenated
    over the blocks (``shapes`` gives the pieces back, ``None`` for an
    absent basis, port map or border), the interface blocks as matrices,
    the constructor's extras and — built here if need be — the modal
    form.  ``rom.health`` is not stored."""
    arrays: dict[str, np.ndarray] = {}
    formats: dict[str, str] = {}
    shapes: dict[str, list] = {}

    def pack(name: str, parts: list) -> None:
        parts = [p.toarray() if sp.issparse(p) else p for p in parts]
        present = [np.ravel(p) for p in parts if p is not None]
        if present:
            arrays[name] = (present[0] if len(present) == 1
                            else np.concatenate(present))
        shapes[name] = [None if p is None else list(np.shape(p))
                        for p in parts]

    for name in _BLOCK_FIELDS:
        pack(name, [getattr(b, name) for b in rom.blocks])
    form = rom._modal_form()
    if form is not None:
        for name, parts in zip(_MODAL_FIELDS, zip(*form)):
            pack(name, list(parts))
    if rom.C_ss is not None:
        for name in ("C_ss", "G_ss", "B_s", "L_s"):
            _encode_matrix(arrays, formats, name, getattr(rom, name))
    extras: dict[str, object] = {}
    for name in rom._extras:
        value = getattr(rom, name)
        if isinstance(value, dict):
            extras[name] = value
            continue
        listed = isinstance(value, list)
        pack(f"x_{name}", value if listed else [value])
        extras[name] = "list" if listed else "array"
    meta = {
        "kind": _KIND_ROM,
        "class": type(rom).__name__,
        "formats": formats,
        "shapes": shapes,
        "indices": [b.index for b in rom.blocks],
        "extras": extras,
        "n_ports": int(rom.n_ports),
        "n_outputs": int(rom.n_outputs),
        "method": rom.method,
        "s0": _encode_s0(rom.s0),
        "n_moments": int(rom.n_moments),
        "reusable": bool(rom.reusable),
        "original_size": int(rom.original_size),
        "original_ports": int(rom.original_ports),
        "name": rom.name,
        "output_names": list(rom.output_names),
    }
    return arrays, meta


def _decode_rom(data, meta: dict) -> StructuredROM:
    cls = _ROM_CLASSES.get(meta["class"])
    if cls is None:
        raise ValidationError(f"unknown ROM class {meta['class']!r}")

    def unpack(name: str) -> list:
        parts, offset = [], 0
        for shape in meta["shapes"][name]:
            size = 0 if shape is None else int(np.prod(shape))
            parts.append(None if shape is None else
                         data[name][offset:offset + size].reshape(shape))
            offset += size
        return parts

    fields = {name: unpack(name) for name in _BLOCK_FIELDS}
    blocks = [ROMBlock(index, **{name: parts[k]
                                 for name, parts in fields.items()})
              for k, index in enumerate(meta["indices"])]
    formats = meta["formats"]
    interface = None
    if "C_ss" in formats:
        interface = tuple(_decode_matrix(data, formats, name)
                          for name in ("C_ss", "G_ss", "B_s", "L_s"))
    extras = {}
    for name, how in meta["extras"].items():
        if how == "list":
            extras[name] = unpack(f"x_{name}")
        elif how == "array":
            extras[name] = unpack(f"x_{name}")[0]
        else:
            extras[name] = how
    rom = cls._restore(
        blocks, extras, n_ports=int(meta["n_ports"]),
        n_outputs=int(meta["n_outputs"]), interface=interface,
        method=str(meta["method"]), s0=_decode_s0(meta["s0"]),
        n_moments=int(meta["n_moments"]), reusable=bool(meta["reusable"]),
        original_size=int(meta["original_size"]),
        original_ports=int(meta["original_ports"]), name=str(meta["name"]),
        output_names=meta["output_names"])
    if _MODAL_FIELDS[0] in meta["shapes"]:
        rom._modal = tuple(zip(*(unpack(name) for name in _MODAL_FIELDS)))
    return rom


def _encode_summary(summary: ReductionSummary) -> tuple[dict, dict]:
    meta = {
        "kind": _KIND_SUMMARY,
        "summary": {
            "method": summary.method,
            "benchmark": summary.benchmark,
            "original_size": summary.original_size,
            "original_ports": summary.original_ports,
            "rom_size": summary.rom_size,
            "rom_nnz": summary.rom_nnz,
            "matched_moments": summary.matched_moments,
            "reusable": summary.reusable,
            "mor_seconds": summary.mor_seconds,
            "ortho_inner_products": summary.ortho_inner_products,
            "status": summary.status,
            "notes": summary.notes,
            # ``extra`` must itself be JSON-serializable; harness records
            # only put scalars and strings in it.
            "extra": summary.extra,
        },
    }
    return {}, meta


def _decode_summary(data, meta: dict) -> ReductionSummary:
    payload = dict(meta["summary"])
    return ReductionSummary(**payload)


_ENCODERS = (
    (StructuredROM, _encode_rom),
    (ReductionSummary, _encode_summary),
)

_DECODERS = {
    _KIND_ROM: _decode_rom,
    _KIND_SUMMARY: _decode_summary,
}


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def save_artifact(model, path: str | Path) -> Path:
    """Save a ROM (or summary) to a versioned ``.npz`` artifact.

    Supported types: every :class:`~repro.mor.base.StructuredROM`
    (:class:`~repro.mor.base.ReducedSystem`,
    :class:`~repro.core.structured_rom.BlockDiagonalROM`,
    :class:`~repro.partition.assemble.PartitionedROM`) and
    :class:`~repro.mor.base.ReductionSummary`.  A border-free ROM's modal
    form is built first (on ``model`` itself) and stored with it.  The
    write is atomic: the container is assembled in a temporary file next
    to ``path`` and moved into place with ``os.replace``, so concurrent
    readers never see a partial artifact.
    """
    for cls, encoder in _ENCODERS:
        if isinstance(model, cls):
            arrays, meta = encoder(model)
            break
    else:
        raise ValidationError(
            f"cannot serialize {type(model).__name__}; supported kinds are "
            "StructuredROM (every ROM) and ReductionSummary")
    meta["schema"] = SCHEMA_VERSION
    meta["fingerprint"] = _payload_fingerprint(arrays, meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(
                handle, **{_META_KEY: np.asarray([json.dumps(meta)])},
                **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _read_container(path: Path):
    """Open an artifact container, mapping low-level failures to
    :class:`~repro.exceptions.ValidationError`."""
    if not path.exists():
        raise ValidationError(f"no such artifact: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError,
            KeyError) as exc:
        raise ValidationError(
            f"{path} is not a readable model artifact "
            f"(corrupted or truncated): {exc}") from exc
    if _META_KEY not in payload:
        raise ValidationError(
            f"{path} does not look like a model artifact (missing metadata)")
    try:
        meta = json.loads(str(payload.pop(_META_KEY)[0]))
    except (json.JSONDecodeError, IndexError) as exc:
        raise ValidationError(
            f"{path} carries unreadable artifact metadata: {exc}") from exc
    return payload, meta


def _check_schema_and_integrity(path: Path, payload: dict,
                                meta: dict) -> None:
    schema = meta.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise ValidationError(
            f"{path} uses artifact schema version {schema!r}; this build "
            f"reads versions {', '.join(map(str, _READABLE_SCHEMAS))} — "
            "regenerate the artifact")
    stored = meta.get("fingerprint")
    actual = _payload_fingerprint(payload, meta)
    if stored != actual:
        raise ValidationError(
            f"{path} failed its integrity check (stored fingerprint "
            f"{stored!r}, recomputed {actual!r}); the artifact is corrupted")


def load_artifact(path: str | Path):
    """Load a model artifact previously written by :func:`save_artifact`.

    Verifies the schema version and the content fingerprint before
    decoding, so corrupted, truncated or incompatibly-versioned artifacts
    raise :class:`~repro.exceptions.ValidationError` instead of producing a
    silently wrong model.
    """
    path = Path(path)
    payload, meta = _read_container(path)
    _check_schema_and_integrity(path, payload, meta)
    kind = meta.get("kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ValidationError(
            f"{path} holds unknown artifact kind {kind!r}")
    return decoder(payload, meta)


def artifact_meta(path: str | Path) -> dict:
    """Read an artifact's metadata record (schema, kind, fingerprint, model
    attributes) without decoding the payload arrays."""
    path = Path(path)
    payload, meta = _read_container(path)
    _check_schema_and_integrity(path, payload, meta)
    return meta
