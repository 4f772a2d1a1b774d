"""Frequency-domain error metrics between a full model and its ROMs.

The paper's Fig. 5(b) plots the relative error
``|H_r(j w) - H(j w)| / |H(j w)|`` of one transfer-matrix entry over
frequency; these helpers compute that curve and scalar summaries of it for
any pair of systems exposing ``transfer_function`` / ``transfer_entry``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["relative_error_curve", "max_relative_error",
           "rom_agreement_report"]


def relative_error_curve(full, rom, omegas, *, output: int = 0,
                         port: int = 0, floor: float = 1e-300) -> np.ndarray:
    """Relative error of one transfer-matrix entry over a frequency grid.

    Parameters
    ----------
    full, rom:
        Systems exposing ``transfer_entry(s, output, port)`` (all models in
        this library do).
    omegas:
        Angular frequencies (rad/s).
    output, port:
        Transfer-matrix entry to compare (the paper uses port (1, 2), i.e.
        output 0 / port 1 with zero-based indexing).
    floor:
        Denominator floor avoiding division by an exactly-zero reference.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValidationError("omegas must be a non-empty 1-D array")
    errors = np.empty(omegas.shape[0])
    for k, omega in enumerate(omegas):
        s = 1j * float(omega)
        h_full = complex(full.transfer_entry(s, output, port))
        h_rom = complex(rom.transfer_entry(s, output, port))
        errors[k] = abs(h_rom - h_full) / max(abs(h_full), floor)
    return errors


def max_relative_error(full, rom, omegas, *, output: int = 0,
                       port: int = 0) -> float:
    """Maximum of :func:`relative_error_curve` over the grid."""
    return float(np.max(relative_error_curve(full, rom, omegas,
                                             output=output, port=port)))


def rom_agreement_report(reference, candidate, omegas, *,
                         floor: float = 1e-300) -> dict[str, object]:
    """Full-matrix agreement of two models over a frequency grid.

    The validation record behind the partitioned-reduction acceptance
    check: a :class:`~repro.partition.assemble.PartitionedROM` must track
    the monolithic ROM it shards, so the whole ``p x m`` transfer matrix
    of both models is sampled at each ``omega`` and the worst entrywise
    relative deviation (against the per-frequency largest reference
    entry, which avoids blowing up noise-level entries into headline
    numbers) is reported along with where it occurred.

    Parameters
    ----------
    reference, candidate:
        Any two models exposing ``transfer_function`` with matching port
        and output counts (full systems and all ROM flavours qualify).
    omegas:
        Angular frequencies (rad/s) to compare at.
    floor:
        Denominator floor guarding an identically-zero reference matrix.

    Returns
    -------
    dict
        ``max_rel_error`` (the acceptance number), ``worst_omega`` where
        it occurred, and the per-frequency ``rel_errors`` curve.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValidationError("omegas must be a non-empty 1-D array")
    rel_errors = np.empty(omegas.shape[0])
    for idx, omega in enumerate(omegas):
        s = 1j * float(omega)
        H_ref = np.asarray(reference.transfer_function(s))
        H_cand = np.asarray(candidate.transfer_function(s))
        if H_ref.shape != H_cand.shape:
            raise ValidationError(
                f"transfer matrices have different shapes {H_ref.shape} "
                f"vs {H_cand.shape}")
        scale = max(float(np.max(np.abs(H_ref))), floor)
        rel_errors[idx] = float(np.max(np.abs(H_cand - H_ref))) / scale
    worst = int(np.argmax(rel_errors))
    return {
        "max_rel_error": float(rel_errors[worst]),
        "worst_omega": float(omegas[worst]),
        "rel_errors": rel_errors,
    }
