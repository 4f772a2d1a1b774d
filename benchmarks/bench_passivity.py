"""Extension benchmark: structured passivity verification (paper Sec. III-D).

The paper argues that the block-diagonal structure makes passivity
verification and enforcement cheap: each block is eigen-diagonalised at
O(l^3) (the ROM's modal form), after which a Laguerre-grid test over the
whole size-q ROM costs only O(q^2).  This harness times that scan on a
ckt1-class BDSM ROM and, as a contrast, the Hamiltonian test of the whole
ROM and of each block's driving-point contribution, and records the
verdicts.

Run with ``pytest benchmarks/bench_passivity.py --benchmark-only``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import results_path
from repro import bdsm_reduce, hamiltonian_passivity_test, laguerre_passivity_scan
from repro.io import write_table
from repro.mor.base import ReducedSystem

N_MOMENTS = 4

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def impedance_rom(ckt1):
    """The ckt1 BDSM ROM with outputs flipped so it represents +Z(s)."""
    rom, _, _ = bdsm_reduce(ckt1, N_MOMENTS)
    for block in rom.blocks:
        block.L = -block.L
    return rom


def test_structured_laguerre_scan(benchmark, impedance_rom):
    """Block-wise diagonalisation + Laguerre-grid scan of the whole ROM."""
    report = benchmark.pedantic(
        lambda: laguerre_passivity_scan(impedance_rom, n_points=24),
        rounds=1, iterations=1)
    _RESULTS["laguerre"] = {
        "method": "structured Laguerre scan",
        "ROM size": impedance_rom.size,
        "worst eigenvalue": report.worst_eigenvalue,
        "passive": report.is_passive,
    }
    assert len(report.sampled_frequencies) == 24


def test_whole_rom_hamiltonian(benchmark, impedance_rom):
    """Hamiltonian test of the whole ROM on its modal realisation."""
    report = benchmark.pedantic(
        lambda: hamiltonian_passivity_test(impedance_rom),
        rounds=1, iterations=1)
    _RESULTS["whole"] = {
        "method": "whole-ROM Hamiltonian test",
        "ROM size": impedance_rom.size,
        "worst eigenvalue": report.worst_eigenvalue,
        "passive": report.is_passive,
    }


def test_per_block_hamiltonian(benchmark, impedance_rom):
    """Per-block driving-point Hamiltonian tests (each block is l x l)."""

    def run():
        worst = float("inf")
        for block in impedance_rom.blocks:
            # The block's response at the port that drives it: a one-port
            # ROM of its own.
            driving_point = ReducedSystem(block.C, block.G, block.B,
                                          block.L[[block.index]])
            report = hamiltonian_passivity_test(driving_point, n_samples=16)
            worst = min(worst, report.worst_eigenvalue)
        return worst

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS["per_block"] = {
        "method": "per-block Hamiltonian test",
        "ROM size": impedance_rom.size,
        "worst eigenvalue": worst,
        "passive": worst >= -1e-10,
    }


def test_passivity_report(benchmark, ckt1, impedance_rom):
    """Write the passivity comparison table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = list(_RESULTS.values())
    assert rows, "scan benchmarks must run before the report"
    text = write_table(rows, results_path("passivity.txt"),
                       title=f"passivity verification ({ckt1.name}, "
                             f"l={N_MOMENTS})")
    print("\n" + text)
    # the per-block driving-point contributions of an RC grid reduced by
    # congruence are passive (each is a sum of positive-residue poles)
    assert _RESULTS["per_block"]["passive"]
