"""Passivity post-processing of a BDSM ROM (the paper's Sec. III-D workflow).

The reduced immittance model of a power grid may be weakly non-passive after
a one-sided congruence projection.  Thanks to the block-diagonal structure,
checking and (if needed) repairing passivity is cheap: every block is
eigen-diagonalised once at ``O(l^3)`` (the ROM's modal form), the whole ROM
is scanned on a Laguerre frequency grid, and a violation is repaired by a
feedthrough shift, which leaves a ROM of the same type with one static block
added.

Run with::

    python examples/passivity_workflow.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    bdsm_reduce,
    enforce_passivity,
    hamiltonian_passivity_test,
    laguerre_passivity_scan,
    make_benchmark,
)
from repro.mor.base import ReducedSystem


def _print_scan(title: str, scan) -> None:
    print(title)
    print(f"  passive: {scan.is_passive}")
    print(f"  worst Hermitian-part eigenvalue: {scan.worst_eigenvalue:.3e} "
          f"at {scan.worst_frequency:.3e} rad/s")


def main() -> None:
    system = make_benchmark("ckt1", scale="smoke")
    rom, _, _ = bdsm_reduce(system, n_moments=4)
    print(f"benchmark: {system.name} -> BDSM ROM with {rom.n_blocks} blocks "
          f"of order {rom.n_moments}\n")

    # Our MNA sign convention gives H = -Z for current-driven port voltages;
    # flip the outputs so the scanned quantity is the impedance matrix.
    for block in rom.blocks:
        block.L = -block.L

    poles = rom.poles()
    finite = poles[np.isfinite(poles)]
    print(f"stability: {finite.size} finite poles, max Re "
          f"{np.max(finite.real):.3e} -> "
          f"{'stable' if np.all(finite.real < 0.0) else 'UNSTABLE'}\n")

    # --- per-block Hamiltonian test -----------------------------------------
    # Each block feeds one port; its driving-point contribution (output at
    # the same port it is driven from) is a 1x1 immittance that must be
    # positive real, so that is what the Hamiltonian test examines.
    print("per-block Hamiltonian test of the driving-point contribution")
    for block in rom.blocks[:5]:        # first few blocks, for illustration
        driving_point = ReducedSystem(block.C, block.G, block.B,
                                      block.L[[block.index]])
        report = hamiltonian_passivity_test(driving_point)
        status = "passive" if report.is_passive else "NON-passive"
        print(f"  block {block.index:>3}: {status}, "
              f"worst eig {report.worst_eigenvalue:.2e}")

    # --- cheap structured scan over the whole ROM ---------------------------
    # Passive blocks do not make a passive ROM: the cross-port terms can
    # pull the Hermitian part of the whole matrix below zero.
    print()
    scan = laguerre_passivity_scan(rom, n_points=24)
    _print_scan("Laguerre-grid scan of the block-diagonal ROM", scan)
    if scan.is_passive:
        print("\nNo enforcement needed.")
        return

    # --- whole-ROM Hamiltonian test + enforcement ----------------------------
    report = hamiltonian_passivity_test(rom)
    print(f"\nwhole-ROM Hamiltonian test: passive={report.is_passive}, "
          f"worst eig {report.worst_eigenvalue:.3e} at "
          f"{report.worst_frequency:.3e} rad/s")
    # Enforce from the more negative of the two verdicts.
    worst = min((scan, report), key=lambda r: r.worst_eigenvalue)
    result = enforce_passivity(rom, worst)
    repaired = result.model
    print(f"enforced with feedthrough shift {result.perturbation:.3e}: "
          f"{repaired.n_blocks} blocks (one static), "
          f"{int(np.sum(np.isinf(repaired.poles())))} poles at infinity\n")
    _print_scan("Laguerre-grid re-scan of the enforced ROM",
                laguerre_passivity_scan(repaired, n_points=24))
    print(f"  Hamiltonian re-test passive: "
          f"{hamiltonian_passivity_test(repaired).is_passive}")


if __name__ == "__main__":
    main()
