"""Pinned MNA stamps: every grid the library builds stamps bit-identical
``C``, ``G``, ``B``, ``L`` and state/port/output names.

The expected fingerprints live in ``tests/data/stamp_fingerprints.json``.
Regenerate them (only when a stamp change is intended) with::

    PYTHONPATH=src python tests/test_stamp_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.circuit import (
    PowerGridSpec,
    assemble_mna,
    build_power_grid,
    make_multidomain_spec,
)
from repro.circuit.benchmarks import make_benchmark_netlist
from repro.circuit.parser import parse_netlist, write_netlist
from repro.linalg.backends import matrix_fingerprint

DATA = Path(__file__).parent / "data" / "stamp_fingerprints.json"


def _grids():
    """``label -> zero-argument netlist builder`` for every pinned grid."""
    grids = {
        # The session fixtures ``rc_grid_system`` / ``rlc_grid_system``.
        "rc_grid": lambda: build_power_grid(PowerGridSpec(
            rows=6, cols=6, n_ports=6, n_pads=4, package_inductance=0.0,
            seed=7, name="rc-grid")),
        "rlc_grid": lambda: build_power_grid(PowerGridSpec(
            rows=7, cols=7, n_ports=8, n_pads=4, package_inductance=1e-12,
            seed=11, name="rlc-grid")),
        # The end-to-end benchmark's multi-domain grid (seed 3).
        "multidomain-40x40-64": lambda: build_power_grid(
            make_multidomain_spec(40, 40, 64, seed=3,
                                  name="multidomain-40x40-64")),
        "parsed-ckt1-smoke": lambda: parse_netlist(
            write_netlist(make_benchmark_netlist("ckt1", "smoke"))),
    }
    for name in ("ckt1", "ckt2", "ckt3", "ckt4", "ckt5"):
        for scale in ("smoke", "laptop"):
            grids[f"{name}-{scale}"] = (
                lambda name=name, scale=scale:
                make_benchmark_netlist(name, scale))
    return grids


def _names_digest(names) -> str:
    return hashlib.blake2b("\n".join(names).encode(),
                           digest_size=16).hexdigest()


def stamp_fingerprint(netlist) -> dict[str, str]:
    system = assemble_mna(netlist)
    record = {key: matrix_fingerprint(getattr(system, key))
              for key in ("C", "G", "B", "L")}
    for key in ("state_names", "port_names", "output_names"):
        record[key] = _names_digest(getattr(system, key))
    return record


@pytest.mark.parametrize("label", sorted(_grids()))
def test_stamp_is_pinned(label):
    expected = json.loads(DATA.read_text())[label]
    assert stamp_fingerprint(_grids()[label]()) == expected


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {label: stamp_fingerprint(build())
         for label, build in sorted(_grids().items())}, indent=1) + "\n")
