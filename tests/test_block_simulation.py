"""Transient simulation of block-diagonal ROMs (repro.core.simulation).

A BDSM ROM simulates through the one generic integrator: these tests pin
that ``simulate_blockwise`` is exactly that integrator, that the sparse
block-diagonal pencil agrees with the ROM's dense equivalent, and that the
whole transient costs one factorisation whatever the block count.
"""

import numpy as np
import pytest

from repro.analysis import SourceBank, TransientAnalysis
from repro.analysis.sources import PulseSource, StepSource
from repro.core import bdsm_reduce
from repro.core.simulation import simulate_blockwise
from repro.core.structured_rom import BlockDiagonalROM, ROMBlock
from repro.exceptions import SimulationError
from repro.linalg.backends import FactorizationCache, temporary_default_cache

METHODS = ["backward_euler", "trapezoidal"]


@pytest.fixture()
def rom(rc_grid_system):
    rom, _, _ = bdsm_reduce(rc_grid_system, 3)
    return rom


def _step_bank(n_ports: int) -> SourceBank:
    return SourceBank.uniform(n_ports,
                              StepSource(1e-3, t0=2e-10, rise_time=1e-10))


def _mixed_order_rom(orders=(1, 4, 2, 3), n_outputs: int = 3,
                     seed: int = 7) -> BlockDiagonalROM:
    """A stable ROM of hand-built blocks whose orders differ."""
    rng = np.random.default_rng(seed)
    blocks = []
    for index, l in enumerate(orders):
        C = np.eye(l) + np.diag(rng.uniform(0.0, 1.0, l))
        K = rng.standard_normal((l, l))
        G = -(K @ K.T + l * np.eye(l))
        blocks.append(ROMBlock(index=index, C=C, G=G,
                               b=rng.standard_normal(l),
                               L=rng.standard_normal((n_outputs, l))))
    return BlockDiagonalROM(blocks, n_outputs=n_outputs, name="mixed")


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


class TestSimulateBlockwise:
    @pytest.mark.parametrize("method", METHODS)
    def test_is_the_generic_integrator(self, rom, method):
        bank = _step_bank(rom.n_ports)
        generic = TransientAnalysis(t_stop=2e-9, dt=5e-11,
                                    method=method).run(rom, bank)
        blockwise = simulate_blockwise(rom, bank, t_stop=2e-9, dt=5e-11,
                                       method=method)
        assert np.array_equal(blockwise.outputs, generic.outputs)
        assert np.array_equal(blockwise.times, generic.times)
        assert blockwise.method == method

    def test_matches_full_model(self, rc_grid_system, rom):
        bank = SourceBank.uniform(
            rom.n_ports,
            PulseSource(2e-3, period=1e-9, width=3e-10, rise=1e-10,
                        fall=1e-10))
        full = TransientAnalysis(t_stop=2e-9, dt=5e-11).run(
            rc_grid_system, bank)
        reduced = simulate_blockwise(rom, bank, t_stop=2e-9, dt=5e-11)
        scale = max(float(np.max(np.abs(full.outputs))), 1e-15)
        assert reduced.max_abs_error_to(full) < 1e-3 * scale

    def test_zero_input_stays_zero(self, rom):
        result = simulate_blockwise(rom, SourceBank(rom.n_ports),
                                    t_stop=1e-9, dt=1e-10)
        assert np.allclose(result.outputs, 0.0)

    def test_rejects_non_structured_rom(self, rc_grid_system):
        from repro.mor import prima_reduce
        dense_rom, _, _ = prima_reduce(rc_grid_system, 2)
        bank = SourceBank(rc_grid_system.n_ports)
        with pytest.raises(SimulationError):
            simulate_blockwise(dense_rom, bank, t_stop=1e-9, dt=1e-10)

    def test_rejects_bad_time_grid(self, rom):
        bank = SourceBank(rom.n_ports)
        with pytest.raises(SimulationError):
            simulate_blockwise(rom, bank, t_stop=0.0, dt=1e-10)
        with pytest.raises(SimulationError):
            simulate_blockwise(rom, bank, t_stop=1e-9, dt=2e-9)

    def test_rejects_bad_method(self, rom):
        bank = SourceBank(rom.n_ports)
        with pytest.raises(SimulationError):
            simulate_blockwise(rom, bank, t_stop=1e-9, dt=1e-10,
                               method="forward_euler")

    def test_rejects_port_mismatch(self, rom):
        with pytest.raises(SimulationError):
            simulate_blockwise(rom, SourceBank(rom.n_ports + 1),
                               t_stop=1e-9, dt=1e-10)


class TestBlockPencilMatchesDense:
    """The sparse block-diagonal pencil and the ROM's dense equivalent
    step the same system."""

    @pytest.mark.parametrize("method", METHODS)
    def test_bdsm_rom(self, rom, method):
        bank = _step_bank(rom.n_ports)
        analysis = TransientAnalysis(t_stop=2e-9, dt=5e-11, method=method)
        structured = analysis.run(rom, bank)
        dense = analysis.run(rom.to_reduced_system(), bank)
        _assert_close(structured.outputs, dense.outputs)

    @pytest.mark.parametrize("method", METHODS)
    def test_mixed_block_orders(self, method):
        rom = _mixed_order_rom()
        assert len({block.order for block in rom.blocks}) > 1
        bank = SourceBank.uniform(rom.n_ports, StepSource(1.0))
        analysis = TransientAnalysis(t_stop=2.0, dt=0.05, method=method)
        structured = analysis.run(rom, bank)
        dense = analysis.run(rom.to_reduced_system(), bank)
        assert np.max(np.abs(dense.outputs)) > 0.0
        _assert_close(structured.outputs, dense.outputs)


class TestComplexOutputs:
    def test_complex_output_map_is_kept(self):
        """``ROMBlock`` keeps a complex ``L``; its samples must not be
        truncated to their real part."""
        rng = np.random.default_rng(3)
        K = rng.standard_normal((3, 3))
        block = dict(index=0, C=np.eye(3), G=-(K @ K.T + 3 * np.eye(3)),
                     b=np.ones(3))

        def simulate(L):
            rom = BlockDiagonalROM([ROMBlock(L=L, **block)], n_outputs=1)
            return simulate_blockwise(
                rom, SourceBank.uniform(1, StepSource(1.0)),
                t_stop=1.0, dt=0.1).outputs

        complex_out = simulate(np.array([[1.0, 1j, 0.0]]))
        assert np.iscomplexobj(complex_out)
        expected = (simulate(np.array([[1.0, 0.0, 0.0]]))
                    + 1j * simulate(np.array([[0.0, 1.0, 0.0]])))
        assert np.max(np.abs(expected.imag)) > 0.0
        assert np.allclose(complex_out, expected, rtol=1e-12, atol=0.0)


class TestOneFactorisation:
    @pytest.mark.parametrize("system", ["rc_grid_system", "smoke_benchmark"])
    def test_one_miss_then_a_hit(self, system, request):
        """Capacity 2 is far below every ROM's block count: per-block
        factors would thrash it, the assembled pencil takes one slot."""
        rom, _, _ = bdsm_reduce(request.getfixturevalue(system), 2)
        assert rom.n_blocks > 2
        bank = _step_bank(rom.n_ports)
        with temporary_default_cache(FactorizationCache(capacity=2)) as cache:
            cold = simulate_blockwise(rom, bank, t_stop=1e-9, dt=1e-10)
            cold_stats = cache.stats()
            warm = simulate_blockwise(rom, bank, t_stop=1e-9, dt=1e-10)
            warm_stats = cache.stats()
        assert (cold_stats.misses, cold_stats.hits) == (1, 0)
        assert (warm_stats.misses, warm_stats.hits) == (1, 1)
        assert np.array_equal(cold.outputs, warm.outputs)
