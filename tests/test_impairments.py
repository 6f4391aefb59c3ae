"""Transmitter chain models, checked against hand-computed values."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    ConfigurationError,
    IqBuffer,
    IqModulatorModel,
    PaModel,
    TxChain,
    run_tx_chain,
)
from aphdpd.blocks import BLOCK_LEN, SERIAL_CHUNK_LEN
from conftest import iq_modulate, pa_evaluate

REF_PA = PaModel(
    alpha1=0.9490 - 0.0197j,
    alpha3=0.4885 + 0.1071j,
    alpha5=-1.0156 - 0.0474j,
)


class TestPaModel:
    def test_unit_input(self):
        # sum of the three alphas: (0.9490+0.4885-1.0156) + (-0.0197+0.1071-0.0474)j
        assert pa_evaluate(1.0, REF_PA) == pytest.approx(0.4219 + 0.0400j, abs=1e-6)

    def test_small_signal(self):
        got = pa_evaluate(0.1, REF_PA)
        want = 0.1 * (REF_PA.alpha1 + 0.01 * REF_PA.alpha3 + 1e-4 * REF_PA.alpha5)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.0953783 - 0.0018634j, abs=1e-6)

    def test_array_elementwise(self, rng):
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        y = pa_evaluate(x, REF_PA)
        for i in (0, 77, 199):
            assert y[i] == pytest.approx(pa_evaluate(complex(x[i]), REF_PA))

    def test_odd_symmetry(self, rng):
        x = 0.3 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        assert_allclose(pa_evaluate(-x, REF_PA), -pa_evaluate(x, REF_PA), rtol=1e-12)

    def test_linear_pa_is_scaling(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert_allclose(pa_evaluate(x, PaModel(alpha1=2.0 - 1.0j)), (2.0 - 1.0j) * x, rtol=1e-12)

    def test_coefficients_stored_complex(self):
        """Real, integer and numpy coefficients are all stored as Python
        complex numbers, with their values."""
        pa = PaModel(np.float32(0.5), 2, np.complex64(-0.25 + 0.5j))
        assert [type(a) for a in (pa.alpha1, pa.alpha3, pa.alpha5)] == [complex] * 3
        assert (pa.alpha1, pa.alpha3, pa.alpha5) == (0.5 + 0j, 2 + 0j, -0.25 + 0.5j)
        assert PaModel(1.0) == PaModel(1 + 0j, 0j, 0j)

    def test_zero_alpha1_rejected(self):
        with pytest.raises(ConfigurationError):
            PaModel(alpha1=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PaModel(1.0, alpha3=complex("inf")),
            lambda: PaModel(1.0, alpha5=complex("nan")),
            lambda: IqModulatorModel(gain_imbalance_db=float("inf")),
            lambda: IqModulatorModel(phase_imbalance_deg=float("nan")),
            lambda: IqModulatorModel(lo_leakage=complex(0.0, float("-inf"))),
        ],
        ids=["alpha3-inf", "alpha5-nan", "gain-inf", "phase-nan", "leakage-inf"],
    )
    def test_non_finite_parameters_rejected(self, make):
        """The chain's output is finite by construction only from finite
        constants: an infinite constant times a finite sample gives an
        infinite sample without any overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="must be finite"):
                make()


class TestIqModulator:
    def test_mixing_coefficients(self):
        m = IqModulatorModel(gain_imbalance_db=1.0, phase_imbalance_deg=5.0)
        g = 10.0 ** (1.0 / 20.0)
        rot = np.exp(1j * np.deg2rad(5.0))
        assert m.k1 == pytest.approx((1 + g * rot) / 2, abs=1e-15)
        assert m.k2 == pytest.approx((1 - g * rot) / 2, abs=1e-15)
        assert m.k1 + m.k2 == pytest.approx(1.0, abs=1e-15)

    def test_ideal_modulator_is_identity(self, rng):
        """The default modulator has no imbalance and no leakage."""
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        ideal = IqModulatorModel()
        assert (ideal.k1, ideal.k2) == (1.0, 0.0)
        assert_allclose(iq_modulate(x, ideal), x, rtol=0, atol=0)

    def test_not_ideal_with_leakage(self, rng):
        """Leakage alone adds its constant to every sample and nothing else."""
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        leaky = IqModulatorModel(lo_leakage=0.0112 + 0.0112j)
        assert_allclose(iq_modulate(x, leaky), x + (0.0112 + 0.0112j), rtol=0, atol=0)

    def test_leakage_shifts_output(self):
        m = IqModulatorModel(lo_leakage=0.25 - 0.125j)
        assert iq_modulate(0.0, m) == pytest.approx(0.25 - 0.125j)

    def test_image_term(self):
        """Pure phase imbalance puts energy on conj(x)."""
        m = IqModulatorModel(phase_imbalance_deg=10.0)
        got = iq_modulate(1j, m)
        want = m.k1 * 1j + m.k2 * (-1j)
        assert got == pytest.approx(want, abs=1e-15)
        assert abs(m.k2) > 0


class TestTxChain:
    def test_composition_order(self, rng):
        x = 0.3 * (rng.normal(size=500) + 1j * rng.normal(size=500))
        buf = IqBuffer(x.astype(np.complex64), 61.44e6)
        chain = TxChain(
            modulator=IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j),
            pa=REF_PA,
        )
        got = run_tx_chain(buf, chain)
        want = pa_evaluate(iq_modulate(buf.samples, chain.modulator), chain.pa)
        assert_allclose(got.samples, want.astype(np.complex64), rtol=1e-6)
        assert got.sample_rate_hz == buf.sample_rate_hz

    def test_ideal_linear_chain_passthrough(self, rng):
        x = (0.1 * (rng.normal(size=100) + 1j * rng.normal(size=100))).astype(np.complex64)
        chain = TxChain(modulator=IqModulatorModel(), pa=PaModel(alpha1=1.0))
        out = run_tx_chain(IqBuffer(x, 1e6), chain)
        assert_allclose(out.samples, x, rtol=1e-7)

    def test_blocks_change_no_bits(self, rng):
        """Across block boundaries and a partial last block, on 1, 2 or 3
        workers, the output is the whole-buffer evaluation, bit for bit."""
        n = 2 * BLOCK_LEN + 123
        x = (0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(np.complex64)
        chain = TxChain(IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j), REF_PA)
        whole = pa_evaluate(iq_modulate(x, chain.modulator), chain.pa).astype(np.complex64)
        for n_workers in (1, 2, 3):
            got = run_tx_chain(IqBuffer(x, 1e6), chain, n_workers).samples
            assert_array_equal(got.view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize(
        "pa",
        [REF_PA, PaModel(alpha1=1.0), PaModel(2.0 - 1.0j, 0.25), PaModel(1.0, 0.3j, -0.2)],
        ids=["complex", "real", "mixed-alpha1", "mixed-alpha3"],
    )
    @pytest.mark.parametrize(
        "n",
        [
            1,
            SERIAL_CHUNK_LEN - 1,
            SERIAL_CHUNK_LEN + 1,
            3 * SERIAL_CHUNK_LEN + 5,
            BLOCK_LEN - 1,
            BLOCK_LEN + 1,
            3 * BLOCK_LEN + 5,
        ],
    )
    def test_equals_the_elementwise_functions(self, rng, pa, n):
        """Each block runs in its worker's workspace; the bits are those of
        pa_evaluate(iq_modulate(x)) cast to complex64, for real, complex
        and mixed PA coefficients, on one, two and eight workers, around
        the block lengths of one worker (16 Ki) and of more (64 Ki)."""
        assert all(type(a) is complex for a in (pa.alpha1, pa.alpha3, pa.alpha5))
        x = (0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(np.complex64)
        chain = TxChain(IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j), pa)
        want = pa_evaluate(iq_modulate(x, chain.modulator), pa).astype(np.complex64)
        for n_workers in (1, 2, 8):
            got = run_tx_chain(IqBuffer(x, 1e6), chain, n_workers).samples
            assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_memory_does_not_grow_with_length(self, rng):
        """Each worker computes its blocks in one workspace: on one or two
        workers the peak allocation beyond the output is the same at 1 Mi
        and 4 Mi samples."""
        x = (0.3 * (rng.normal(size=4 << 20) + 1j * rng.normal(size=4 << 20))).astype(
            np.complex64
        )
        chain = TxChain(IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j), REF_PA)

        def beyond_output(n, n_workers):
            tracemalloc.start()
            try:
                out = run_tx_chain(IqBuffer(x[:n], 1e6), chain, n_workers).samples
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        for n_workers in (1, 2):
            small, large = beyond_output(1 << 20, n_workers), beyond_output(4 << 20, n_workers)
            assert large <= 1.05 * small, (n_workers, small, large)

    def test_memory_is_output_plus_one_block(self, rng):
        """The double-precision temporaries live one block at a time: the
        peak allocation stays under twice the complex64 output."""
        x = np.zeros(16 * BLOCK_LEN, dtype=np.complex64)
        chain = TxChain(IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j), REF_PA)
        tracemalloc.start()
        try:
            run_tx_chain(IqBuffer(x, 1e6), chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes
