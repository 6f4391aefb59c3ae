"""Waveform synthesis: buffers, carriers, composition, normalization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    CarrierSpec,
    ConfigurationError,
    DegenerateInputError,
    IqBuffer,
    compose_multicarrier,
    generate_carrier,
    normalize_power,
)
from aphdpd.blocks import BLOCK_LEN
from conftest import reference_generate_carrier

FS = 61.44e6


class TestIqBuffer:
    def test_stores_complex64_contiguous(self):
        buf = IqBuffer(np.arange(4, dtype=np.complex128)[::1], 1e6)
        assert buf.samples.dtype == np.complex64
        assert buf.samples.flags.c_contiguous
        assert len(buf) == 4

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            IqBuffer(np.array([1.0, np.inf], dtype=np.complex64), 1e6)
        with pytest.raises(ConfigurationError):
            IqBuffer(np.array([np.nan + 0j]), 1e6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize(
        "index", [0, BLOCK_LEN - 1, BLOCK_LEN, 2 * BLOCK_LEN + 2], ids=lambda i: f"at{i}"
    )
    def test_rejects_nonfinite_in_either_part_anywhere(self, bad, part, index):
        """One non-finite part is found at the first and the last sample and
        on both sides of a check-block boundary."""
        samples = np.full(2 * BLOCK_LEN + 3, 0.5 - 0.25j, dtype=np.complex64)
        setattr(samples[index : index + 1], part, bad)
        with pytest.raises(ConfigurationError, match="finite"):
            IqBuffer(samples, 1e6)

    def test_rejects_bad_rate(self):
        """A NaN or infinite rate would reach a sidecar as NaN or Infinity,
        which `read_iq` rejects, and Welch's bin frequencies."""
        for rate in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            with pytest.raises(ConfigurationError, match="must be finite and positive"):
                IqBuffer(np.zeros(4, np.complex64), rate)

    def test_rms_double_precision(self):
        buf = IqBuffer(np.full(1000, 3 + 4j, np.complex64), 1e6)
        assert buf.rms() == pytest.approx(5.0, rel=1e-7)

    def test_empty_ok(self):
        assert len(IqBuffer(np.empty(0, np.complex64), 1e6)) == 0
        assert IqBuffer(np.empty(0, np.complex64), 1e6).rms() == 0.0


class TestCarrierSpec:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            CarrierSpec(0.0, 0.0)

    def test_nyquist_check(self):
        CarrierSpec(10e6, 9e6).check_fits(FS)  # edge at 14.5 MHz < 30.72 MHz
        with pytest.raises(ConfigurationError):
            CarrierSpec(28e6, 9e6).check_fits(FS)


class TestGenerateCarrier:
    def test_unit_power_and_determinism(self):
        spec = CarrierSpec(0.0, 9e6)
        a = generate_carrier(spec, 50_000, FS, seed=7)
        b = generate_carrier(spec, 50_000, FS, seed=7)
        assert a.rms() == pytest.approx(1.0, abs=1e-3)
        assert_array_equal(a.samples, b.samples)
        c = generate_carrier(spec, 50_000, FS, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    def test_power_db_scaling(self):
        spec = CarrierSpec(0.0, 9e6, power_db=-6.0)
        buf = generate_carrier(spec, 50_000, FS, seed=3)
        assert buf.rms() == pytest.approx(10 ** (-6 / 20), abs=2e-3)

    def test_occupied_band_containment(self):
        """At least 99% of the energy inside the band; the tails are far
        below a -20 dB containment bound."""
        spec = CarrierSpec(8e6, 5e6)
        buf = generate_carrier(spec, 1 << 16, FS, seed=11)
        spectrum = np.fft.fft(buf.samples.astype(np.complex128))
        freqs = np.fft.fftfreq(len(buf), d=1 / FS)
        in_band = np.abs(freqs - 8e6) <= 2.5e6 + FS / len(buf)
        total = np.sum(np.abs(spectrum) ** 2)
        inside = np.sum(np.abs(spectrum[in_band]) ** 2)
        assert inside / total >= 0.99
        assert (total - inside) / total <= 10 ** (-20 / 10)

    @pytest.mark.parametrize("offset", [0.0, 5e6, -3e6])
    def test_matches_whole_buffer_oracle(self, offset):
        """The blockwise shift and gain give the whole-buffer bits, across
        block edges and a partial last block."""
        spec = CarrierSpec(offset, 9e6, power_db=-4.5)
        n = 3 * BLOCK_LEN + 1234
        buf = generate_carrier(spec, n, FS, seed=21)
        want = reference_generate_carrier(spec, n, FS, 21)
        assert_array_equal(buf.samples.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("offset", [0.0, 5e6])
    def test_synthesis_memory_is_bounded(self, offset):
        """One complex128 working buffer plus the temporaries of its mean
        power: at 1 Mi samples the peak stays within 4.5x the output."""
        spec = CarrierSpec(offset, 9e6, power_db=-3.0)
        tracemalloc.start()
        try:
            buf = generate_carrier(spec, 1 << 20, FS, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * buf.samples.nbytes

    @settings(max_examples=25, deadline=None)
    @given(
        offset=st.floats(-20e6, 20e6),
        bandwidth=st.floats(0.5e6, 10e6),
        seed=st.integers(0, 2**31),
    )
    def test_power_property(self, offset, bandwidth, seed):
        if abs(offset) + bandwidth / 2 > FS / 2:
            return
        buf = generate_carrier(CarrierSpec(offset, bandwidth), 20_000, FS, seed)
        assert buf.rms() == pytest.approx(1.0, abs=1e-3)


class TestCompose:
    def test_unit_power(self):
        specs = [CarrierSpec(-5e6, 2.7e6), CarrierSpec(5e6, 2.7e6)]
        buf = compose_multicarrier(specs, 100_000, FS, seed=5)
        assert buf.rms() == pytest.approx(1.0, abs=1e-3)

    def test_single_spec_matches_generate(self):
        spec = CarrierSpec(3e6, 4e6)
        composed = compose_multicarrier([spec], 30_000, FS, seed=9)
        direct = generate_carrier(spec, 30_000, FS, seed=9)
        assert_allclose(composed.samples, direct.samples, rtol=1e-5, atol=1e-6)

    def test_carrier_seeds_are_independent(self):
        """Swapping the carrier order changes which seed each carrier gets."""
        a = CarrierSpec(-5e6, 2.7e6)
        b = CarrierSpec(5e6, 2.7e6)
        ab = compose_multicarrier([a, b], 30_000, FS, seed=4)
        ba = compose_multicarrier([b, a], 30_000, FS, seed=4)
        assert not np.array_equal(ab.samples, ba.samples)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            compose_multicarrier([], 1000, FS, seed=1)


class TestNormalizePower:
    def test_hits_target(self, rng):
        x = (rng.normal(size=5000) + 1j * rng.normal(size=5000)).astype(np.complex64)
        out = normalize_power(IqBuffer(x, FS), 0.15)
        assert out.rms() == pytest.approx(0.15, rel=1e-6)

    def test_idempotent_to_the_bit(self, rng):
        """Re-normalizing an already-normalized buffer is a unit scale."""
        x = (rng.normal(size=5000) + 1j * rng.normal(size=5000)).astype(np.complex64)
        once = normalize_power(IqBuffer(x, FS), 0.15)
        twice = normalize_power(once, once.rms())
        assert_array_equal(once.samples, twice.samples)

    def test_zero_buffer_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_power(IqBuffer(np.zeros(16, np.complex64), FS), 1.0)
