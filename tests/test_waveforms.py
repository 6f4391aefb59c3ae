"""Waveform synthesis: buffers, carriers, composition, normalization."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from aphdpd import waveforms
from aphdpd.blocks import BLOCK_LEN
from aphdpd.waveforms import _four_step_ifft, _ifft_in_place, _occupied_bins, _qam_spectrum
from conftest import reference_generate_carrier

FS = 61.44e6
ROOT = Path(__file__).resolve().parents[1]


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
        power: at 1 Mi samples the peak stays within 4.5x the output.

        tracemalloc sees numpy's arrays but not the C++ scratch of numpy's
        pocketfft, which `np.fft.ifft` allocates beside them, so
        `TestGenerateMemory` reads the peak RSS of a `dpd` process."""
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


class TestInverseFft:
    """`_ifft_in_place`: a four-step IFFT for a square length from 2048²
    samples up, numpy's `np.fft.ifft` for every other length."""

    @staticmethod
    def _spectrum(n: int) -> np.ndarray:
        rng = np.random.default_rng(n)
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    @pytest.mark.parametrize("side", [2048, 2100], ids=["2048sq", "2100sq"])
    def test_four_step_agrees_with_numpy(self, side):
        """Within 1e-13 of the RMS, at a power of two and at a side that is
        not one, nor a multiple of the batch (a short last batch and edge
        tiles); the bits differ, so the four-step ran."""
        x = self._spectrum(side * side)
        want = np.fft.ifft(x)
        _ifft_in_place(x)
        rms = np.sqrt(np.mean(np.abs(want) ** 2))
        assert np.max(np.abs(x - want)) <= 1e-13 * rms
        assert not np.array_equal(x, want)

    @pytest.mark.parametrize("n", [200_000, 2040 * 2040, 4_200_000])
    def test_other_lengths_keep_numpy_bits(self, n):
        """A square below 2048² and a non-square above it."""
        x = self._spectrum(n)
        want = np.fft.ifft(x)
        _ifft_in_place(x)
        assert_array_equal(x.view(np.uint64), want.view(np.uint64))

    def test_worker_count_changes_no_bit(self):
        """1, 2 and 8 workers, called past `_ifft_in_place`'s cap of 4."""
        spectrum = self._spectrum(2048 * 2048)
        results = []
        for workers in (1, 2, 8):
            x = spectrum.copy()
            _four_step_ifft(x.reshape(2048, 2048), workers)
            results.append(x.view(np.uint64))
        for got in results[1:]:
            assert_array_equal(got, results[0])

    def test_worker_count_is_capped(self, monkeypatch):
        """Each worker holds its own batch buffer, so a many-core host runs
        at most 4 and memory does not grow with the core count."""
        seen = []
        monkeypatch.setattr(waveforms, "usable_cpus", lambda: 32)
        monkeypatch.setattr(waveforms, "_four_step_ifft", lambda a, workers: seen.append(workers))
        _ifft_in_place(np.zeros(2048 * 2048, dtype=np.complex128))
        assert seen == [4]

    def test_band_limit_at_the_double_precision_floor(self):
        """A carrier's inverse FFT keeps the energy outside its occupied
        bins at the double-precision floor (numpy's is about 2e-31)."""
        n = 2048 * 2048
        x = _qam_spectrum(9e6, n, FS, np.random.default_rng(5))
        _ifft_in_place(x)
        power = np.abs(np.fft.fft(x)) ** 2
        outside = np.ones(n, dtype=bool)
        outside[_occupied_bins(n, FS, 9e6)] = False
        assert power[outside].sum() <= 1e-29 * power.sum()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
class TestGenerateMemory:
    def test_peak_rss_is_bounded(self, tmp_path):
        """`dpd generate` at 2048² samples peaks at most two 64 MB complex128
        buffers above a 4096-sample run: the spectrum it transforms in place
        and the float64 mean power. The peak is the process's ru_maxrss,
        which counts pocketfft's C++ scratch that tracemalloc cannot see;
        numpy's whole-length IFFT would add about two more buffers."""
        n = 2048 * 2048
        peaks = [self._peak_rss_bytes(tmp_path, size) for size in (4096, n)]
        assert peaks[1] - peaks[0] <= 2 * n * np.dtype(np.complex128).itemsize

    @staticmethod
    def _peak_rss_bytes(tmp_path, n_samples: int) -> int:
        doc = json.loads((ROOT / "configs" / "single_carrier.json").read_text())
        doc["n_samples"] = n_samples
        config = tmp_path / f"n{n_samples}.json"
        config.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("DPD_SEED", None)
        argv = [sys.executable, "-m", "aphdpd.cli", "generate", str(config), str(tmp_path / "s.iq")]
        with open(tmp_path / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            assert proc.returncode == 0, err.read()
        return usage.ru_maxrss * 1024


class TestOccupiedBins:
    @staticmethod
    def _bandwidths(n):
        """The shipped carriers' bandwidths, one narrower than a bin, the
        whole band, and a bandwidth whose half lands exactly on the
        frequency fftfreq gives bin n // 3, with one ulp either side."""
        on_bin = 2.0 * np.fft.fftfreq(n, 1.0 / FS)[n // 3]
        return [
            9e6,
            2.7e6,
            0.5 * FS / n,
            FS,
            on_bin,
            np.nextafter(on_bin, 0.0),
            np.nextafter(on_bin, np.inf),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4096, 12345, 200000, 200001])
    def test_equals_the_fftfreq_selection(self, n):
        for bandwidth in self._bandwidths(n):
            want = np.flatnonzero(np.abs(np.fft.fftfreq(n, 1.0 / FS)) <= bandwidth / 2.0)
            got = _occupied_bins(n, FS, bandwidth)
            assert_array_equal(got, want, err_msg=f"bandwidth {bandwidth!r}")

    def test_a_bin_on_the_band_edge_counts(self):
        """The test is <=: the bin whose frequency is exactly half the
        bandwidth is occupied, and one ulp less bandwidth drops it."""
        n = 4096
        on_bin = 2.0 * np.fft.fftfreq(n, 1.0 / FS)[100]
        assert _occupied_bins(n, FS, on_bin).size == 2 * 100 + 1
        assert _occupied_bins(n, FS, np.nextafter(on_bin, 0.0)).size == 2 * 99 + 1


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
