"""Spectral estimation and the scalar metrics built on it.

Oracle strategy: Parseval's identity ties the integrated PSD to the
time-domain power, analytically flat/white inputs pin the shape, and the
band metrics are checked by additivity and against hand-built spectra.
"""

from __future__ import annotations

import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    NMSE_FLOOR_DB,
    ConfigurationError,
    DegenerateInputError,
    InsufficientDataError,
    IqBuffer,
    Spectrum,
    band_power_db,
    load_experiment_config,
    nmse_db,
    run_tx_chain,
    suppression_db,
    welch_psd,
    write_spectrum_csv,
)
from aphdpd import analysis
from conftest import reference_welch

FS = 61.44e6
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _noise(n, seed=0, rms=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x *= rms / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(x.astype(np.complex64), FS)


def _tone(f0, n=65536, amplitude=1.0):
    t = np.arange(n) / FS
    return IqBuffer((amplitude * np.exp(2j * np.pi * f0 * t)).astype(np.complex64), FS)


class TestWelchPsd:
    def test_grid_spans_complex_baseband(self):
        spec = welch_psd(_noise(20_000), nfft=4096)
        assert spec.freq_hz.shape == (4096,)
        assert spec.freq_hz[0] == pytest.approx(-FS / 2 + FS / 4096)
        assert spec.freq_hz[-1] == pytest.approx(FS / 2)
        assert_allclose(np.diff(spec.freq_hz), FS / 4096, rtol=1e-12)
        assert spec.bin_width_hz == pytest.approx(FS / 4096)

    @pytest.mark.parametrize("f0", [10e6, -10e6, 0.0])
    def test_tone_lands_on_its_bin(self, f0):
        spec = welch_psd(_tone(f0), nfft=4096)
        peak_freq = spec.freq_hz[int(np.argmax(spec.psd))]
        assert abs(peak_freq - f0) <= spec.bin_width_hz
        # a pure tone towers over the leakage floor
        assert spec.psd_db.max() - np.median(spec.psd_db) > 40.0

    def test_parseval(self):
        """Integrated density equals time-domain power (within 0.1 dB)."""
        buf = _noise(200_000, seed=3, rms=0.31)
        spec = welch_psd(buf, nfft=4096)
        time_power = float(np.mean(np.abs(buf.samples.astype(np.complex128)) ** 2))
        freq_power = float(np.sum(spec.psd) * spec.bin_width_hz)
        assert abs(10 * np.log10(freq_power / time_power)) < 0.1

    def test_white_noise_is_flat(self):
        """~390 averaged segments leave ~0.2 dB per-bin scatter; the spread
        over 1024 bins stays well under what any shaped spectrum shows."""
        spec = welch_psd(_noise(200_000, seed=4), nfft=1024)
        assert spec.psd_db.max() - spec.psd_db.min() < 2.0

    def test_needs_one_full_segment(self):
        with pytest.raises(InsufficientDataError):
            welch_psd(_noise(1000), nfft=4096)

    @pytest.mark.parametrize("nfft", [256, 255])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("batch_samples", [1 << 20, 2000])
    def test_matches_segment_loop_oracle(self, nfft, overlap, batch_samples, monkeypatch):
        """Double-precision transforms and sums: within 1e-12 of the float64
        definition in every bin. The 2000-sample batch holds
        7 segments, which divides none of the segment counts here, so the
        last batch is a partial one."""
        monkeypatch.setattr(analysis, "_WELCH_BATCH_SAMPLES", batch_samples)
        buf = _noise(20_000, seed=17, rms=0.3)
        spec = welch_psd(buf, nfft=nfft, overlap=overlap)
        freq, psd = reference_welch(buf.samples, FS, nfft, overlap)
        n_segments = (len(buf) - nfft) // (nfft - int(round(nfft * overlap))) + 1
        assert n_segments % (2000 // nfft) != 0
        assert_allclose(spec.freq_hz, freq, rtol=1e-12, atol=1e-6)
        assert_allclose(spec.psd, psd, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stage", ["stimulus", "tx chain output"])
    def test_deep_bins_match_the_oracle(self, stage):
        """The shipped config's stimulus and its TX chain output span about
        156 dB at nfft 1024. Every bin, the deep out-of-band ones included,
        is within 1e-5 of the float64 definition; single-precision
        transforms were off there by up to 78 %."""
        cfg = load_experiment_config(CONFIGS / "single_carrier.json", respect_env=False)
        buf = cfg.waveform_factory()(1 << 17, cfg.seed)
        if stage == "tx chain output":
            buf = run_tx_chain(buf, cfg.tx_chain())
        spec = welch_psd(buf, nfft=1024)
        _, psd = reference_welch(buf.samples, buf.sample_rate_hz, 1024, 0.5)
        assert 10 * np.log10(psd.max() / psd.min()) > 150.0
        assert_allclose(spec.psd, psd, rtol=1e-5, atol=0)

    def test_workers_change_no_bits(self, monkeypatch):
        """Per-batch sums are added in batch order, so 2 or 3 workers give
        the one-worker PSD bit for bit. The 3000-sample batch holds 11
        segments of 255, so there are 15 batches and the last is partial."""
        monkeypatch.setattr(analysis, "_WELCH_BATCH_SAMPLES", 3000)
        buf = _noise(20_000, seed=19, rms=0.3)
        serial = welch_psd(buf, nfft=255, overlap=0.5)
        n_segments = (len(buf) - 255) // (255 - int(round(255 * 0.5))) + 1
        assert n_segments == 156 and n_segments % 11 != 0
        for n_workers in (2, 3):
            spec = welch_psd(buf, nfft=255, overlap=0.5, n_workers=n_workers)
            assert_array_equal(spec.psd.view(np.uint64), serial.psd.view(np.uint64))
            assert_array_equal(spec.freq_hz, serial.freq_hz)

    def test_memory_does_not_grow_with_length(self):
        """Segments go through the FFT in fixed-size batches, so on one or
        two workers the peak allocation at 4 Mi samples is that at 1 Mi
        samples."""
        x = _noise(4 << 20, seed=18).samples

        def peak_bytes(n, n_workers):
            buf = IqBuffer(x[:n], FS)
            tracemalloc.start()
            try:
                welch_psd(buf, nfft=4096, n_workers=n_workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n_workers in (1, 2):
            small, large = peak_bytes(1 << 20, n_workers), peak_bytes(4 << 20, n_workers)
            assert large <= 1.05 * small

    def test_memory_per_worker_is_bounded(self, monkeypatch):
        """Each worker holds one batch at a time, and at most
        `_WELCH_MAX_WORKERS` batches are in flight: on 3 workers the peak
        allocation is at most 3 one-worker peaks, and with the cap at 2 it
        is at most 2."""
        monkeypatch.setattr(analysis, "_WELCH_BATCH_SAMPLES", 1 << 16)
        buf = _noise(1 << 20, seed=20)

        def peak_bytes(n_workers):
            tracemalloc.start()
            try:
                welch_psd(buf, nfft=4096, n_workers=n_workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak_bytes(1)
        assert peak_bytes(3) <= 3 * one
        monkeypatch.setattr(analysis, "_WELCH_MAX_WORKERS", 2)
        assert peak_bytes(3) <= 2 * one

    def test_parameter_validation(self):
        buf = _noise(10_000)
        with pytest.raises(ConfigurationError):
            welch_psd(buf, nfft=1)
        with pytest.raises(ConfigurationError):
            welch_psd(buf, overlap=1.0)
        with pytest.raises(ConfigurationError):
            welch_psd(buf, overlap=-0.1)

    @pytest.mark.parametrize("nfft, overlap", [(4096, 0.9999), (3, 0.9)])
    def test_overlap_rounding_step_to_zero_rejected(self, nfft, overlap):
        with pytest.raises(ConfigurationError, match="analysis.overlap"):
            welch_psd(_noise(10_000), nfft=nfft, overlap=overlap)


class TestBandPower:
    def _flat_spectrum(self, level=1e-10, nfft=4096):
        freq = (np.arange(nfft) - nfft // 2 + 1) * (FS / nfft)
        return Spectrum(freq, np.full(nfft, level), FS)

    def test_flat_band_power_is_analytic(self):
        spec = self._flat_spectrum(level=1e-10)
        got = band_power_db(spec, 5e6, 15e6)
        n_bins = int(np.count_nonzero((spec.freq_hz >= 5e6) & (spec.freq_hz < 15e6)))
        want = 10 * np.log10(1e-10 * n_bins * spec.bin_width_hz)
        assert got == pytest.approx(want, abs=1e-9)

    def test_band_additivity(self):
        spec = welch_psd(_noise(100_000, seed=5), nfft=4096)
        lo = 10 ** (band_power_db(spec, 2e6, 8e6) / 10)
        hi = 10 ** (band_power_db(spec, 8e6, 14e6) / 10)
        both = 10 ** (band_power_db(spec, 2e6, 14e6) / 10)
        assert lo + hi == pytest.approx(both, rel=1e-12)

    def test_full_span_recovers_total_power(self):
        buf = _noise(200_000, seed=6, rms=0.2)
        spec = welch_psd(buf, nfft=4096)
        total = band_power_db(spec, -FS / 2, FS / 2 + 1.0)
        time_db = 10 * np.log10(np.mean(np.abs(buf.samples.astype(np.complex128)) ** 2))
        assert total == pytest.approx(time_db, abs=0.1)

    def test_empty_band_rejected(self):
        spec = self._flat_spectrum()
        with pytest.raises(ConfigurationError):
            band_power_db(spec, 1e6, 1e6 + 1.0)  # narrower than one bin
        with pytest.raises(ConfigurationError):
            band_power_db(spec, 5e6, 2e6)


class TestSuppression:
    def test_identical_spectra_zero(self):
        spec = welch_psd(_noise(50_000, seed=7), nfft=2048)
        assert suppression_db(spec, spec, 1e6, 9e6) == pytest.approx(0.0, abs=1e-12)

    def test_factor_ten(self):
        spec = welch_psd(_noise(50_000, seed=8), nfft=2048)
        tenth = Spectrum(spec.freq_hz, spec.psd / 10.0, FS)
        assert suppression_db(spec, tenth, 1e6, 9e6) == pytest.approx(10.0, abs=1e-9)

    def test_grid_mismatch_rejected(self):
        a = welch_psd(_noise(50_000, seed=9), nfft=2048)
        b = welch_psd(_noise(50_000, seed=9), nfft=1024)
        with pytest.raises(ConfigurationError):
            suppression_db(a, b, 1e6, 9e6)


class TestNmse:
    def test_identical_hits_floor(self):
        x = _noise(10_000, seed=10).samples
        assert nmse_db(x, x) == NMSE_FLOOR_DB

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateInputError):
            nmse_db(_noise(100).samples, np.zeros(100, np.complex64))

    def test_known_error_level(self):
        ref = _noise(50_000, seed=11)
        eps = 10 ** (-40 / 20)  # -40 dB relative error
        noise = _noise(50_000, seed=12, rms=eps * ref.rms())
        assert nmse_db(ref.samples + noise.samples, ref.samples) == pytest.approx(-40.0, abs=0.1)

    def test_invariant_under_common_scaling(self):
        ref = _noise(20_000, seed=13).samples
        test = ref + np.complex64(0.01) * _noise(20_000, seed=14).samples
        base = nmse_db(test, ref)
        g = np.complex64(0.5 - 0.25j)
        scaled = nmse_db(g * test, g * ref)
        assert scaled == pytest.approx(base, abs=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            nmse_db(_noise(100).samples, _noise(101).samples)


class TestSpectrumCsv:
    def test_file_round_trip(self, tmp_path):
        """Every bin's frequency and dB density reads back exactly: each is
        written as repr() of its float."""
        spec = welch_psd(_noise(50_000, seed=15), nfft=1024)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        assert path.read_text().splitlines()[0] == "freq_hz,psd_db"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert_array_equal(back[:, 0], spec.freq_hz)
        assert_array_equal(back[:, 1], spec.psd_db)

    def test_writes_header_to_stream(self):
        spec = welch_psd(_noise(20_000, seed=16), nfft=512)
        sink = io.StringIO()
        write_spectrum_csv(spec, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "freq_hz,psd_db"
        assert len(lines) == 513
