"""Waveform synthesis: buffers, carriers and their composition."""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from aphdpd import (
    CarrierSpec,
    ConfigurationError,
    DegenerateInputError,
    IqBuffer,
    compose_multicarrier,
)
from aphdpd import waveforms
from aphdpd.blocks import BLOCK_LEN
from aphdpd.waveforms import (
    _abs2,
    _four_step_ifft,
    _ifft_in_place,
    _occupied_bins,
    _power_sum,
    _qam_spectrum,
)
from conftest import child_peak_rss

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


class TestPowerSum:
    """`_power_sum` sums |z|² block by block in numpy's pairwise order."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "n",
        [
            1,
            7,
            8,
            9,
            128,
            129,
            BLOCK_LEN - 1,
            BLOCK_LEN,
            BLOCK_LEN + 1,
            2 * BLOCK_LEN + 3,
            70_000,
            200_001,
        ],
    )
    def test_numpy_bits(self, n, dtype):
        """The bits of np.sum and np.mean over the whole |z|² array, at
        lengths on both sides of numpy's unrolled leaves (8 and 128) and of
        a block, and at 70 000, whose first split (35 000) lies inside the
        first block rather than on its edge."""
        rng = np.random.default_rng(n)
        z = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(dtype)
        got = _power_sum(z)
        assert got.hex() == float(np.sum(_abs2(z))).hex()
        assert (got / n).hex() == float(np.mean(_abs2(z))).hex()

    def test_empty_is_zero(self):
        assert _power_sum(np.empty(0, np.complex64)) == 0.0

    def test_frees_its_input_on_return(self):
        """The sum holds no reference cycle, so a caller's buffer is freed
        when the caller drops it, not at the next garbage collection: a
        self-calling closure over a view of z kept z alive, and
        `dpd train` on the single-carrier config peaked at 52 MB RSS
        against 45 MB."""
        z = np.ones(2 * BLOCK_LEN + 3, dtype=np.complex128)
        alive = weakref.ref(z)
        gc.disable()
        try:
            _power_sum(z)
            del z
            assert alive() is None
        finally:
            gc.enable()


class TestCarrierSpec:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            CarrierSpec(0.0, 0.0)

    def test_nyquist_check(self):
        CarrierSpec(10e6, 9e6).check_fits(FS)  # edge at 14.5 MHz < 30.72 MHz
        with pytest.raises(ConfigurationError):
            CarrierSpec(28e6, 9e6).check_fits(FS)


def _one_carrier(spec: CarrierSpec, n: int, seed: int):
    """A lone carrier composed at the RMS of its power_db gain."""
    return compose_multicarrier([spec], n, FS, seed, rms=10.0 ** (spec.power_db / 20.0))


class TestGenerateCarrier:
    """One carrier's synthesis, through `compose_multicarrier` with one spec."""

    def test_unit_power_and_determinism(self):
        spec = CarrierSpec(0.0, 9e6)
        a = _one_carrier(spec, 50_000, seed=7)
        b = _one_carrier(spec, 50_000, seed=7)
        assert a.rms() == pytest.approx(1.0, abs=1e-3)
        assert_array_equal(a.samples, b.samples)
        c = _one_carrier(spec, 50_000, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    def test_occupied_band_containment(self):
        """At least 99% of the energy inside the band; the tails are far
        below a -20 dB containment bound."""
        spec = CarrierSpec(8e6, 5e6)
        buf = _one_carrier(spec, 1 << 16, seed=11)
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
        buf = _one_carrier(spec, n, seed=21)
        want = _reference([spec], n, 21, 10.0 ** (spec.power_db / 20.0))
        assert_array_equal(buf.samples.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("offset", [0.0, 5e6])
    def test_synthesis_memory_is_bounded(self, offset):
        """One complex128 working buffer, whose first half then holds the
        complex64 output, plus the occupied bins' symbols while the spectrum
        is built: at 1 Mi samples the peak stays within 3x the output. A
        float64 |x|² array or a separate output array would each add 1x.

        tracemalloc sees numpy's arrays but not the C++ scratch of numpy's
        pocketfft, which `np.fft.ifft` allocates beside them, so
        `TestGenerateMemory` reads the peak RSS of a `dpd` process."""
        spec = CarrierSpec(offset, 9e6, power_db=-3.0)
        tracemalloc.start()
        try:
            buf = _one_carrier(spec, 1 << 20, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * buf.samples.nbytes

    @settings(max_examples=25, deadline=None)
    @given(
        offset=st.floats(-20e6, 20e6),
        bandwidth=st.floats(0.5e6, 10e6),
        seed=st.integers(0, 2**31),
    )
    def test_power_property(self, offset, bandwidth, seed):
        if abs(offset) + bandwidth / 2 > FS / 2:
            return
        buf = _one_carrier(CarrierSpec(offset, bandwidth), 20_000, seed)
        assert buf.rms() == pytest.approx(1.0, abs=1e-3)


_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


def _reference(specs: list[CarrierSpec], n: int, seed: int, rms: float) -> np.ndarray:
    """compose_multicarrier(specs, n, FS, seed, rms) as whole-buffer steps,
    each carrier's complex64 samples in an array of their own.

    A carrier's spectrum takes its occupied bins from `np.fft.fftfreq`, and
    `_ifft_in_place` (checked against numpy by `TestInverseFft`) transforms
    it. The phase ramp and then one factor, gain / √p, scale the whole
    buffer in place, and it is cast to complex64. The gain is `rms` for a
    lone carrier, else 10^((power_db − max power_db)/20). Several carriers
    are summed in complex64, in order, and the sum is scaled by rms / √p.
    Each mean power p is np.mean over a whole float64 |x|² array.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / FS)
    loudest = max(spec.power_db for spec in specs)
    carriers = []
    for i, spec in enumerate(specs):
        rng = np.random.default_rng(seed + i)
        occupied = np.flatnonzero(np.abs(freqs) <= spec.bandwidth_hz / 2.0)
        x = np.zeros(n, dtype=np.complex128)
        x[occupied] = rng.choice(_QAM16_LEVELS, size=occupied.size) + 1j * rng.choice(
            _QAM16_LEVELS, size=occupied.size
        )
        _ifft_in_place(x)
        if spec.center_offset_hz != 0.0:
            x *= np.exp(1j * ((2.0 * np.pi * spec.center_offset_hz / FS) * np.arange(n)))
        gain = rms if len(specs) == 1 else 10.0 ** ((spec.power_db - loudest) / 20.0)
        x *= gain / math.sqrt(np.mean(x.real**2 + x.imag**2))
        carriers.append(x.astype(np.complex64))
    total = carriers[0]
    for samples in carriers[1:]:
        total += samples
    if len(carriers) > 1:
        wide = total.astype(np.complex128)
        total *= rms / math.sqrt(np.mean(wide.real**2 + wide.imag**2))
    return total


class TestInPlaceDowncast:
    """A carrier's complex64 samples, written over the first half of its
    spectrum, and a sum of carriers keep the bits of `_reference`, which
    writes each into an array of its own."""

    SPECS = [
        CarrierSpec(5e6, 9e6, power_db=-3.5),
        CarrierSpec(-15e6, 5e6, power_db=2.0),
        CarrierSpec(20e6, 3e6, power_db=-6.0),
    ]

    @pytest.mark.parametrize(
        "n",
        [1, 3, 12_345, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 2 * BLOCK_LEN + 1, 2048 * 2048],
    )
    def test_out_of_place_bits(self, n):
        """Odd lengths, where the shrunk buffer holds one complex64 more
        than the samples; lengths around a block, where the first block
        overlaps itself and the second is the first to write below its
        own input; and 2048², the four-step IFFT's smallest length."""
        spec = self.SPECS[0]
        got = _one_carrier(spec, n, seed=21).samples
        assert got.shape == (n,)
        want = _reference([spec], n, 21, 10.0 ** (spec.power_db / 20.0))
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for specs in (self.SPECS[:1], self.SPECS):
            got = compose_multicarrier(specs, n, FS, seed=8, rms=0.15).samples
            want = _reference(specs, n, 8, 0.15)
            assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
class TestGenerateMemory:
    """The peak RSS of `dpd generate` at 2048² samples, in complex128
    buffers of that length above a process that only imports the CLI.

    Each peak is the child's VmHWM, read as it exits. It counts pocketfft's
    C++ scratch that tracemalloc cannot see. numpy's whole-length IFFT
    would add about two more buffers, and a float64 |x|² array or a
    separate complex64 output half a buffer each."""

    def test_peak_rss_is_bounded(self, tmp_path):
        """One carrier: at most 1.4 buffers, the spectrum it transforms in
        place and not much more. The carrier is scaled as it is cast into
        the spectrum's first half, which is then all it keeps."""
        assert self._generate_peak(tmp_path, "single_carrier.json") <= 1.4

    def test_two_carrier_peak_rss_is_bounded(self, tmp_path):
        """Two carriers: at most 1.8 buffers. That is 1.5 for the second
        carrier's spectrum beside the first carrier's complex64 samples,
        which it is added into, and about 0.2 that one carrier also pays
        (numpy.random's import, the four-step workers' malloc arenas): 1.71
        on a 2-vCPU x86 host. A complex128 sum beside each spectrum took
        2.71, and would take at least 2.5."""
        assert self._generate_peak(tmp_path, "ca_3mhz_x2.json") <= 1.8

    def _generate_peak(self, tmp_path, config_name: str) -> float:
        doc = json.loads((ROOT / "configs" / config_name).read_text())
        n = doc["n_samples"] = 2048 * 2048
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = ["generate", str(config), str(tmp_path / "s.iq")]
        baseline = child_peak_rss("")
        peak = child_peak_rss(f"assert aphdpd.cli.main({argv!r}) == 0")
        return (peak - baseline) / (n * np.dtype(np.complex128).itemsize)


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
        """A lone carrier is the whole-buffer reference's carrier, bit for
        bit, when the drive equals the carrier's own gain."""
        spec = CarrierSpec(3e6, 4e6, power_db=6.0)
        composed = compose_multicarrier([spec], 30_000, FS, seed=9, rms=10.0 ** (6.0 / 20.0))
        direct = _reference([spec], 30_000, 9, 10.0 ** (6.0 / 20.0))
        assert_array_equal(composed.samples.view(np.uint64), direct.view(np.uint64))

    def test_lone_carrier_power_db_changes_no_bit(self):
        """One carrier is scaled straight to the drive, so its power_db,
        which is relative to the loudest carrier, has no effect."""
        outputs = [
            compose_multicarrier([CarrierSpec(3e6, 4e6, power_db=db)], 30_000, FS, 9, 0.15)
            for db in (0.0, -6.0, 40.0)
        ]
        for out in outputs[1:]:
            assert_array_equal(out.samples.view(np.uint64), outputs[0].samples.view(np.uint64))

    def test_relative_carrier_power_is_kept(self):
        """Carriers at power_db 0 and -6 keep a 6 dB in-band power ratio."""
        specs = [CarrierSpec(-10e6, 5e6, power_db=0.0), CarrierSpec(10e6, 5e6, power_db=-6.0)]
        buf = compose_multicarrier(specs, 1 << 16, FS, seed=3, rms=0.15)
        power = np.abs(np.fft.fft(buf.samples.astype(np.complex128))) ** 2
        freqs = np.fft.fftfreq(len(buf), d=1 / FS)
        loud, quiet = (power[np.abs(freqs - s.center_offset_hz) <= 2.5e6].sum() for s in specs)
        assert 10 * np.log10(loud / quiet) == pytest.approx(6.0, abs=0.1)

    def test_cancelling_carriers_rejected(self):
        """Two carriers of one bin each (DC) whose 16-QAM symbols are
        opposite sum to zero, which cannot be scaled to a drive."""
        specs = [CarrierSpec(0.0, 1.0), CarrierSpec(0.0, 1.0)]
        seed = self._seed_of_opposite_dc_symbols()
        with pytest.raises(DegenerateInputError, match="all-zero"):
            compose_multicarrier(specs, 16, FS, seed)

    @staticmethod
    def _seed_of_opposite_dc_symbols() -> int:
        """The first seed s whose DC symbol is minus that of seed s + 1."""
        def dc(seed):
            return _qam_spectrum(1.0, 16, FS, np.random.default_rng(seed))[0]

        return next(s for s in range(1000) if dc(s) == -dc(s + 1))

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
