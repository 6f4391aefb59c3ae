"""Spectral measurement: Welch power spectral densities, band power
integration and adjacent-band suppression.

Conventions fixed here so every consumer (tests, CLI, demos) agrees:

* Spectra are two-sided on the grid (-fs/2, fs/2], Hann window, density
  scaling (power per Hz), no detrending. The linear density is the stored
  quantity; dB values are derived views.
* Band selections are half-open [f_lo, f_hi) on bin centers, so adjacent
  bands tile a span without double counting.
* Welch runs in double precision: each complex64 segment is windowed into
  complex128, transformed in place and summed as float64 power. That is
  both the faster and the exact choice. On a 2-vCPU x86 host (numpy 2.4)
  numpy's complex64 FFT of a 256 x 4096 batch takes 15-22 ms and its
  complex128 FFT 7-9 ms. In single precision the deepest bins of a
  160 dB spectrum were off by up to 116 %; in double they are within
  2e-9 of a long-double Welch.
"""

from __future__ import annotations

import csv

import numpy as np

from ._record import record
from .blocks import run_blocks
from .exceptions import ConfigurationError, InsufficientDataError
from .waveforms import IqBuffer

_LOG_FLOOR = 1e-300

# Samples per FFT batch in welch_psd (32 segments at nfft 4096): a 2 MB
# complex128 batch. At 16 Mi samples on a 2-vCPU host, batches of 2^16 to
# 2^18 samples were equally fast on 1 and 2 workers, and 2^20 was 10-40 %
# slower.
_WELCH_BATCH_SAMPLES = 1 << 17

# Batches per group in welch_psd: it holds one power sum per batch of a
# group and adds a group's sums before starting the next, so its memory
# does not grow with the buffer length.
_WELCH_GROUP_BATCHES = 16

# Most batches welch_psd has in flight at once, whatever `n_workers` asks.
# Each worker thread's malloc arena keeps its freed 2 MB batch, and the
# block runner's threads live as long as the process, so their arenas do
# too: `dpd evaluate` at 16 Mi samples (2 vCPUs, threads oversubscribed)
# peaks at 290, 293, 295, 298 and 298 MB RSS on 1, 2, 3, 4 and 8 workers,
# and at 307 and 326 MB on 8 and 16 workers without the cap. The cap keeps
# that growth bounded on any core count.
_WELCH_MAX_WORKERS = 4


@record
class Spectrum:
    """A two-sided PSD: bin center frequencies (Hz) and linear density."""

    freq_hz: np.ndarray
    psd: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        freq = np.asarray(self.freq_hz, dtype=np.float64)
        psd = np.asarray(self.psd, dtype=np.float64)
        if freq.ndim != 1 or freq.shape != psd.shape or freq.size < 2:
            raise ConfigurationError("spectrum needs matching 1-D freq/psd arrays (>= 2 bins)")
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def psd_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.psd, _LOG_FLOOR))

    @property
    def bin_width_hz(self) -> float:
        return float(self.freq_hz[1] - self.freq_hz[0])


def welch_step(nfft: int, overlap: float) -> int:
    """Samples between the starts of consecutive `nfft`-point Welch
    segments: `nfft` less the overlap rounded to whole samples.

    Raises ConfigurationError, naming the config key, unless nfft >= 2,
    0 <= overlap < 1 and the step is at least one sample (an overlap
    near 1 on a short segment rounds it to 0).
    """
    if nfft < 2:
        raise ConfigurationError(f"'analysis.nfft' must be >= 2, got {nfft}")
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"'analysis.overlap' must be in [0, 1), got {overlap}")
    step = nfft - int(round(nfft * overlap))
    if step < 1:
        raise ConfigurationError(
            f"'analysis.overlap' {overlap} at nfft {nfft} rounds the segment step "
            f"to {step} samples; it must leave at least 1"
        )
    return step


def welch_psd(
    buf: IqBuffer, nfft: int = 4096, overlap: float = 0.5, n_workers: int = 1
) -> Spectrum:
    """Averaged-periodogram PSD of a complex baseband buffer.

    Periodic Hann window, `nfft`-point segments overlapping by the given
    fraction (rounded to whole samples, see `welch_step`), density
    scaling, no detrending. Requires at least one full segment.

    Precision: each complex64 segment is cast to complex128 and multiplied
    by the window; the FFT runs in place on it, and the periodograms are
    summed in float64. Every bin, even 160 dB below the peak, then stays
    within about 2e-9 of a long-double Welch.

    Segments go through the FFT in batches of about `_WELCH_BATCH_SAMPLES`
    samples, `_WELCH_GROUP_BATCHES` batches at a time. A group's batches
    run on `n_workers` threads, at most `_WELCH_MAX_WORKERS`; each writes
    its power sum to its own row, and the rows are added in batch order
    once the group is done, as one worker adds them, so the worker count
    changes no bit of the PSD. The working memory is one complex128 batch
    per worker plus one `nfft`-point row per batch of a group, whatever
    the buffer length.
    """
    step = welch_step(nfft, overlap)
    if len(buf) < nfft:
        raise InsufficientDataError(
            f"need at least nfft={nfft} samples for one segment, got {len(buf)}"
        )
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nfft) / nfft)
    segments = np.lib.stride_tricks.sliding_window_view(buf.samples, nfft)[::step]
    batch = max(1, _WELCH_BATCH_SAMPLES // nfft)
    group = _WELCH_GROUP_BATCHES
    sums = np.empty((group, nfft))
    # The window on each real and each imaginary part of a float64 view.
    # This gives complex multiplication by w + 0i the same bits, apart from
    # the sign of a zero, which |X|^2 erases.
    part_window = np.repeat(window, 2)

    def batch_power(start: int) -> None:
        spectra = segments[start : start + batch].astype(np.complex128)
        parts = spectra.view(np.float64)
        np.multiply(parts, part_window, out=parts)
        np.fft.fft(spectra, axis=-1, out=spectra)
        # |X|^2 in place: square the real and imaginary parts, add them
        # into the real part, and sum that over the batch into its row.
        np.square(parts, out=parts)
        power = spectra.real
        np.add(power, spectra.imag, out=power)
        power.sum(axis=0, out=sums[start // batch % group])

    workers = min(n_workers, _WELCH_MAX_WORKERS)
    starts = range(0, len(segments), batch)
    acc = np.zeros(nfft)
    for first in range(0, len(starts), group):
        group_starts = starts[first : first + group]
        run_blocks(batch_power, group_starts, workers)
        for row in sums[: len(group_starts)]:
            acc += row
    window_power = float(np.sum(np.square(window)))
    psd = acc / (len(segments) * buf.sample_rate_hz * window_power)
    freq = np.fft.fftfreq(nfft, 1.0 / buf.sample_rate_hz)
    freq = np.fft.fftshift(freq)
    psd = np.fft.fftshift(psd)
    if nfft % 2 == 0:
        # Move the -fs/2 bin to the top of the grid as +fs/2: the grid
        # convention is (-fs/2, fs/2], and both labels alias the same bin.
        freq = np.roll(freq, -1)
        psd = np.roll(psd, -1)
        freq[-1] = buf.sample_rate_hz / 2.0
    return Spectrum(freq, psd, buf.sample_rate_hz)


def band_power_db(spec: Spectrum, f_lo: float, f_hi: float) -> float:
    """Total power in [f_lo, f_hi), in dB: the linear density integrated
    over the bins whose centers fall in the band."""
    if not f_lo < f_hi:
        raise ConfigurationError(f"band must satisfy f_lo < f_hi, got [{f_lo}, {f_hi})")
    mask = (spec.freq_hz >= f_lo) & (spec.freq_hz < f_hi)
    if not np.any(mask):
        raise ConfigurationError(
            f"band [{f_lo}, {f_hi}) contains no spectrum bins "
            f"(grid spans [{spec.freq_hz[0]}, {spec.freq_hz[-1]}])"
        )
    total = float(np.sum(spec.psd[mask])) * spec.bin_width_hz
    return 10.0 * float(np.log10(max(total, _LOG_FLOOR)))


def suppression_db(reference: Spectrum, test: Spectrum, f_lo: float, f_hi: float) -> float:
    """How far the test spectrum sits below the reference in a band.

    Positive means the test has less power there. Both spectra must share
    the same frequency grid.
    """
    if reference.freq_hz.shape != test.freq_hz.shape or not np.allclose(
        reference.freq_hz, test.freq_hz
    ):
        raise ConfigurationError("spectra are on different frequency grids")
    return band_power_db(reference, f_lo, f_hi) - band_power_db(test, f_lo, f_hi)


def write_spectrum_csv(spec: Spectrum, path_or_file) -> None:
    """Write `freq_hz,psd_db` rows (header included) to a path or stream."""
    db = spec.psd_db

    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "psd_db"])
        for f, p in zip(spec.freq_hz, db):
            writer.writerow([repr(float(f)), repr(float(p))])

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            emit(fh)
