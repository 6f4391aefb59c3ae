"""Spectral measurement: Welch power spectral densities, band power
integration, adjacent-band suppression, and time-domain NMSE.

Conventions fixed here so every consumer (tests, CLI, demos) agrees:

* Spectra are two-sided on the grid (-fs/2, fs/2], Hann window, density
  scaling (power per Hz), no detrending. The linear density is the stored
  quantity; dB values are derived views.
* Band selections are half-open [f_lo, f_hi) on bin centers, so adjacent
  bands tile a span without double counting.
* NMSE compares complex baseband streams sample-by-sample in double
  precision and is floored at -300 dB: below that the residual is
  indistinguishable from representation noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .blocks import run_blocks
from .exceptions import ConfigurationError, DegenerateInputError, InsufficientDataError
from .waveforms import IqBuffer

NMSE_FLOOR_DB = -300.0
_LOG_FLOOR = 1e-300

# Samples per FFT batch in welch_psd: its working memory is a few times
# this many complex64 samples, whatever the buffer length.
_WELCH_BATCH_SAMPLES = 1 << 20

# Most batches welch_psd has in flight at once, whatever `n_workers` asks.
# Each worker thread's malloc arena keeps its freed batch temporaries:
# `dpd evaluate` at 16 Mi samples (2 vCPUs, threads oversubscribed) peaks
# at 341, 413, 467, 503 and 686 MB RSS on 1, 2, 3, 4 and 8 workers. The
# cap keeps that below `dpd generate` on any core count.
_WELCH_MAX_WORKERS = 4


@dataclass(frozen=True)
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


def welch_psd(
    buf: IqBuffer, nfft: int = 4096, overlap: float = 0.5, n_workers: int = 1
) -> Spectrum:
    """Averaged-periodogram PSD of a complex baseband buffer.

    Periodic Hann window, `nfft`-point segments overlapping by the given
    fraction (rounded to whole samples), density scaling, no detrending.
    Requires at least one full segment.

    Precision: segments are windowed and transformed in single precision
    (complex64, as the samples are stored; numpy >= 2 keeps complex64
    through the FFT), and the periodograms are summed in double precision.

    Segments go through the FFT in batches of about `_WELCH_BATCH_SAMPLES`
    samples. The batches run on `n_workers` threads, at most
    `_WELCH_MAX_WORKERS`; each returns its double-precision sum, and the
    sums are added in batch order, as one worker adds them, so the worker
    count changes no bit of the PSD. The working memory is a few batches
    per worker plus one `nfft`-point sum per batch (about 1/128 of the
    buffer at nfft 4096, overlap 0.5).
    """
    if nfft < 2:
        raise ConfigurationError(f"nfft must be >= 2, got {nfft}")
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    if len(buf) < nfft:
        raise InsufficientDataError(
            f"need at least nfft={nfft} samples for one segment, got {len(buf)}"
        )
    step = nfft - int(round(nfft * overlap))
    window = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nfft) / nfft)).astype(np.float32)
    segments = np.lib.stride_tricks.sliding_window_view(buf.samples, nfft)[::step]
    batch = max(1, _WELCH_BATCH_SAMPLES // nfft)

    def batch_power(start: int) -> np.ndarray:
        spectra = np.fft.fft(segments[start : start + batch] * window, axis=-1)
        return (spectra.real**2 + spectra.imag**2).sum(axis=0, dtype=np.float64)

    workers = min(n_workers, _WELCH_MAX_WORKERS)
    acc = np.zeros(nfft)
    for part in run_blocks(batch_power, range(0, len(segments), batch), workers):
        acc += part
    window_power = float(np.sum(np.square(window, dtype=np.float64)))
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


def nmse_db(test: np.ndarray, reference: np.ndarray) -> float:
    """Normalized mean-square error of test vs reference sample arrays, in
    dB, compared in double precision.

    A complex128 `test` is used as is, so a caller's double-precision
    result is never rounded to complex64 first.
    """
    if len(test) != len(reference) or len(reference) == 0:
        raise ConfigurationError(
            f"buffers must be nonempty and equal length, got {len(test)} vs {len(reference)}"
        )
    ref = reference.astype(np.complex128)
    err = test.astype(np.complex128) - ref
    denom = float(np.sum(ref.real**2 + ref.imag**2))
    if denom == 0.0:
        raise DegenerateInputError("reference signal is identically zero")
    ratio = float(np.sum(err.real**2 + err.imag**2)) / denom
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return 10.0 * float(np.log10(ratio))


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


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum written by write_spectrum_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["freq_hz", "psd_db"]:
            raise ConfigurationError(f"{path}: expected header freq_hz,psd_db, got {header}")
        rows = [(float(f), float(p)) for f, p in reader]
    if len(rows) < 2:
        raise ConfigurationError(f"{path}: spectrum needs at least 2 rows")
    freq = np.array([r[0] for r in rows])
    psd = 10.0 ** (np.array([r[1] for r in rows]) / 10.0)
    # Infer the rate from the grid: bins cover (-fs/2, fs/2].
    fs = float(freq[1] - freq[0]) * len(rows)
    return Spectrum(freq, psd, fs)
