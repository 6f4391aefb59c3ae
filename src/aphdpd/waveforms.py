"""Complex baseband test waveform synthesis and conditioning.

Carriers are OFDM-like random-QAM multitones: every FFT-grid bin inside the
occupied bandwidth gets an independent 16-QAM symbol, the inverse FFT of the
whole buffer is one cyclic-prefix-free symbol. Built that way the waveform is
*exactly* band-limited on its own grid (no symbol-joint splatter) while
keeping the ~10 dB PAPR of a Gaussian-like multitone, which is what drives a
polynomial PA into visible spectral regrowth.

All generation is deterministic per (spec, seed, n): one Generator per call,
no shared RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import BLOCK_LEN, run_blocks
from .exceptions import ConfigurationError, DegenerateInputError

# 16-QAM rail levels, normalized to unit mean symbol energy.
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


def _all_finite(samples: np.ndarray) -> bool:
    """np.all(np.isfinite(samples)), one block at a time: the check holds
    one block's mask, not a byte per sample."""
    flat = samples.reshape(-1)
    mask = np.empty(min(BLOCK_LEN, flat.size), dtype=bool)
    for start in range(0, flat.size, BLOCK_LEN):
        block = flat[start : start + BLOCK_LEN]
        if not np.isfinite(block, out=mask[: block.size]).all():
            return False
    return True


@dataclass(frozen=True)
class IqBuffer:
    """A contiguous run of complex baseband samples at a fixed sample rate.

    Samples are stored as complex64 (the processing precision of the whole
    toolkit); construction rejects non-finite values. Samples that are
    complex64 already are kept as given, not copied: they may be a
    read-only view of a mapped file (see `read_iq`).
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.complex64))
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not _all_finite(samples):
            raise ConfigurationError("IqBuffer samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    def rms(self) -> float:
        """Root-mean-square amplitude, computed in double precision."""
        if not self.samples.size:
            return 0.0
        s = self.samples.astype(np.complex128)
        return float(np.sqrt(np.mean(s.real**2 + s.imag**2)))


@dataclass(frozen=True)
class CarrierSpec:
    """One carrier: baseband center offset, occupied bandwidth, relative power."""

    center_offset_hz: float
    bandwidth_hz: float
    power_db: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        try:
            object.__setattr__(self, "_gain", 10.0 ** (self.power_db / 20.0))
        except OverflowError:
            msg = f"power_db {self.power_db} gives no finite linear gain"
            raise ConfigurationError(msg) from None

    def check_fits(self, sample_rate_hz: float) -> None:
        """Raise unless the occupied band lies inside Nyquist."""
        edge = abs(self.center_offset_hz) + self.bandwidth_hz / 2.0
        if edge > sample_rate_hz / 2.0:
            raise ConfigurationError(
                f"carrier at {self.center_offset_hz} Hz with bandwidth {self.bandwidth_hz} Hz "
                f"exceeds Nyquist for fs={sample_rate_hz} Hz"
            )


def generate_carrier(
    spec: CarrierSpec, n_samples: int, sample_rate_hz: float, seed: int
) -> IqBuffer:
    """Synthesize one random-QAM multitone carrier.

    The carrier occupies [center − BW/2, center + BW/2] and has unit mean
    power before the spec's power_db scaling is applied. A power that
    overflows single precision raises ConfigurationError.
    """
    if n_samples <= 0:
        raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
    spec.check_fits(sample_rate_hz)

    rng = np.random.default_rng(seed)
    x = _qam_spectrum(spec.bandwidth_hz, n_samples, sample_rate_hz, rng)
    np.fft.ifft(x, out=x)

    x /= np.sqrt(np.mean(x.real**2 + x.imag**2))  # unit mean power at baseband

    # Frequency shift and gain in place, one block at a time, so they need
    # no whole-buffer temporaries. The in-place products are the ones the
    # whole-buffer form computes; an out-of-place product can differ in the
    # last bit.
    w = 2.0 * np.pi * spec.center_offset_hz / sample_rate_hz
    g = spec._gain
    out = np.empty(n_samples, dtype=np.complex64)

    def one_block(start: int) -> None:
        block = x[start : start + BLOCK_LEN]
        if spec.center_offset_hz != 0.0:
            # Double-precision phase ramp keeps drift below an ulp over long buffers.
            block *= np.exp(1j * (w * np.arange(start, start + block.size)))
        block *= g
        out[start : start + BLOCK_LEN] = block

    try:
        run_blocks(one_block, range(0, n_samples, BLOCK_LEN), 1)
    except FloatingPointError as err:
        msg = f"carrier power_db {spec.power_db} overflows single precision ({err})"
        raise ConfigurationError(msg) from err
    return IqBuffer(out, sample_rate_hz)


def _qam_spectrum(
    bandwidth_hz: float, n_samples: int, sample_rate_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """A complex128 spectrum holding an independent 16-QAM symbol on every
    bin whose frequency lies within bandwidth_hz/2 of DC, zero elsewhere."""
    freqs = np.fft.fftfreq(n_samples, d=1.0 / sample_rate_hz)
    occupied = np.flatnonzero(np.abs(freqs) <= bandwidth_hz / 2.0)
    del freqs
    # The DC bin always qualifies, so `occupied` is never empty.
    symbols = rng.choice(_QAM16_LEVELS, size=occupied.size) + 1j * rng.choice(
        _QAM16_LEVELS, size=occupied.size
    )
    spectrum = np.zeros(n_samples, dtype=np.complex128)
    spectrum[occupied] = symbols
    return spectrum


def compose_multicarrier(
    specs: list[CarrierSpec], n_samples: int, sample_rate_hz: float, seed: int
) -> IqBuffer:
    """Sum several carriers (seed+index each) and renormalize to unit mean power."""
    if not specs:
        raise ConfigurationError("compose_multicarrier needs at least one CarrierSpec")
    for spec in specs:
        spec.check_fits(sample_rate_hz)

    total = np.zeros(n_samples, dtype=np.complex128)
    for i, spec in enumerate(specs):
        carrier = generate_carrier(spec, n_samples, sample_rate_hz, seed + i)
        total += carrier.samples.astype(np.complex128)

    power = np.mean(total.real**2 + total.imag**2)
    if power == 0.0:
        raise DegenerateInputError("composed waveform is all-zero")
    total /= np.sqrt(power)
    return IqBuffer(total.astype(np.complex64), sample_rate_hz)


def white_gaussian(n_samples: int, rms: float, seed: int, sample_rate_hz: float) -> IqBuffer:
    """Complex white Gaussian noise scaled, in double precision, to an exact RMS."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    x *= rms / np.sqrt(np.mean(x.real**2 + x.imag**2))
    return IqBuffer(x.astype(np.complex64), sample_rate_hz)


def normalize_power(buf: IqBuffer, target_rms: float) -> IqBuffer:
    """Scale a buffer to an exact RMS amplitude.

    The scale factor is computed in double precision; a scale of exactly 1.0
    leaves the samples bit-identical. The buffer is scaled block by block on
    `blocks.run_blocks`, so a target that overflows single precision raises
    ConfigurationError.
    """
    if target_rms <= 0:
        raise ConfigurationError(f"target_rms must be positive, got {target_rms}")
    if len(buf) == 0:
        raise DegenerateInputError("cannot normalize an empty buffer")
    current = buf.rms()
    if current == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero buffer")
    scale = target_rms / current  # python float: complex64 * weak scalar stays complex64
    out = np.empty_like(buf.samples, subok=False)

    def one_block(start: int) -> None:
        block = slice(start, start + BLOCK_LEN)
        np.multiply(buf.samples[block], scale, out=out[block])

    try:
        run_blocks(one_block, range(0, len(buf), BLOCK_LEN), 1)
    except FloatingPointError as err:
        msg = f"drive RMS {target_rms:g} overflows single precision ({err})"
        raise ConfigurationError(msg) from err
    return IqBuffer(out, buf.sample_rate_hz)
