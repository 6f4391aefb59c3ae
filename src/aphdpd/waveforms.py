"""Complex baseband test waveform synthesis and conditioning.

Carriers are OFDM-like random-QAM multitones: every FFT-grid bin inside the
occupied bandwidth gets an independent 16-QAM symbol, the inverse FFT of the
whole buffer is one cyclic-prefix-free symbol. A bin is inside when its
frequency f on numpy's `fftfreq` grid has |f| <= BW/2 (`_occupied_bins`).
Built that way the waveform is *exactly* band-limited on its own grid (no
symbol-joint splatter) while keeping the ~10 dB PAPR of a Gaussian-like
multitone, which is what drives a polynomial PA into visible spectral
regrowth.

The inverse FFT of a carrier runs in place (`_ifft_in_place`). numpy's
`np.fft.ifft(x, out=x)` of n samples allocates about two more n-sample
complex128 buffers (scratch and twiddles) beside the spectrum, so from
n = 2048² up a square length n = m·m takes a four-step (Bailey) IFFT
instead: m-point transforms in batches of a few rows or columns, on up
to 4 usable CPUs, and an in-place transpose of the m × m matrix. Only squares
take it, because only a square matrix transposes in place; a rectangular
one would need a second whole buffer. Every other length keeps numpy's
bits. The four-step result agrees with numpy's to about 1e-15 of the RMS,
and the worker count never changes its bits.

A carrier needs no whole-length buffer beside its complex128 spectrum.
Every power mean is summed block by block (`_power_sum`) in numpy's own
pairwise order, so it has `np.mean`'s bits without a float64 |x|² array,
and the complex64 samples are written over the first half of the
spectrum's own memory, which then shrinks to them (`generate_carrier`).

All generation is deterministic per (spec, seed, n): one Generator per call,
no shared RNG state.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .blocks import BLOCK_LEN, run_blocks, usable_cpus
from .exceptions import ConfigurationError, DegenerateInputError

# 16-QAM rail levels, normalized to unit mean symbol energy.
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)

# The smallest side m of a square length m·m that takes the four-step IFFT
# (2048² = 2^22 samples); the columns or rows per batch of its passes and
# the side of its transpose tiles; and the length of its short twiddle
# table (`_four_step_ifft`).
_FOUR_STEP_MIN_SIDE = 2048
_FOUR_STEP_BATCH = 64
_TWIDDLE_SPLIT = 64

# Most batches the four-step IFFT has in flight at once, whatever the CPU
# count. Each worker holds an m × `_FOUR_STEP_BATCH` complex128 buffer
# (4 MB at 4096²): `dpd generate` at 16 Mi samples (2 vCPUs, threads
# oversubscribed) peaks at 426, 432, 440, 458, 492 and 528 MB RSS on 1, 2,
# 4, 8, 16 and 32 workers without the cap. The cap keeps that growth
# bounded on any core count.
_FOUR_STEP_MAX_WORKERS = 4


def _abs2(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of contiguous complex samples, flattened, in float64,
    filled one block of `BLOCK_LEN` samples at a time.

    Each value is the one z.astype(complex128) gives in
    `z.real**2 + z.imag**2`, so a mean or a sum over the result has the
    bits of that expression's, without its three whole-buffer temporaries.
    """
    out = np.empty(z.size)
    parts = z.reshape(-1).view(z.real.dtype)
    squares = np.empty(2 * min(BLOCK_LEN, z.size))
    for start in range(0, z.size, BLOCK_LEN):
        block = parts[2 * start : 2 * (start + BLOCK_LEN)]
        sq = np.square(block, out=squares[: block.size], dtype=np.float64)
        np.add(sq[0::2], sq[1::2], out=out[start : start + block.size // 2])
    return out


def _power_sum(z: np.ndarray) -> float:
    """np.sum(_abs2(z)) of contiguous complex samples, to the bit, holding
    the squares of at most `BLOCK_LEN` samples at a time rather than a
    whole-buffer array.

    numpy's add.reduce sums a contiguous float64 array in one pairwise
    tree: a run of n > 128 values is the sum of its first
    n//2 - (n//2) % 8 values and of the rest, each summed the same way, so
    the tree of a run depends on its length alone. This recursion splits
    the same way down to runs of at most `BLOCK_LEN` samples and hands
    each to add.reduce, so it adds the same values in the same order.
    numpy starts each reduction from 0.0, which leaves a sum of squares
    unchanged. np.mean is that sum over the length, so
    `_power_sum(z) / z.size` is np.mean(_abs2(z)). The recursion is on
    slices, not through a closure: a closure that calls itself is a
    reference cycle, which would keep z alive until a garbage collection.
    """
    flat = z.reshape(-1)
    n = flat.size
    if n <= BLOCK_LEN:
        return float(np.add.reduce(_abs2(flat)))
    half = n // 2 - (n // 2) % 8
    return _power_sum(flat[:half]) + _power_sum(flat[half:])


def _all_finite(samples: np.ndarray) -> bool:
    """np.all(np.isfinite(samples)) for contiguous complex64 samples.

    A complex value is finite exactly when both of its parts are, so the
    check runs on the float32 view, which is faster than the complex
    loop, one block of `BLOCK_LEN` samples at a time: it holds one
    block's mask, not a byte per sample.
    """
    parts = samples.reshape(-1).view(np.float32)
    block_len = 2 * BLOCK_LEN
    mask = np.empty(min(block_len, parts.size), dtype=bool)
    for start in range(0, parts.size, block_len):
        block = parts[start : start + block_len]
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
        rate = self.sample_rate_hz
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigurationError(f"sample_rate_hz must be finite and positive, got {rate}")
        if not _all_finite(samples):
            raise ConfigurationError("IqBuffer samples must be finite")

    @classmethod
    def _of_finite(cls, samples: np.ndarray, sample_rate_hz: float) -> "IqBuffer":
        """A buffer of samples finite by construction, kept without the
        finiteness scan.

        Only the engine (`predistort_parallel`) and `run_tx_chain` build one,
        from their `blocks.map_blocks` output: a contiguous complex64 array
        every block wrote in full, at the sample rate of a buffer already
        checked. Their input samples are finite (an IqBuffer) and so are all
        their constants (a CoefficientVector and a kernel compiled under
        over/invalid="raise"; a PaModel and an IqModulatorModel check
        theirs). Every block ran under over/invalid="raise", including its
        final complex64 cast, and an IEEE operation on finite operands gives
        a non-finite result only by overflow or an invalid operation. So
        each block either wrote finite samples or raised, and the call
        raised with it.
        """
        buf = object.__new__(cls)
        object.__setattr__(buf, "samples", samples)
        object.__setattr__(buf, "sample_rate_hz", sample_rate_hz)
        return buf

    def __len__(self) -> int:
        return self.samples.size

    def rms(self) -> float:
        """Root-mean-square amplitude, computed in double precision."""
        if not self.samples.size:
            return 0.0
        return float(np.sqrt(_power_sum(self.samples) / self.samples.size))


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

    The inverse FFT runs in place in the complex128 spectrum
    (`_ifft_in_place`): a square n_samples of 2048² or more takes the
    four-step IFFT on up to 4 usable CPUs, since a square matrix transposes
    in place and the transform then needs no second whole buffer; every
    other length takes numpy's IFFT and keeps its bits.

    The spectrum is the one whole-length buffer: the mean power is summed
    block by block (`_power_sum`), and the complex64 samples are written
    over the spectrum's first half, which is then all the memory kept.
    """
    if n_samples <= 0:
        raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
    spec.check_fits(sample_rate_hz)

    rng = np.random.default_rng(seed)
    x = _qam_spectrum(spec.bandwidth_hz, n_samples, sample_rate_hz, rng)
    _ifft_in_place(x)

    x /= np.sqrt(_power_sum(x) / n_samples)  # unit mean power at baseband

    # Frequency shift and gain in place, one block at a time, so they need
    # no whole-buffer temporaries. The in-place products are the ones the
    # whole-buffer form computes; an out-of-place product can differ in the
    # last bit. Each block is then cast to complex64 into `out`, the first
    # half of the spectrum's bytes, in start order: block [s, s + B) writes
    # bytes [8s, 8s + 8B), and from the second block on B <= s, so that
    # lies before its own input at [16s, 16s + 16B) and overwrites only
    # samples already cast. The first block overlaps itself, and numpy's
    # assignment handles the overlap.
    w = 2.0 * np.pi * spec.center_offset_hz / sample_rate_hz
    g = spec._gain
    out = x.view(np.complex64)[:n_samples]

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
    # Shrink the buffer to the complex64 samples: a realloc, which for a
    # large buffer is an mremap that hands the cut pages back without
    # copying the rest. refcheck=False is safe only because `x` is this
    # call's own array from `_qam_spectrum`, and `out`, the one view of it,
    # is dropped first and no other outlives the call.
    del out
    x.resize((n_samples + 1) // 2, refcheck=False)
    return IqBuffer(x.view(np.complex64)[:n_samples], sample_rate_hz)


def _ifft_in_place(x: np.ndarray) -> None:
    """Overwrite the complex128 samples x with their inverse FFT.

    A square length n = m·m with m >= `_FOUR_STEP_MIN_SIDE` takes
    `_four_step_ifft` on `usable_cpus()` workers, at most
    `_FOUR_STEP_MAX_WORKERS`; any other length `np.fft.ifft(x, out=x)`,
    bit for bit.
    """
    m = math.isqrt(x.size)
    if m >= _FOUR_STEP_MIN_SIDE and m * m == x.size:
        _four_step_ifft(x.reshape(m, m), min(usable_cpus(), _FOUR_STEP_MAX_WORKERS))
    else:
        np.fft.ifft(x, out=x)


def _four_step_ifft(a: np.ndarray, n_workers: int) -> None:
    """Overwrite the m × m complex128 matrix a, the row-major view of an
    n = m·m spectrum X, with the view of X's inverse FFT.

    With A[k2, k1] = X[k1 + m·k2] and x[j2 + m·j1] the output:
    1. each column k1 is inverse-transformed over k2, giving B[j2, k1];
    2. B[j2, k1] is multiplied by the twiddle e^{+2πi·j2·k1/n};
    3. each row j2 is inverse-transformed over k1, giving C[j2, j1],
       which is x[j2 + m·j1], as the two 1/m scales make numpy's 1/n;
    4. the matrix is transposed in place, swapping tiles, so
       a[j1, j2] = C[j2, j1].
    Steps 1 and 2 copy a batch of `_FOUR_STEP_BATCH` columns, as they lie,
    into a contiguous per-worker buffer, transform it along its first
    axis and copy it back (at 4096² on a 2-vCPU x86 host, one worker:
    0.52 s, against 0.96 s transforming the strided columns in place).
    With j2 = s·h + l and s = `_TWIDDLE_SPLIT`, the twiddle is
    e^{+2πi·s·h·k1/n} · e^{+2πi·l·k1/n}; both phases are integers below
    n, exact before they become float64, and each batch computes its own
    two short tables, so no n-entry table is built. Every pass splits
    into batches that `run_blocks` computes independently, so the worker
    count changes no bit.
    """
    m = a.shape[0]
    step, split = _FOUR_STEP_BATCH, _TWIDDLE_SPLIT
    groups = -(-m // split)
    scale = 2.0 * np.pi / (m * m)
    local = threading.local()

    def batch_buffer() -> np.ndarray:
        """This worker's groups·split × step buffer; rows from m on stay 0."""
        if not hasattr(local, "buf"):
            local.buf = np.zeros((groups * split, step), np.complex128)
        return local.buf

    def columns(k0: int) -> None:
        cols = a[:, k0 : k0 + step]
        k1 = np.arange(k0, k0 + cols.shape[1])
        buf = batch_buffer()[:, : k1.size]
        np.copyto(buf[:m], cols)
        np.fft.ifft(buf[:m], axis=0, out=buf[:m])
        high = np.exp(1j * (scale * np.multiply.outer(split * np.arange(groups), k1)))
        low = np.exp(1j * (scale * np.multiply.outer(np.arange(split), k1)))
        by_group = buf.reshape(groups, split, k1.size)
        by_group *= high[:, None]
        by_group *= low
        np.copyto(cols, buf[:m])

    def transform_rows(j0: int) -> None:
        block = a[j0 : j0 + step]
        np.fft.ifft(block, out=block)

    def swap_tiles(i0: int) -> None:
        """Transpose the tiles on and right of the diagonal in tile row i0
        with their mirror images below it."""
        rows = slice(i0, i0 + step)
        tile = batch_buffer()[:step]
        for j0 in range(i0, m, step):
            upper, lower = a[rows, j0 : j0 + step], a[j0 : j0 + step, rows]
            saved = tile[: upper.shape[0], : upper.shape[1]]
            np.copyto(saved, upper)
            if j0 != i0:
                np.copyto(upper, lower.T)
            np.copyto(lower, saved.T)

    for one_batch in (columns, transform_rows, swap_tiles):
        run_blocks(one_batch, range(0, m, step), n_workers)


def _occupied_bins(n_samples: int, sample_rate_hz: float, bandwidth_hz: float) -> np.ndarray:
    """Indices, ascending, of the FFT bins whose frequency f lies within
    bandwidth_hz/2 of DC: the bins k where
    np.flatnonzero(np.abs(np.fft.fftfreq(n_samples, 1/fs)) <= bandwidth_hz/2)
    is true, found without building the frequency grid.

    fftfreq gives bin k the frequency fl(k * (1 / (n * d))), d = 1/fs, with
    k in 0..ceil(n/2)-1 at the front and -floor(n/2)..-1 at the back. That
    product is odd in k and, rounded, never decreases as |k| grows, so the
    bins that pass the same test on |f| are 0..K and n-K'..n-1. K and K'
    are found by bisection on that test, evaluated in the same float64
    arithmetic.
    """
    step = 1.0 / (n_samples * (1.0 / sample_rate_hz))
    half = bandwidth_hz / 2.0

    def passing(top: int) -> int:
        """How many of k = 0..top pass: the test holds on a prefix."""
        lo, hi = 0, top + 1  # the count lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if abs((mid - 1) * step) <= half:
                lo = mid
            else:
                hi = mid - 1
        return lo

    positive = passing((n_samples - 1) // 2)
    negative = max(passing(n_samples // 2) - 1, 0)  # |k| = 1..n//2
    return np.concatenate(
        [np.arange(positive), np.arange(n_samples - negative, n_samples)]
    )


def _qam_spectrum(
    bandwidth_hz: float, n_samples: int, sample_rate_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """A complex128 spectrum holding an independent 16-QAM symbol on every
    bin whose frequency lies within bandwidth_hz/2 of DC (`_occupied_bins`),
    zero elsewhere."""
    occupied = _occupied_bins(n_samples, sample_rate_hz, bandwidth_hz)
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
    """Sum several carriers (seed+index each) and renormalize to unit mean power.

    The sum is 0 + carrier 0 + carrier 1 + ... in complex128, in that order;
    the 0 + turns a -0.0 part into +0.0. Several carriers are summed into
    one complex128 buffer. One carrier is normalised block by block into
    its own complex64 samples, so it needs no whole-buffer complex128 copy
    and, with `generate_carrier`, no whole-length buffer beside its
    spectrum. The mean power is summed block by block (`_power_sum`), with
    `np.mean`'s bits; the 0 + changes no |x|², so one carrier's mean is
    taken over its own samples.
    """
    if not specs:
        raise ConfigurationError("compose_multicarrier needs at least one CarrierSpec")
    for spec in specs:
        spec.check_fits(sample_rate_hz)

    total = None
    for i, spec in enumerate(specs):
        out = generate_carrier(spec, n_samples, sample_rate_hz, seed + i).samples
        if len(specs) > 1:
            if total is None:
                total = np.zeros(n_samples, dtype=np.complex128)
            total += out
    # The result overwrites `out`, the last carrier, each block once summed.
    scratch = np.empty(min(BLOCK_LEN, n_samples), dtype=np.complex128)

    def summed(start: int) -> np.ndarray:
        if total is not None:
            return total[start : start + BLOCK_LEN]
        block = scratch[: min(BLOCK_LEN, n_samples - start)]
        np.copyto(block, out[start : start + BLOCK_LEN])
        return np.add(block, 0.0, out=block)

    power = _power_sum(out if total is None else total) / n_samples
    if power == 0.0:
        raise DegenerateInputError("composed waveform is all-zero")
    root = np.sqrt(power)
    for start in range(0, n_samples, BLOCK_LEN):
        block = summed(start)
        np.divide(block, root, out=block)
        out[start : start + BLOCK_LEN] = block
    return IqBuffer(out, sample_rate_hz)


def white_gaussian(n_samples: int, rms: float, seed: int, sample_rate_hz: float) -> IqBuffer:
    """Complex white Gaussian noise scaled, in double precision, to an exact RMS."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    x *= rms / np.sqrt(_power_sum(x) / n_samples)
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
