"""Complex baseband test waveform synthesis and conditioning.

Carriers are OFDM-like random-QAM multitones: every FFT-grid bin inside the
occupied bandwidth gets an independent 16-QAM symbol, the inverse FFT of the
whole buffer is one cyclic-prefix-free symbol. A bin is inside when its
frequency f on numpy's `fftfreq` grid has |f| <= BW/2 (`_occupied_bins`).
Built that way the waveform is *exactly* band-limited on its own grid (no
symbol-joint splatter) while keeping the ~10 dB PAPR of a Gaussian-like
multitone, which is what drives a polynomial PA into visible spectral
regrowth.

The inverse FFT of a carrier runs in place (`_ifft_in_place`). From
n = 2048² up, a square length takes a four-step (Bailey) IFFT, which
needs no buffer beside the spectrum where numpy's allocates about two;
every other length keeps numpy's bits.

A carrier needs no whole-length buffer beside its complex128 spectrum,
and gets one power sum and one scale factor (`_carrier`). Several are
summed in complex64 and scaled once more, to the drive level
(`compose_multicarrier`).

All generation is deterministic per (spec, seed, n): one Generator per call,
no shared RNG state.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ._record import record
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


@record
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


@record
class CarrierSpec:
    """One carrier: baseband center offset, occupied bandwidth, relative power."""

    center_offset_hz: float
    bandwidth_hz: float
    power_db: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        try:
            gain = 10.0 ** (self.power_db / 20.0)
        except OverflowError:
            msg = f"power_db {self.power_db} gives no finite linear gain"
            raise ConfigurationError(msg) from None
        if not gain <= float(np.finfo(np.float32).max):  # also refuses NaN
            msg = f"carrier power_db {self.power_db} overflows single precision (gain {gain:g})"
            raise ConfigurationError(msg)

    def check_fits(self, sample_rate_hz: float) -> None:
        """Raise unless the occupied band lies inside Nyquist."""
        edge = abs(self.center_offset_hz) + self.bandwidth_hz / 2.0
        if edge > sample_rate_hz / 2.0:
            raise ConfigurationError(
                f"carrier at {self.center_offset_hz} Hz with bandwidth {self.bandwidth_hz} Hz "
                f"exceeds Nyquist for fs={sample_rate_hz} Hz"
            )


def _carrier(
    spec: CarrierSpec, n_samples: int, sample_rate_hz: float, seed: int, rms: float, what: str
) -> np.ndarray:
    """The complex64 samples of one carrier at RMS amplitude `rms`.

    The complex128 spectrum, inverse-transformed in place (`_ifft_in_place`),
    is the one whole-length buffer. Its mean power p is summed block by
    block (`_power_sum`); one pass then applies the frequency shift and the
    factor rms / √p and writes the complex64 samples over the spectrum's
    first half, all the memory kept. An overflow raises ConfigurationError
    starting with `what`."""
    if n_samples <= 0:
        raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
    spec.check_fits(sample_rate_hz)
    x = _qam_spectrum(spec.bandwidth_hz, n_samples, sample_rate_hz, np.random.default_rng(seed))
    _ifft_in_place(x)
    factor = rms / math.sqrt(_power_sum(x) / n_samples)

    # Shift and scale in place, one block at a time: no whole-buffer
    # temporaries, and the products of the whole-buffer form (an
    # out-of-place product can differ in the last bit). Each block is then
    # cast into `out`, the spectrum's first half, in start order: block
    # [s, s + B) writes bytes [8s, 8s + 8B), and from the second block on
    # B <= s, so that lies before its own input at [16s, 16s + 16B) and
    # overwrites only samples already cast. The first block overlaps
    # itself, and numpy's assignment handles the overlap.
    w = 2.0 * np.pi * spec.center_offset_hz / sample_rate_hz
    out = x.view(np.complex64)[:n_samples]

    def one_block(start: int) -> None:
        block = x[start : start + BLOCK_LEN]
        if spec.center_offset_hz != 0.0:
            # Double-precision phase ramp keeps drift below an ulp over long buffers.
            block *= np.exp(1j * (w * np.arange(start, start + block.size)))
        block *= factor
        out[start : start + BLOCK_LEN] = block

    _scale_blocks(one_block, n_samples, factor, what)
    # Shrink the buffer to the complex64 samples: a realloc, for a large
    # buffer an mremap that hands the cut pages back without copying.
    # refcheck=False is safe only because `x` is this call's own array, and
    # `out`, its one view, is dropped first; no other outlives the call.
    del out
    x.resize((n_samples + 1) // 2, refcheck=False)
    return x.view(np.complex64)[:n_samples]


def _scale_blocks(one_block, n_samples: int, factor: float, what: str) -> None:
    """Run `one_block`, which scales a block by `factor`, over n_samples
    (`blocks.run_blocks`); an overflow of single precision raises one
    ConfigurationError starting with `what`. An infinite factor is refused
    first: inf times a finite part raises no floating-point error."""
    if math.isinf(factor):
        raise ConfigurationError(f"{what} overflows single precision (scale factor {factor})")
    try:
        run_blocks(one_block, range(0, n_samples, BLOCK_LEN), 1)
    except FloatingPointError as err:
        raise ConfigurationError(f"{what} overflows single precision ({err})") from err


def _ifft_in_place(x: np.ndarray) -> None:
    """Overwrite the complex128 samples x with their inverse FFT.

    A square length n = m·m with m >= `_FOUR_STEP_MIN_SIDE` takes
    `_four_step_ifft` on `usable_cpus()` workers, at most
    `_FOUR_STEP_MAX_WORKERS`; any other length `np.fft.ifft(x, out=x)`,
    bit for bit. Only squares take the four-step: only a square matrix
    transposes in place, and any other shape would need a second buffer.
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
    specs: list[CarrierSpec], n_samples: int, sample_rate_hz: float, seed: int, rms: float = 1.0
) -> IqBuffer:
    """Sum carriers (seed+index each) at RMS amplitude `rms`; a drive that
    overflows single precision, or an `rms` below its smallest normal,
    raises ConfigurationError.

    A lone carrier's one scale factor (`_carrier`) brings it straight to
    `rms`, so its power_db has no effect. Several each get their gain
    relative to the loudest, 10^((power_db − max power_db)/20) <= 1, are
    summed into the first one's complex64 samples as each is cast, and the
    sum is scaled to `rms` in place.
    """
    if not specs:
        raise ConfigurationError("compose_multicarrier needs at least one CarrierSpec")
    what = f"drive RMS {rms:g}"
    tiny = float(np.finfo(np.float32).tiny)
    if rms < tiny:
        raise ConfigurationError(f"{what} underflows single precision (smallest normal {tiny:g})")
    if len(specs) == 1:
        samples = _carrier(specs[0], n_samples, sample_rate_hz, seed, rms, what)
        return IqBuffer(samples, sample_rate_hz)
    loudest = max(spec.power_db for spec in specs)
    gains = [10.0 ** ((spec.power_db - loudest) / 20.0) for spec in specs]
    total = _carrier(specs[0], n_samples, sample_rate_hz, seed, gains[0], what)
    for i in range(1, len(specs)):
        total += _carrier(specs[i], n_samples, sample_rate_hz, seed + i, gains[i], what)
    power = _power_sum(total) / n_samples
    if power == 0.0:
        raise DegenerateInputError("composed waveform is all-zero")
    factor = rms / math.sqrt(power)

    def one_block(start: int) -> None:
        block = total[start : start + BLOCK_LEN]
        np.multiply(block, factor, out=block)  # a python float keeps complex64

    _scale_blocks(one_block, n_samples, factor, what)
    return IqBuffer(total, sample_rate_hz)


def white_gaussian(n_samples: int, rms: float, seed: int, sample_rate_hz: float) -> IqBuffer:
    """Complex white Gaussian noise scaled, in double precision, to an exact RMS."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    x *= rms / np.sqrt(_power_sum(x) / n_samples)
    return IqBuffer(x.astype(np.complex64), sample_rate_hz)
