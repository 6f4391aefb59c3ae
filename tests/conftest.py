"""Shared test helpers: independent double-precision oracles, and the
reference forms the package is pinned to bit for bit.

The oracles deliberately avoid the package's own evaluation code paths
(no shared kernels, no reused branch evaluators): plain Python loops over
the defining sums, in double precision, so that a bug in the production
engine cannot hide in its own oracle. They are `reference_predistort`,
`reference_basis_matrix`, `gram_schmidt_basis_rows` and `reference_welch`.

The reference forms state an arithmetic the package must reproduce to
the bit, so they share its operation order, and where a sum's order is
the point, its summation:
* `reference_kernel` runs the engine's compiled program, monomial
  branches whose taps carry the basis, by allocating numpy expressions,
  the way the engine once did;
* `pa_evaluate` and `iq_modulate` are the transmit chain's elementwise
  expressions, which `run_tx_chain` equals cast to complex64;
* `estimate_gain` and `nmse_db` are the gain and the NMSE of two sample
  arrays, summed as training sums them (`_gain`, `_power_sum`), which the
  training gate equals.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aphdpd import (
    NMSE_FLOOR_DB,
    AphConfig,
    CoefficientVector,
    ConfigurationError,
    DegenerateInputError,
    IqBuffer,
    IqModulatorModel,
    PaModel,
)
from aphdpd.training import _gain
from aphdpd.waveforms import _power_sum, white_gaussian

# Drive of the Gaussian training stimulus: well below the fold-over
# amplitude of the tests' compressive PA models, so out-of-model
# excursions stay rare.
TRAINING_RMS = 0.15


def _reference_branches(xs: np.ndarray, cfg: AphConfig):
    """(taps, branch sequence) per branch in column order (main orders
    ascending, then conjugate), each sequence evaluated by its defining sum
    of |x|^(m-1) terms in complex128."""
    mag = np.abs(xs)
    for orders, taps_list, table, base in (
        (cfg.sets.main_orders, cfg.taps_main, cfg.basis.u_main, xs),
        (cfg.sets.conj_orders, cfg.taps_conj, cfg.basis.u_conj, np.conj(xs)),
    ):
        for i, n_taps in enumerate(taps_list):
            psi = np.zeros(xs.size, dtype=np.complex128)
            for u, m in zip(table[i], orders[: i + 1]):
                psi += u * mag ** (m - 1) * base
            yield n_taps, psi


def reference_predistort(x, coeffs: CoefficientVector, cfg: AphConfig) -> np.ndarray:
    """Brute-force branch-filter-bank evaluation, complex128 throughout."""
    xs = np.asarray(x, dtype=np.complex128)
    n = xs.size
    out = np.full(n, complex(coeffs.h[-1]), dtype=np.complex128)
    offset = 0
    for n_taps, psi in _reference_branches(xs, cfg):
        for k in range(n_taps):
            out[k:] += complex(coeffs.h[offset + k]) * psi[: n - k]
        offset += n_taps
    return out


def reference_kernel(kernel, window: np.ndarray) -> np.ndarray:
    """The engine kernel's program (`_CompiledKernel.branches`,
    `max_power`, `c`) evaluated over one whole window by plain numpy
    expressions that allocate every result, in the operation order the
    engine defines: powers of |x|^2 low to high, psi = power * base,
    tap-ascending shifted accumulation, branches in order, then the
    constant. Unlike the oracles above it shares the engine's
    single-precision arithmetic, so the engine must equal it bit for bit
    at any chunk length and worker count."""
    n = window.size
    powers = [None]  # powers[j] = |x|^(2j), built low to high
    if kernel.max_power:
        r2 = window.real * window.real
        r2 += window.imag * window.imag
        powers.append(r2)
        for _ in range(2, kernel.max_power + 1):
            powers.append(powers[-1] * r2)

    conj_window = None
    acc = None
    for is_conj, taps, power in kernel.branches:
        if is_conj and conj_window is None:
            conj_window = np.conj(window)
        base = conj_window if is_conj else window
        psi = powers[power] * base if power else base
        branch_acc = taps[0] * psi
        for k in range(1, taps.size):
            branch_acc[k:] += taps[k] * psi[: n - k]
        acc = branch_acc if acc is None else acc + branch_acc
    acc += kernel.c
    return acc


def reference_basis_matrix(x, cfg: AphConfig) -> np.ndarray:
    """The dense regression matrix A that least-squares training solves
    against, complex128: for each branch, its sequence delayed by 0..taps-1
    samples with zero padding to n + l_max - 1 rows, then an all-ones
    column. A @ h is the predistorter output, tail included."""
    xs = np.asarray(x, dtype=np.complex128)
    n = xs.size
    rows = n + cfg.l_max - 1
    columns = []
    for n_taps, psi in _reference_branches(xs, cfg):
        for k in range(n_taps):
            column = np.zeros(rows, dtype=np.complex128)
            column[k : k + n] = psi
            columns.append(column)
    columns.append(np.ones(rows, dtype=np.complex128))
    return np.stack(columns, axis=1)


def gram_schmidt_basis_rows(samples: np.ndarray, orders) -> dict[int, np.ndarray]:
    """Classic Gram-Schmidt on the monomial envelope functions.

    Orthonormalizes {|x|^(m-1)} over the sample set under the weighted inner
    product <f, g> = mean(f * g * |x|^2), which is the correlation of the
    branch signals f(x)*x and g(x)*x. Returns coefficient rows over the
    member monomials, comparable to the fitted basis up to sign.
    """
    mag = np.abs(np.asarray(samples, dtype=np.complex128))
    w = mag**2
    rows = {}
    basis_vecs: list[np.ndarray] = []  # coefficient vectors over monomials
    for i, order in enumerate(orders):
        members = [m for m in orders if m <= order]
        coeff = np.zeros(i + 1)
        coeff[i] = 1.0

        def signal(c, members=members):
            acc = np.zeros_like(w)
            for ci, m in zip(c, members):
                acc = acc + ci * mag ** (m - 1)
            return acc

        v = coeff.copy()
        for prev in basis_vecs:
            proj = np.mean(signal(np.pad(prev, (0, i + 1 - prev.size))) * signal(v) * w)
            v = v - proj * np.pad(prev, (0, i + 1 - prev.size))
        norm = np.sqrt(np.mean(signal(v) ** 2 * w))
        v = v / norm
        basis_vecs.append(v)
        rows[order] = v
    return rows


def reference_welch(samples, fs: float, nfft: int, overlap: float):
    """Welch PSD by its definition: a loop over the overlapping segments,
    each windowed by a periodic Hann window and transformed by an explicit
    DFT matrix, complex128 throughout, density-scaled. Returns (freq, psd)
    on the (-fs/2, fs/2] grid in ascending order."""
    x = np.asarray(samples, dtype=np.complex128)
    step = nfft - int(round(nfft * overlap))
    k = np.arange(nfft)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / nfft)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / nfft)
    acc = np.zeros(nfft)
    n_segments = 0
    for start in range(0, len(x) - nfft + 1, step):
        spectrum = dft @ (x[start : start + nfft] * window)
        acc += spectrum.real**2 + spectrum.imag**2
        n_segments += 1
    psd = acc / (n_segments * fs * np.sum(window**2))
    freq = k * fs / nfft
    freq = np.where(freq > fs / 2, freq - fs, freq)
    order = np.argsort(freq)
    return freq[order], psd[order]


def pa_evaluate(x, pa: PaModel):
    """alpha1*x + alpha3*|x|^2*x + alpha5*|x|^4*x (scalar or array)."""
    x = np.asarray(x, dtype=np.complex128)
    r2 = x.real**2 + x.imag**2
    y = (pa.alpha1 + pa.alpha3 * r2 + pa.alpha5 * r2 * r2) * x
    return complex(y) if y.ndim == 0 else y


def iq_modulate(x, m: IqModulatorModel):
    """K1*x + K2*conj(x) + lo_leakage (scalar or array)."""
    x = np.asarray(x, dtype=np.complex128)
    y = m.k1 * x + m.k2 * np.conj(x) + m.lo_leakage
    return complex(y) if y.ndim == 0 else y


def estimate_gain(pa_in: IqBuffer, pa_out: IqBuffer) -> complex:
    """Least-squares complex gain: argmin_g sum |pa_out - g*pa_in|^2."""
    a = pa_in.samples.astype(np.complex128)
    return _gain(a, pa_out.samples.astype(np.complex128), _power_sum(a))


def nmse_db(test: np.ndarray, reference: np.ndarray) -> float:
    """Normalized mean-square error of test vs reference sample arrays, in
    dB, compared in double precision and floored at NMSE_FLOOR_DB.

    A complex128 `test` is used as is, so a caller's double-precision
    result is never rounded to complex64 first.
    """
    if len(test) != len(reference) or len(reference) == 0:
        raise ConfigurationError(
            f"buffers must be nonempty and equal length, got {len(test)} vs {len(reference)}"
        )
    ref = reference.astype(np.complex128)
    err = test.astype(np.complex128) - ref
    denom = _power_sum(ref)
    if denom == 0.0:
        raise DegenerateInputError("reference signal is identically zero")
    ratio = _power_sum(err) / denom
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return 10.0 * float(np.log10(ratio))


def gaussian_waveform(n: int, seed: int) -> IqBuffer:
    """The training stimulus of tests that need no carrier plan: complex
    white Gaussian samples at `TRAINING_RMS`, `ila_train`'s
    make_waveform(n, seed) signature."""
    return white_gaussian(n, TRAINING_RMS, seed, 1.0)


def child_peak_rss(body: str) -> int:
    """The VmHWM in bytes of a fresh Python that imports `aphdpd.cli` and
    runs `body`, printed as its last line. ru_maxrss would not do: a child
    that subprocess starts by vfork and exec reports at least the test
    process's own peak."""
    code = "\n".join(
        [
            "import aphdpd.cli",
            body,
            "status = open('/proc/self/status').read().split('VmHWM:')[1]",
            "print(int(status.split()[0]) * 1024)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("DPD_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(0xD1D)


@pytest.fixture
def noise_buffer(rng):
    """200k-sample complex Gaussian buffer at a moderate drive."""
    x = rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    x *= 0.2 / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(x.astype(np.complex64), 61.44e6)
