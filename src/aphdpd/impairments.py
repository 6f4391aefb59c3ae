"""Simulated transmitter analog chain.

Two impairments, composed in fixed order: an I/Q modulator with gain/phase
imbalance and LO leakage, then a memoryless odd-order polynomial PA

    pa(v) = alpha1*v + alpha3*|v|^2*v + alpha5*|v|^4*v.

The modulator uses the standard two-mixing-coefficient model

    mod(x) = K1*x + K2*conj(x) + lo_leakage,
    K1 = (1 + g*exp(j*phi))/2,   K2 = (1 - g*exp(j*phi))/2,

with g the linear gain imbalance and phi the phase imbalance: the conj(x)
image and the constant leakage are exactly the terms the predistorter's
conjugate branches and constant offset exist to cancel.

All evaluation is pure, elementwise, and double precision internally:
v = K1*x + K2*conj(x) + lo_leakage, then
(alpha1 + alpha3*r2 + alpha5*r2^2)*v with r2 = |v|^2, in complex128, cast
to complex64 (`TxChain._evaluate`). `run_tx_chain` runs it block by block
on `blocks.map_blocks`, in blocks of the engine's length rule
(`blocks.default_chunk_len`: 16 Ki samples on one worker, 64 Ki on more),
in a workspace each worker makes once per call, so a block allocates
nothing and the chain's speed does not depend on glibc's mmap threshold
(see `predistorter`). Neither the blocking nor the worker count changes a
bit, and it raises DivergenceError when a block overflows single
precision.
"""

from __future__ import annotations

import cmath

import numpy as np

from ._record import record
from .blocks import default_chunk_len, map_blocks
from .exceptions import ConfigurationError, DivergenceError
from .waveforms import IqBuffer


@record
class PaModel:
    """Memoryless polynomial power amplifier with odd-order terms 1, 3, 5.
    The coefficients are stored as Python complex numbers."""

    alpha1: complex
    alpha3: complex = 0.0
    alpha5: complex = 0.0

    def __post_init__(self):
        for name in ("alpha1", "alpha3", "alpha5"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.alpha1 == 0:
            raise ConfigurationError("alpha1 must be nonzero (invertible small-signal gain)")


@record
class IqModulatorModel:
    gain_imbalance_db: float = 0.0
    phase_imbalance_deg: float = 0.0
    lo_leakage: complex = 0j

    def __post_init__(self):
        for name in ("gain_imbalance_db", "phase_imbalance_deg", "lo_leakage"):
            if not cmath.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        try:
            g = 10.0 ** (self.gain_imbalance_db / 20.0)
        except OverflowError:
            msg = f"gain_imbalance_db {self.gain_imbalance_db} gives no finite linear gain"
            raise ConfigurationError(msg) from None
        phase = np.exp(1j * np.deg2rad(self.phase_imbalance_deg))
        object.__setattr__(self, "_imbalance", g * phase)  # shared by k1 and k2

    @property
    def k1(self) -> complex:
        return (1.0 + self._imbalance) / 2.0

    @property
    def k2(self) -> complex:
        return (1.0 - self._imbalance) / 2.0


@record
class TxChain:
    """Modulator first, then PA — composition order is part of the contract."""

    modulator: IqModulatorModel
    pa: PaModel

    def _evaluate(self, x: np.ndarray, ws: _TxWorkspace, skip: int, out: np.ndarray) -> None:
        """out = (alpha1 + alpha3*r2 + alpha5*r2^2) * v cast to complex64,
        where v = K1*x + K2*conj(x) + lo_leakage and r2 = re(v)^2 + im(v)^2,
        computed in `ws`. `skip` is always 0: an elementwise stage has no
        halo.

        The workspace arrays and the PA coefficients are complex, so every
        step runs numpy's complex128 loop, on operands in this order:
        v = ((K1*x) + (K2*conj(x))) + lo_leakage, then
        ((alpha1 + alpha3*r2) + (alpha5*r2)*r2) * v. `r2` holds the real
        r2 with a zero imaginary part, the cast numpy makes when a complex
        scalar multiplies a real array.
        """
        m, pa, n = self.modulator, self.pa, x.size
        v, image, r2, poly = ws.v[:n], ws.image[:n], ws.r2[:n], ws.poly[:n]
        # The modulator: K1*x + K2*conj(x) + lo_leakage.
        np.copyto(v, x)
        np.conjugate(v, out=image)
        np.multiply(m.k2, image, out=image)
        np.multiply(m.k1, v, out=v)
        np.add(v, image, out=v)
        np.add(v, m.lo_leakage, out=v)
        # The PA: ((alpha1 + alpha3*r2) + (alpha5*r2)*r2) * v, where
        # r2 = re^2 + im^2 comes from the squares of the float64 view of v.
        squares = np.square(v.view(np.float64), out=image.view(np.float64))
        np.add(squares[0::2], squares[1::2], out=r2.real)
        fifth = image
        np.multiply(pa.alpha3, r2, out=poly)
        np.add(pa.alpha1, poly, out=poly)
        np.multiply(pa.alpha5, r2, out=fifth)
        np.multiply(fifth, r2, out=fifth)
        np.add(poly, fifth, out=poly)
        np.multiply(poly, v, out=v)
        np.copyto(out, v)


class _TxWorkspace:
    """One worker's complex128 arrays for TX-chain blocks of up to
    `length` samples. `r2` is written through its real part only, so its
    imaginary part stays zero."""

    def __init__(self, length: int):
        self.v = np.empty(length, dtype=np.complex128)
        self.image = np.empty(length, dtype=np.complex128)
        self.r2 = np.zeros(length, dtype=np.complex128)
        self.poly = np.empty(length, dtype=np.complex128)


def run_tx_chain(x: IqBuffer, chain: TxChain, n_workers: int = 1) -> IqBuffer:
    """Modulator then PA over a buffer, cast to complex64, in blocks of
    `default_chunk_len(n_workers)` samples on `n_workers` threads. The
    chain is elementwise, so neither the blocking nor the worker count can
    change a bit. The working memory is the output plus one workspace of
    min(block length, len(x)) samples per worker."""
    block_len = default_chunk_len(n_workers)
    try:
        out = map_blocks(chain._evaluate, x.samples, block_len, n_workers, _TxWorkspace)
    except FloatingPointError as err:
        msg = f"transmit chain output overflows single precision ({err}); reduce the drive level"
        raise DivergenceError(msg) from err
    return IqBuffer._of_finite(out, x.sample_rate_hz)
