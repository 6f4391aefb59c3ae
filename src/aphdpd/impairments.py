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

All evaluation is pure, elementwise, and double precision internally.
`pa_evaluate` and `iq_modulate` define the chain's arithmetic.
`TxChain.apply` runs the same ufunc loops block by block, in arrays each
worker allocates once per call, so a block allocates nothing and the
chain's speed does not depend on glibc's mmap threshold (see
`predistorter`). Its output equals pa_evaluate(iq_modulate(x)) cast to
complex64, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BLOCK_LEN, per_thread, run_blocks
from .exceptions import ConfigurationError
from .waveforms import IqBuffer


@dataclass(frozen=True)
class PaModel:
    """Memoryless polynomial power amplifier with odd-order terms 1, 3, 5."""

    alpha1: complex
    alpha3: complex = 0.0
    alpha5: complex = 0.0

    def __post_init__(self):
        if self.alpha1 == 0:
            raise ConfigurationError("alpha1 must be nonzero (invertible small-signal gain)")


@dataclass(frozen=True)
class IqModulatorModel:
    gain_imbalance_db: float = 0.0
    phase_imbalance_deg: float = 0.0
    lo_leakage: complex = 0.0

    @cached_property
    def _imbalance(self) -> complex:
        """g*exp(j*phi), shared by k1 and k2."""
        g = 10.0 ** (self.gain_imbalance_db / 20.0)
        return g * np.exp(1j * np.deg2rad(self.phase_imbalance_deg))

    @property
    def k1(self) -> complex:
        return (1.0 + self._imbalance) / 2.0

    @property
    def k2(self) -> complex:
        return (1.0 - self._imbalance) / 2.0


@dataclass(frozen=True)
class TxChain:
    """Modulator first, then PA — composition order is part of the contract."""

    modulator: IqModulatorModel
    pa: PaModel

    def apply(self, x: np.ndarray, n_workers: int = 1) -> np.ndarray:
        """Modulator then PA over raw samples, cast to complex64.

        Runs in blocks of `BLOCK_LEN` samples, on `n_workers` threads,
        written into one complex64 output. The chain is elementwise (every
        output sample depends on its input sample alone, through the same
        operations), so neither the blocking nor the worker count can
        change a bit of the result. Each block runs the operations of
        `iq_modulate` then `pa_evaluate`, in their order and precision, in
        arrays its worker allocated once for blocks of
        min(BLOCK_LEN, len(x)) samples: the working memory is the output
        plus one such set per worker.

        Unlike run_tx_chain this does not reject the result: a chain driven
        past single-precision range returns non-finite samples.
        """
        out = np.empty(x.shape, dtype=np.complex64)
        workspace = per_thread(lambda: _TxWorkspace(min(BLOCK_LEN, x.size)))

        def one_block(start: int) -> None:
            block = slice(start, start + BLOCK_LEN)
            self._evaluate(x[block], workspace(), out[block])

        run_blocks(one_block, range(0, x.size, BLOCK_LEN), n_workers)
        return out

    def _evaluate(self, x: np.ndarray, ws: _TxWorkspace, out: np.ndarray) -> None:
        """out = pa_evaluate(iq_modulate(x)), cast to complex64, computed in
        `ws` by the same ufunc loops on the same operands in the same order.

        Every workspace array is complex128. A step whose numpy loop is
        real (a real PA coefficient times a real array) runs on the real
        parts, with the imaginary parts zero, so a later complex step reads
        exactly the cast numpy would make, and no step casts through a
        buffer of its own.
        """
        m, pa, n = self.modulator, self.pa, x.size
        v, image, r2, poly = ws.v[:n], ws.image[:n], ws.r2[:n], ws.poly[:n]
        # iq_modulate: K1*x + K2*conj(x) + lo_leakage.
        np.copyto(v, x)
        np.conjugate(v, out=image)
        np.multiply(m.k2, image, out=image)
        np.multiply(m.k1, v, out=v)
        np.add(v, image, out=v)
        np.add(v, m.lo_leakage, out=v)
        # pa_evaluate: ((alpha1 + alpha3*r2) + (alpha5*r2)*r2) * v, where
        # r2 = re^2 + im^2 comes from the squares of the float64 view of v.
        squares = np.square(v.view(np.float64), out=image.view(np.float64))
        np.add(squares[0::2], squares[1::2], out=r2.real)
        c1, c3, c5 = (np.iscomplexobj(a) for a in (pa.alpha1, pa.alpha3, pa.alpha5))
        c13, c135 = c1 or c3, c1 or c3 or c5
        fifth = image
        if not c3:
            poly.imag = 0.0
        if not c5:
            fifth.imag = 0.0
        np.multiply(pa.alpha3, _part(r2, c3), out=_part(poly, c3))
        np.add(pa.alpha1, _part(poly, c13), out=_part(poly, c13))
        np.multiply(pa.alpha5, _part(r2, c5), out=_part(fifth, c5))
        np.multiply(_part(fifth, c5), _part(r2, c5), out=_part(fifth, c5))
        np.add(_part(poly, c135), _part(fifth, c135), out=_part(poly, c135))
        np.multiply(poly, v, out=v)
        np.copyto(out, v)


def _part(z: np.ndarray, is_complex: bool) -> np.ndarray:
    """z, or its real part where the step's numpy loop is real."""
    return z if is_complex else z.real


class _TxWorkspace:
    """One worker's complex128 arrays for TX-chain blocks of up to
    `length` samples. `r2` is written through its real part only, so its
    imaginary part stays zero."""

    def __init__(self, length: int):
        self.v = np.empty(length, dtype=np.complex128)
        self.image = np.empty(length, dtype=np.complex128)
        self.r2 = np.zeros(length, dtype=np.complex128)
        self.poly = np.empty(length, dtype=np.complex128)


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


def run_tx_chain(x: IqBuffer, chain: TxChain, n_workers: int = 1) -> IqBuffer:
    """Push a buffer through modulator + PA, elementwise, on `n_workers` threads."""
    return IqBuffer(chain.apply(x.samples, n_workers), x.sample_rate_hz)
