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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BLOCK_LEN, run_blocks
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
        change a bit of the result.

        Unlike run_tx_chain this does not reject the result: a chain driven
        past single-precision range returns non-finite samples.
        """
        out = np.empty(x.shape, dtype=np.complex64)

        def one_block(start: int) -> None:
            block = slice(start, start + BLOCK_LEN)
            out[block] = pa_evaluate(iq_modulate(x[block], self.modulator), self.pa)

        run_blocks(one_block, range(0, x.size, BLOCK_LEN), n_workers)
        return out


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
