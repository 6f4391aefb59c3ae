"""The predistorter core: branch-filter-bank evaluation of

    z[n] = sum_p sum_k h[p,k] * psi_p(x[n-k])
         + sum_q sum_k hq[q,k] * psibar_q(x[n-k])
         + c

by one chunked, halo-overlapped, data-parallel engine. The serial
reference path is its one-worker case, and every chunk length and worker
count gives the same bits.

Bit identity is a structural property here, not a tolerance: every sample's
value is produced by the same sequence of elementwise IEEE operations no
matter how the stream is split. Two rules make that true:

* Each branch FIR is evaluated as a tap-ascending shifted accumulation
  (acc[k:] += h_k * psi[:-k]), so sample n is always built as
  (((h0*psi_n) + h1*psi_{n-1}) + ...) regardless of window length.
  np.convolve was rejected: it swaps its arguments when a window is not
  longer than the taps, which changes the summation order.
* Accumulation across branches is fixed: main branches ascending, conjugate
  branches ascending, then the constant c.

Each chunk is computed from its own samples plus the `halo` preceding ones
(halo = max tap count - 1); the halo outputs are recomputed redundantly and
discarded, so workers never communicate mid-stream and output writes are
disjoint.

Arithmetic is single precision throughout (complex64 samples, float32
envelopes). Every scalar touching the hot loop is pre-cast: numpy 2 promotes
complex64 * float64-scalar to complex128, which would silently break both
the precision contract and bit identity.

Per sample, branch envelopes are evaluated once from low to high order with
incremental magnitude powers (r2, then r2*r2, ...), so lower-order partial
results are reused by higher-order branches.

The chunks run on `blocks.map_blocks`, at the one block-length rule of
its stages (`blocks.default_chunk_len`: 16 Ki samples on one worker,
64 Ki on more) unless the caller gives a length. `map_blocks` gives each
worker one workspace of arrays; every step is a ufunc writing into it
with `out=`, so a chunk allocates nothing. That keeps the engine's speed
independent of glibc's dynamic mmap threshold, under which chunk-sized
temporaries become an mmap and a munmap each until some large free
raises it. Storing a result in a workspace array instead of a new one
runs the same ufunc loop on the same operands, so the bits are the same.

This module only computes; `config` writes and reads the coefficient file.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .basis import AphConfig
from .blocks import default_chunk_len, map_blocks
from .exceptions import ConfigurationError, DivergenceError
from .waveforms import IqBuffer

@record
class CoefficientVector:
    """Stacked filter taps plus the constant: [h_main..., h_conj..., c].

    Stored single precision (complex64), the processing precision; the
    training solver works in double and casts on output. `h` is a
    read-only copy of the caller's array, so the checked taps cannot change.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=np.complex64)
        h.flags.writeable = False
        if h.ndim != 1 or h.size < 1:
            raise ConfigurationError("coefficient vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(h)):
            raise ConfigurationError("coefficient vector must be finite")
        object.__setattr__(self, "h", h)

    @property
    def c(self) -> complex:
        return complex(self.h[-1])

    def __len__(self) -> int:
        return self.h.size


def identity_coefficients(cfg: AphConfig) -> CoefficientVector:
    """Coefficients that make the predistorter the identity map.

    Exact (bit-for-bit passthrough) for a plain basis; for an orthogonal
    basis the first branch is x scaled by u_main[0][0], so the inverse
    scale is identity only to single-precision rounding.
    """
    if cfg.sets.main_orders[0] != 1:
        raise ConfigurationError("identity needs a linear main branch (order 1)")
    h = np.zeros(cfg.n_coefficients, dtype=np.complex128)
    h[0] = 1.0 / cfg.basis.u_main[0][0]
    return CoefficientVector(h.astype(np.complex64))


class _Workspace:
    """One worker's arrays for windows of up to `length` samples: every
    window it evaluates is computed in them, so a window allocates
    nothing."""

    def __init__(self, length: int, max_power: int, has_conj: bool):
        f32, c64 = np.float32, np.complex64
        self.squares = np.empty(2 * length, dtype=f32)  # I^2, Q^2 interleaved; then a temp
        self.powers = [None] + [np.empty(length, dtype=f32) for _ in range(max_power)]
        self.envelope = np.empty(length, dtype=f32)
        self.conj = np.empty(length, dtype=c64) if has_conj else None
        self.psi = np.empty(length, dtype=c64)
        self.term = np.empty(length, dtype=c64)
        self.branch = np.empty(length, dtype=c64)
        self.acc = np.empty(length, dtype=c64)


def _compile_branches(coeffs: CoefficientVector, cfg: AphConfig) -> tuple[list, int]:
    """The kernel's branches, one entry per branch in accumulation order,
    and the highest envelope power they use.

    An entry is (conjugate?, taps[c64], envelope terms [(power_index, f32
    coeff)] or None). A None envelope means psi(x) = x (or conj x) with the
    single basis coefficient pre-folded into the taps in double precision.
    """
    branches = []
    max_power = 0
    orders = {"main": cfg.sets.main_orders, "conj": cfg.sets.conj_orders}
    rows = (*cfg.basis.u_main, *cfg.basis.u_conj)
    for (family, order, sl), u in zip(cfg.branch_slices(), rows):
        taps = coeffs.h[sl]
        if order == 1:
            # Pure linear branch: psi(x) = u*x, so fold u into the taps
            # (in double, before the single-precision cast).
            folded = (taps.astype(np.complex128) * float(u[0])).astype(np.complex64)
            branches.append((family == "conj", folded, None))
        else:
            terms = [((m - 1) // 2, np.float32(coeff)) for coeff, m in zip(u, orders[family])]
            max_power = max(max_power, terms[-1][0])
            branches.append((family == "conj", taps.copy(), terms))
    return branches, max_power


class _CompiledKernel:
    """Coefficients + basis folded into a flat per-chunk evaluation program."""

    def __init__(self, coeffs: CoefficientVector, cfg: AphConfig):
        cfg.check_length(coeffs)
        self.c = np.complex64(coeffs.h[-1])
        # Every constant must be finite in single precision: only then is
        # the engine's output finite by construction (see
        # `IqBuffer._of_finite`).
        try:
            with np.errstate(over="raise", invalid="raise"):
                self.branches, self.max_power = _compile_branches(coeffs, cfg)
        except FloatingPointError as err:
            msg = f"coefficients scaled by the basis overflow single precision ({err})"
            raise ConfigurationError(msg) from err

    def workspace(self, length: int) -> _Workspace:
        has_conj = any(is_conj for is_conj, _, _ in self.branches)
        return _Workspace(length, self.max_power, has_conj)

    def __call__(self, window: np.ndarray, ws: _Workspace, skip: int, out: np.ndarray) -> None:
        """Evaluate one window (complex64) in `ws` and write its outputs
        from index `skip` on into `out`.

        Every step is one ufunc with its operands in a fixed order, written
        into a workspace array; a numpy expression that allocated its result
        would run the same loops, so the bits do not depend on where a
        result is stored.
        """
        n = window.size
        powers = [None] + [p[:n] for p in ws.powers[1:]]  # |x|^(2j), built low to high
        if self.max_power:
            # |x|^2 from the squares of the interleaved float32 view: one
            # contiguous pass, then their even (I) and odd (Q) elements added.
            squares = np.square(window.view(np.float32), out=ws.squares[: 2 * n])
            np.add(squares[0::2], squares[1::2], out=powers[1])
            for j in range(2, self.max_power + 1):
                np.multiply(powers[j - 1], powers[1], out=powers[j])

        conj_window = None
        acc = None
        for is_conj, taps, terms in self.branches:
            if is_conj and conj_window is None:
                conj_window = np.conjugate(window, out=ws.conj[:n])
            base = conj_window if is_conj else window
            if terms is None:
                psi = base
            else:
                envelope = ws.envelope[:n]
                first_power, first_coeff = terms[0]
                if first_power == 0:
                    envelope.fill(first_coeff)
                else:
                    np.multiply(first_coeff, powers[first_power], out=envelope)
                scaled = ws.squares[:n]
                for power_index, coeff in terms[1:]:
                    np.multiply(coeff, powers[power_index], out=scaled)
                    np.add(envelope, scaled, out=envelope)
                # envelope * base: the float32 envelope is cast to complex64,
                # the cast numpy's mixed-type multiply makes, then multiplied.
                psi = ws.psi[:n]
                np.copyto(psi, envelope)
                np.multiply(psi, base, out=psi)
            # Tap-ascending shifted accumulation: fixed per-sample op order.
            branch_acc = ws.acc[:n] if acc is None else ws.branch[:n]
            np.multiply(taps[0], psi, out=branch_acc)
            term = ws.term
            for k in range(1, min(taps.size, n)):
                np.multiply(taps[k], psi[: n - k], out=term[: n - k])
                np.add(branch_acc[k:], term[: n - k], out=branch_acc[k:])
            if acc is None:
                acc = branch_acc
            else:
                np.add(acc, branch_acc, out=acc)
        np.add(acc[skip:], self.c, out=out)


def predistort_serial(x: IqBuffer, coeffs: CoefficientVector, cfg: AphConfig) -> IqBuffer:
    """Reference path: the engine with one worker and its default chunk length."""
    return predistort_parallel(x, coeffs, cfg)


def predistort_parallel(
    x: IqBuffer,
    coeffs: CoefficientVector,
    cfg: AphConfig,
    *,
    chunk_len: int | None = None,
    n_workers: int = 1,
) -> IqBuffer:
    """The engine: chunks with recomputed halos, bit-identical to serial.

    The halo is the config's l_max - 1, and `chunk_len` must exceed it;
    None means `default_chunk_len(n_workers)`. The chunks run on
    `blocks.map_blocks` on `n_workers` threads, each with one workspace of
    min(chunk_len + halo, len(x)) samples, so the working memory is the
    output plus one workspace per worker. A chunk that overflows single
    precision raises DivergenceError.
    """
    if chunk_len is None:
        chunk_len = default_chunk_len(n_workers)
    halo = cfg.l_max - 1
    if chunk_len <= halo:
        raise ConfigurationError(f"chunk_len ({chunk_len}) must exceed halo ({halo})")
    kernel = _CompiledKernel(coeffs, cfg)
    try:
        out = map_blocks(kernel, x.samples, chunk_len, n_workers, kernel.workspace, halo)
    except FloatingPointError as err:
        msg = f"predistorter overflows single precision ({err}); reduce the input level"
        raise DivergenceError(msg) from err
    return IqBuffer._of_finite(out, x.sample_rate_hz)
