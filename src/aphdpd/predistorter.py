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
powers of |x|^2). Every scalar touching the hot loop is pre-cast: numpy 2
promotes complex64 * float64-scalar to complex128, which would silently
break both the precision contract and bit identity.

The basis is folded into the taps when the kernel is compiled, so every
branch it runs is a monomial |x|^(2j) x (or conj x), and the powers of
|x|^2 are built once per window, low to high (r2, then r2*r2, ...).

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
    basis the folded linear tap is u_main[0][0] times its inverse rounded
    to single precision: the identity only to that rounding.
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
        self.squares = np.empty(2 * length, dtype=f32)  # I^2, Q^2 interleaved
        self.powers = [None] + [np.empty(length, dtype=f32) for _ in range(max_power)]
        self.conj = np.empty(length, dtype=c64) if has_conj else None
        self.psi = np.empty(length, dtype=c64)
        self.term = np.empty(length, dtype=c64)
        self.branch = np.empty(length, dtype=c64)
        self.acc = np.empty(length, dtype=c64)


def _compile_branches(coeffs: CoefficientVector, cfg: AphConfig) -> list:
    """The kernel's branches, one monomial per member order of each family
    (main, then conjugate; orders ascending), in accumulation order.

    An entry is (conjugate?, taps[c64], power index q): the branch filters
    psi = |x|^(2q) x, or conj x in place of x, and q = 0 is x itself.
    Basis branch i is sum_j u[i][j] |x|^(p_j - 1) x, so the member of
    order p_j = 2q + 1 carries the taps g_j[k] = sum over i >= j of
    u[i][j] h_i[k], summed over i ascending in double precision with a
    missing tap read as 0, then cast to single precision. g_j is as long
    as the longest h_i with i >= j, so no more than l_max.
    """
    slices = cfg.branch_slices()
    branches = []
    for is_conj, orders, rows in (
        (False, cfg.sets.main_orders, cfg.basis.u_main),
        (True, cfg.sets.conj_orders, cfg.basis.u_conj),
    ):
        family = [coeffs.h[sl] for name, _, sl in slices if (name == "conj") == is_conj]
        for j, order in enumerate(orders):
            folded = np.zeros(max(h.size for h in family[j:]), dtype=np.complex128)
            for u, h in zip(rows[j:], family[j:]):
                folded[: h.size] += h.astype(np.complex128) * float(u[j])
            branches.append((is_conj, folded.astype(np.complex64), (order - 1) // 2))
    return branches


class _CompiledKernel:
    """Coefficients + basis folded into a flat per-chunk evaluation program."""

    def __init__(self, coeffs: CoefficientVector, cfg: AphConfig):
        cfg.check_length(coeffs)
        self.c = np.complex64(coeffs.h[-1])
        # Every constant must be finite in single precision: only then is
        # the engine's output finite by construction (see
        # `IqBuffer._of_finite`). Taps that do not fit are runaway
        # coefficients, which diverge like any stage that overflows.
        try:
            with np.errstate(over="raise", invalid="raise"):
                self.branches = _compile_branches(coeffs, cfg)
        except FloatingPointError as err:
            msg = f"coefficients scaled by the basis overflow single precision ({err})"
            raise DivergenceError(msg) from err
        self.max_power = max(power for _, _, power in self.branches)

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
        for is_conj, taps, power in self.branches:
            if is_conj and conj_window is None:
                conj_window = np.conjugate(window, out=ws.conj[:n])
            base = psi = conj_window if is_conj else window
            if power:
                # |x|^(2q) * base: the float32 power is cast to complex64,
                # the cast numpy's mixed-type multiply makes, then multiplied.
                psi = ws.psi[:n]
                np.copyto(psi, powers[power])
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
