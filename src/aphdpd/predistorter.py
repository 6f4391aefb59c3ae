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

The chunks run on `blocks.map_blocks`, which gives each worker one
workspace of arrays; every step is a ufunc writing into it with `out=`, so
a chunk allocates nothing. That keeps the engine's speed independent of
glibc's dynamic mmap threshold, under which chunk-sized temporaries become
an mmap and a munmap each until some large free raises it. Storing a
result in a workspace array instead of a new one runs the same ufunc loop
on the same operands, so the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import AphConfig, BranchSets, PolyBasis, _members
from .blocks import map_blocks
from .exceptions import ConfigurationError, DivergenceError
from .waveforms import IqBuffer

@dataclass(frozen=True)
class CoefficientVector:
    """Stacked filter taps plus the constant: [h_main..., h_conj..., c].

    Stored single precision (complex64), the processing precision; the
    training solver works in double and casts on output.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.h, dtype=np.complex64))
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
    basis the first branch is x scaled by u[1,1], so the inverse scale is
    identity only to single-precision rounding.
    """
    if cfg.sets.main_orders[0] != 1:
        raise ConfigurationError("identity needs a linear main branch (order 1)")
    h = np.zeros(cfg.n_coefficients, dtype=np.complex128)
    h[0] = 1.0 / cfg.basis.u_main[1][0]
    return CoefficientVector(h.astype(np.complex64))


def _check_length(coeffs: CoefficientVector, cfg: AphConfig) -> None:
    if len(coeffs) != cfg.n_coefficients:
        raise ConfigurationError(
            f"coefficient vector has {len(coeffs)} entries, config needs {cfg.n_coefficients}"
        )


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
    tables = {"main": cfg.basis.u_main, "conj": cfg.basis.u_conj}
    orders = {"main": cfg.sets.main_orders, "conj": cfg.sets.conj_orders}
    for family, order, sl in cfg.branch_slices():
        u = tables[family][order]
        members = _members(order, orders[family])
        taps = coeffs.h[sl]
        if tuple(members) == (1,):
            # Pure linear branch: psi(x) = u*x, so fold u into the taps
            # (in double, before the single-precision cast).
            folded = (taps.astype(np.complex128) * float(u[0])).astype(np.complex64)
            branches.append((family == "conj", folded, None))
        else:
            terms = [((m - 1) // 2, np.float32(coeff)) for coeff, m in zip(u, members)]
            max_power = max(max_power, terms[-1][0])
            branches.append((family == "conj", taps.copy(), terms))
    return branches, max_power


class _CompiledKernel:
    """Coefficients + basis folded into a flat per-chunk evaluation program."""

    def __init__(self, coeffs: CoefficientVector, cfg: AphConfig):
        _check_length(coeffs, cfg)
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


# Chunk length when none is given, by worker count. One worker runs
# cache-sized chunks. More workers run longer ones: each numpy call of a
# chunk hands the GIL over, and at 16 Ki samples those handoffs cost more
# than the cache saves. At 16 Mi samples on a 2-vCPU x86 host (numpy 2.4):
# one worker 0.40-0.42 s at 16 Ki against 0.46-0.48 s at 64 Ki; two
# workers 0.61-0.63 s at 16 Ki against 0.27-0.28 s at 64 Ki.
SERIAL_CHUNK_LEN = 1 << 14
PARALLEL_CHUNK_LEN = 1 << 16


def default_chunk_len(n_workers: int) -> int:
    """The engine's chunk length on `n_workers` workers when none is given."""
    return SERIAL_CHUNK_LEN if n_workers == 1 else PARALLEL_CHUNK_LEN


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


# --- coefficient file format -------------------------------------------------

def coefficients_to_json_dict(coeffs: CoefficientVector, cfg: AphConfig) -> dict:
    """Self-contained JSON form: taps, constant, and the layout + basis
    needed to apply them anywhere."""
    _check_length(coeffs, cfg)
    filters = coeffs.h[:-1]
    return {
        "h": [[float(v.real), float(v.imag)] for v in filters],
        "c": [float(coeffs.h[-1].real), float(coeffs.h[-1].imag)],
        "layout": {
            "main_orders": list(cfg.sets.main_orders),
            "conj_orders": list(cfg.sets.conj_orders),
            "taps_main": list(cfg.taps_main),
            "taps_conj": list(cfg.taps_conj),
            "basis": cfg.basis.to_json_dict(),
        },
    }


def coefficients_from_json_dict(doc: dict) -> tuple[CoefficientVector, AphConfig]:
    """Rebuild coefficients plus the AphConfig they were trained under.

    Parsed as strictly as the experiment config: `h` must be a list of
    [re, im] number pairs, `c` one such pair, `layout` an object of integer
    lists plus the basis, and no key may be unknown. Every tap, the
    constant and every basis entry must fit in single precision. A
    malformed value raises ConfigurationError naming its key.
    """
    from .config import _integer_list, _reject_unknown, _section, _single_pair

    if not isinstance(doc, dict):
        raise ConfigurationError("a coefficient file must hold a JSON object")
    _reject_unknown(doc, ("h", "c", "layout"), "")
    if not isinstance(doc.get("h"), list):
        raise ConfigurationError(f"'h' must be a list of [re, im] pairs, got {doc.get('h')!r}")
    filters = [_single_pair(pair, f"h[{i}]") for i, pair in enumerate(doc["h"])]
    c = _single_pair(doc.get("c"), "c")
    layout = _section(doc, "layout")
    where = "layout."
    _reject_unknown(
        layout, ("main_orders", "conj_orders", "taps_main", "taps_conj", "basis"), where
    )
    cfg = AphConfig(
        BranchSets(
            _integer_list(layout, "main_orders", where),
            _integer_list(layout, "conj_orders", where),
        ),
        _integer_list(layout, "taps_main", where),
        _integer_list(layout, "taps_conj", where),
        PolyBasis.from_json_dict(_section(layout, "basis", where), "layout.basis."),
    )
    h = np.array(filters + [c], dtype=np.complex64)
    coeffs = CoefficientVector(h)
    _check_length(coeffs, cfg)
    return coeffs, cfg
