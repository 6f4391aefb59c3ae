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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import AphConfig, BranchSets, PolyBasis, _members
from .blocks import run_blocks
from .exceptions import ConfigurationError
from .waveforms import IqBuffer

# Chunk length of the serial path and default of the parallel one.
# Whole-buffer evaluation thrashes the cache (~5x slower at 1M samples);
# any chunk length gives identical bits.
DEFAULT_CHUNK_LEN = 65536


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


class _CompiledKernel:
    """Coefficients + basis folded into a flat per-chunk evaluation program."""

    def __init__(self, coeffs: CoefficientVector, cfg: AphConfig):
        _check_length(coeffs, cfg)
        self.l_max = cfg.l_max
        self.c = np.complex64(coeffs.h[-1])

        # One entry per branch, in accumulation order:
        #   (conjugate?, taps[c64], envelope terms [(power_index, f32 coeff)] or None)
        # A None envelope means psi(x) = x (or conj x) with the single basis
        # coefficient pre-folded into the taps in double precision.
        self.branches = []
        self.max_power = 0
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
                self.branches.append((family == "conj", folded, None))
            else:
                terms = [((m - 1) // 2, np.float32(coeff)) for coeff, m in zip(u, members)]
                self.max_power = max(self.max_power, terms[-1][0])
                self.branches.append((family == "conj", taps.copy(), terms))

    def __call__(self, window: np.ndarray) -> np.ndarray:
        """Evaluate one window (complex64 in, complex64 out, same length)."""
        n = window.size
        powers = [None]  # powers[j] = |x|^(2j), built low to high
        if self.max_power:
            r2 = window.real * window.real
            r2 += window.imag * window.imag
            powers.append(r2)
            for _ in range(2, self.max_power + 1):
                powers.append(powers[-1] * r2)

        conj_window = None
        acc = None
        for is_conj, taps, terms in self.branches:
            if is_conj and conj_window is None:
                conj_window = np.conj(window)
            base = conj_window if is_conj else window
            if terms is None:
                psi = base
            else:
                first_power, first_coeff = terms[0]
                if first_power == 0:
                    envelope = np.full(n, first_coeff, dtype=np.float32)
                else:
                    envelope = first_coeff * powers[first_power]
                for power_index, coeff in terms[1:]:
                    envelope += coeff * powers[power_index]
                psi = envelope * base
            # Tap-ascending shifted accumulation: fixed per-sample op order.
            branch_acc = taps[0] * psi
            for k in range(1, taps.size):
                branch_acc[k:] += taps[k] * psi[: n - k]
            acc = branch_acc if acc is None else acc + branch_acc
        acc += self.c
        return acc


def predistort_serial(x: IqBuffer, coeffs: CoefficientVector, cfg: AphConfig) -> IqBuffer:
    """Reference path: the engine with one worker and the default chunk length."""
    return predistort_parallel(x, coeffs, cfg)


def predistort_parallel(
    x: IqBuffer,
    coeffs: CoefficientVector,
    cfg: AphConfig,
    *,
    chunk_len: int = DEFAULT_CHUNK_LEN,
    n_workers: int = 1,
) -> IqBuffer:
    """The engine: chunks with recomputed halos, bit-identical to serial.

    The halo is the config's l_max - 1, and `chunk_len` must exceed it.
    The chunks run on `run_blocks`, which rejects `n_workers` < 1: one
    worker evaluates them in order on the calling thread, more share them
    through a thread pool.
    """
    halo = cfg.l_max - 1
    if chunk_len <= halo:
        raise ConfigurationError(f"chunk_len ({chunk_len}) must exceed halo ({halo})")
    kernel = _CompiledKernel(coeffs, cfg)
    samples = x.samples
    n = samples.size
    out = np.empty(n, dtype=np.complex64)

    def one_chunk(start: int) -> None:
        end = min(start + chunk_len, n)
        window_start = max(0, start - halo)
        out[start:end] = kernel(samples[window_start:end])[start - window_start :]

    run_blocks(one_chunk, range(0, n, chunk_len), n_workers)
    return IqBuffer(out, x.sample_rate_hz)


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
    lists plus the basis, and no key may be unknown. A malformed value
    raises ConfigurationError naming its key.
    """
    from .config import _complex_pair, _integer_list, _reject_unknown, _section

    if not isinstance(doc, dict):
        raise ConfigurationError("a coefficient file must hold a JSON object")
    _reject_unknown(doc, ("h", "c", "layout"), "")
    if not isinstance(doc.get("h"), list):
        raise ConfigurationError(f"'h' must be a list of [re, im] pairs, got {doc.get('h')!r}")
    filters = [_complex_pair(pair, f"h[{i}]") for i, pair in enumerate(doc["h"])]
    c = _complex_pair(doc.get("c"), "c")
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
