"""Experiment configuration: one JSON document drives the whole pipeline.

Loading is strict in both directions — a missing required key and an
unrecognized key are both errors that name the offending key — because a
silently ignored typo ("tapsmain") would change experiment results without
any visible failure. Each JSON object has one key table, read by `_fields`.

The document aggregates everything a run needs: sampling, carriers, the
predistorter structure, training knobs, the simulated chain impairments,
and the analysis bands. Complex values are written as [re, im] pairs.

The coefficient file, the one artifact that crosses from training to run
time, is written and read here under the same rules. It states each fact
once: the branch orders only in its layout, and each real basis entry as
one number. Every JSON document (config, coefficient file, I/Q sidecar) is
read by `_read_json`, which also refuses a key given twice in one object
and nesting deeper than the decoder recurses, and then by its key tables.
The predistorter's structure rules are stated once, in `basis`; both
documents run them under their own dotted keys.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ._record import record
from .analysis import welch_step
from .basis import (
    ORTHOGONAL,
    PLAIN,
    AphConfig,
    BranchSets,
    PolyBasis,
    _check_basis_rows,
    _check_structure,
    _is_int,
    fit_orthogonal_basis,
)
from .exceptions import ConfigurationError
from .impairments import IqModulatorModel, PaModel, TxChain
from .predistorter import CoefficientVector
from .training import TrainingConfig
from .waveforms import CarrierSpec, IqBuffer, compose_multicarrier

SEED_ENV_VAR = "DPD_SEED"

# Seed offset for the dedicated basis-fitting buffer, so it never collides
# with the validation stimulus (seed) or training draws (seed+1..seed+iters).
_BASIS_FIT_SEED_OFFSET = 500


# numpy indexes with 64-bit integers, so an integer key beyond int64, or a
# sample count whose complex128 buffer has more bytes than an index can
# count, would make it raise ValueError or OverflowError instead of a
# MemoryError. The parser refuses both, naming the key; it sets no size cap.
_INT64 = np.iinfo(np.int64)
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize

_REQUIRED = object()  # a key the object must give
_OWN = object()  # an optional key that keeps the value class field's own default


def _fields(doc: dict, where: str, table: dict) -> dict:
    """The keys of the JSON object `doc` read by `table`, which maps each key
    to (parser of (value, dotted name), default). The default is _REQUIRED,
    _OWN (the key is left out of the result) or a value."""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigurationError(f"unknown key '{where}{unknown[0]}'")
    out = {}
    for key, (parse, default) in table.items():
        if key in doc:
            out[key] = parse(doc[key], f"{where}{key}")
        elif default is _REQUIRED:
            raise ConfigurationError(f"missing required key '{where}{key}'")
        elif default is not _OWN:
            out[key] = default
    return out


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{name}' must be a JSON object, got {value!r}")
    return value


def _object(table: dict, into=dict):
    """Parser of a JSON object read by `table`, giving `into(**fields)`."""
    return lambda value, name: into(**_fields(_json_object(value, name), f"{name}.", table))


# Python's json module reads NaN and Infinity; no quantity here may be either.
def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _number(value, name: str) -> float:
    if not _is_number(value):
        raise ConfigurationError(f"'{name}' must be a finite number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    x = _number(value, name)
    if x <= 0:
        raise ConfigurationError(f"'{name}' must be positive, got {x}")
    return x


def _any_integer(value, name: str) -> int:  # of any size: the caller bounds it
    if not _is_int(value):
        raise ConfigurationError(f"'{name}' must be an integer, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    if not _INT64.min <= _any_integer(value, name) <= _INT64.max:
        raise ConfigurationError(f"'{name}' must be a 64-bit integer, got {value}")
    return value


def _count(value, name: str) -> int:
    if _integer(value, name) < 1:
        raise ConfigurationError(f"'{name}' must be >= 1, got {value}")
    return value


def _seed(value, name: str) -> int:  # of any size: numpy seeds a generator with it
    if _any_integer(value, name) < 0:
        raise ConfigurationError(f"'{name}' must be >= 0, got {value}")
    return value


def _check_sample_count(n: int, key: str, limit: int) -> None:
    if n > limit:
        raise ConfigurationError(
            f"'{key}' of {n} samples is more than numpy can index (at most {limit})"
        )


def _basis_mode(value, name: str) -> str:
    if value not in (PLAIN, ORTHOGONAL):
        raise ConfigurationError(f"'{name}' must be plain or orthogonal, got {value!r}")
    return value


def _complex_pair(value, name: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ConfigurationError(f"'{name}' must be a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _single(parse):
    """Parser of a value read by `parse` that stays finite in single
    precision, the precision the predistorter computes in."""

    def parse_single(value, name: str):
        z = parse(value, name)
        with np.errstate(over="ignore"):
            fits = np.isfinite(np.complex64(z))
        if not fits:
            raise ConfigurationError(f"'{name}' does not fit in single precision, got {value!r}")
        return z

    return parse_single


_single_pair = _single(_complex_pair)


def _list_of(parse, what: str):
    """Parser of a JSON list whose entries `parse` reads, giving a tuple."""

    def parse_list(value, name: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"'{name}' must be a list of {what}, got {value!r}")
        return tuple(parse(entry, f"{name}[{i}]") for i, entry in enumerate(value))

    return parse_list


_single_pairs = _list_of(_single_pair, "[re, im] pairs")
_tap_counts = _list_of(_integer, "tap counts")
_orders = _list_of(_any_integer, "orders")  # `basis` bounds each order under the list's key


@record
class ExperimentConfig:
    """Validated, fully typed view of one experiment document."""

    sample_rate_hz: float
    n_samples: int
    seed: int
    drive_rms: float
    carriers: tuple[CarrierSpec, ...]
    branch_sets: BranchSets
    taps_main: tuple[int, ...]
    taps_conj: tuple[int, ...]
    basis_mode: str
    training: TrainingConfig
    pa: PaModel
    modulator: IqModulatorModel
    nfft: int
    overlap: float
    bands: tuple[tuple[float, float], ...]

    def tx_chain(self) -> TxChain:
        return TxChain(self.modulator, self.pa)

    def waveform_factory(self):
        """(n, seed) -> composed multicarrier stimulus at the drive level."""
        carriers = self.carriers
        fs = self.sample_rate_hz
        drive = self.drive_rms

        def make(n: int, seed: int) -> IqBuffer:
            return compose_multicarrier(list(carriers), n, fs, seed, drive)

        return make

    def aph_config(self) -> AphConfig:
        """Build the predistorter structure, fitting the basis if needed.

        The orthogonal basis is fitted on a dedicated stimulus (twice the
        training length, offset seed), deterministic per config seed.
        """
        if self.basis_mode == PLAIN:
            basis = PolyBasis.plain(self.branch_sets)
        else:
            wave = self.waveform_factory()
            fit_buf = wave(
                2 * self.training.n_training_samples, self.seed + _BASIS_FIT_SEED_OFFSET
            )
            basis = fit_orthogonal_basis(fit_buf, self.branch_sets)
        return AphConfig(self.branch_sets, self.taps_main, self.taps_conj, basis)


def _taps(value, name: str) -> int | tuple[int, ...]:
    """One tap count for every branch (an int), or one per branch (a list)."""
    if isinstance(value, list):
        return _tap_counts(value, name)
    if not _is_int(value):
        raise ConfigurationError(f"'{name}' must be an int or list of ints, got {value!r}")
    return _count(value, name)


def _band(value, name: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2 or not all(map(_is_number, value)):
        raise ConfigurationError(f"'{name}' must be a [f_lo, f_hi] pair")
    lo, hi = float(value[0]), float(value[1])
    if not lo < hi:
        raise ConfigurationError(f"'{name}' must have f_lo < f_hi")
    return lo, hi


# The key table of each object in the experiment document.
_CARRIER = {
    "center_offset_hz": (_number, _REQUIRED),
    "bandwidth_hz": (_positive, _REQUIRED),
    "power_db": (_number, _OWN),
}
_DPD = {
    "max_order_main": (_integer, _REQUIRED),
    "max_order_conj": (_integer, _REQUIRED),
    "taps_main": (_taps, _REQUIRED),
    "taps_conj": (_taps, _REQUIRED),
    "basis_mode": (_basis_mode, _REQUIRED),
}
_TRAINING = {
    "n_training_samples": (_count, _REQUIRED),
    "iterations": (_count, _OWN),
}
_PA = {
    "alpha1": (_complex_pair, _REQUIRED),
    "alpha3": (_complex_pair, _OWN),
    "alpha5": (_complex_pair, _OWN),
}
_IQ_MODULATOR = {
    "gain_imbalance_db": (_number, _OWN),
    "phase_imbalance_deg": (_number, _OWN),
    "lo_leakage": (_complex_pair, _OWN),
}
_ANALYSIS = {
    "nfft": (_integer, 4096),
    "overlap": (_number, 0.5),
    "bands": (_list_of(_band, "[f_lo, f_hi] pairs"), _REQUIRED),
}
_CONFIG = {
    "sample_rate_hz": (_positive, _REQUIRED),
    "n_samples": (_count, _REQUIRED),
    "seed": (_seed, _REQUIRED),
    "drive_rms": (_positive, _REQUIRED),
    "carriers": (_list_of(_object(_CARRIER, CarrierSpec), "carrier objects"), _REQUIRED),
    "dpd": (_object(_DPD), _REQUIRED),
    "training": (_object(_TRAINING), _REQUIRED),
    "pa": (_object(_PA, PaModel), _REQUIRED),
    "iq_modulator": (_object(_IQ_MODULATOR, IqModulatorModel), _REQUIRED),
    "analysis": (_object(_ANALYSIS), _REQUIRED),
}


def parse_experiment_config(doc: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    top = _fields(doc, "", _CONFIG)
    fs, n_samples, seed = top["sample_rate_hz"], top["n_samples"], top["seed"]
    _check_sample_count(n_samples, "n_samples", _MAX_SAMPLES)
    if seed_override is not None:
        seed = int(seed_override)
        if seed < 0:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be >= 0, got {seed}")
    if not top["carriers"]:
        raise ConfigurationError("'carriers' must be a nonempty list")
    for spec in top["carriers"]:
        spec.check_fits(fs)

    dpd = top["dpd"]
    keys = [f"dpd.{key}" for key in ("max_order_main", "max_order_conj", "taps_main", "taps_conj")]
    sets = BranchSets.odd_orders_up_to(dpd["max_order_main"], dpd["max_order_conj"], keys[:2])
    main, conj = sets.main_orders, sets.conj_orders
    # One tap count (an int) is every branch's.
    taps_main, taps_conj = (
        (taps,) * len(orders) if _is_int(taps) else taps
        for taps, orders in ((dpd["taps_main"], main), (dpd["taps_conj"], conj))
    )
    _check_structure(main, conj, taps_main, taps_conj, keys)

    training = TrainingConfig(**top["training"], seed=seed)
    # The orthogonal basis is fitted on twice as many samples (`aph_config`).
    _check_sample_count(
        training.n_training_samples, "training.n_training_samples", _MAX_SAMPLES // 2
    )

    an = top["analysis"]
    welch_step(an["nfft"], an["overlap"])
    for i, (lo, hi) in enumerate(an["bands"]):
        if lo < -fs / 2 or hi > fs / 2:
            raise ConfigurationError(
                f"'analysis.bands[{i}]' [{lo}, {hi}] extends beyond Nyquist (+-{fs / 2})"
            )

    return ExperimentConfig(
        sample_rate_hz=fs, n_samples=n_samples, seed=seed, drive_rms=top["drive_rms"],
        carriers=top["carriers"], branch_sets=sets, taps_main=taps_main, taps_conj=taps_conj,
        basis_mode=dpd["basis_mode"], training=training, pa=top["pa"],
        modulator=top["iq_modulator"], **an,
    )


def _read_json(path):
    """The JSON document in the file at `path`; a ConfigurationError naming
    the path when it does not parse, nests deeper than the decoder
    recurses, or gives one object a key twice."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigurationError(f"{path}: duplicate key '{key}'")
            doc[key] = value
        return doc

    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as err:  # a decode error, or nesting too deep
            raise ConfigurationError(f"{path}: invalid JSON ({err})") from err


def load_experiment_config(path, respect_env: bool = True) -> ExperimentConfig:
    """Load and validate a config file; DPD_SEED (if set) overrides its seed."""
    doc = _read_json(path)
    seed_override = None
    if respect_env and os.environ.get(SEED_ENV_VAR):
        try:
            seed_override = int(os.environ[SEED_ENV_VAR])
        except ValueError as err:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            ) from err
    return parse_experiment_config(doc, seed_override)


# --- coefficient file format -------------------------------------------------

# The key table of each object in the coefficient file. Every key is read
# before `_layout` runs the structure rules, so a fault in a basis entry's
# type is reported before one in the orders. A basis table is rows of real
# numbers; the rules give one row per branch, over its member orders.
_rows = _list_of(_list_of(_single(_number), "numbers"), "rows")
_BASIS = {
    "mode": (_basis_mode, _REQUIRED),
    "u_main": (_rows, _REQUIRED),
    "u_conj": (_rows, _REQUIRED),
}
_LAYOUT = {
    "main_orders": (_orders, _REQUIRED),
    "conj_orders": (_orders, _REQUIRED),
    "taps_main": (_tap_counts, _REQUIRED),
    "taps_conj": (_tap_counts, _REQUIRED),
    "basis": (_object(_BASIS), _REQUIRED),
}


def _layout(value, name: str) -> AphConfig:
    """The coefficient file's layout. The structure rules of `basis` run
    under the layout's dotted keys, so a fault that only the keys together
    show is named by the key at fault."""
    layout = _fields(_json_object(value, name), f"{name}.", _LAYOUT)
    main, conj, basis = layout["main_orders"], layout["conj_orders"], layout["basis"]
    keys = [f"{name}.{key}" for key in ("main_orders", "conj_orders", "taps_main", "taps_conj")]
    _check_structure(main, conj, layout["taps_main"], layout["taps_conj"], keys)
    _check_basis_rows(main, basis["u_main"], f"{name}.basis.u_main")
    _check_basis_rows(conj, basis["u_conj"], f"{name}.basis.u_conj")
    sets = BranchSets(main, conj)
    basis = PolyBasis(basis["mode"], sets, basis["u_main"], basis["u_conj"])
    return AphConfig(sets, layout["taps_main"], layout["taps_conj"], basis)


_COEFFICIENTS = {
    "h": (_single_pairs, _REQUIRED),
    "c": (_single_pair, _REQUIRED),
    "layout": (_layout, _REQUIRED),
}


def coefficients_to_json_dict(coeffs: CoefficientVector, cfg: AphConfig) -> dict:
    """Self-contained JSON form: taps, constant, and the layout + basis
    needed to apply them anywhere."""
    cfg.check_length(coeffs)
    filters, basis = coeffs.h[:-1], cfg.basis
    return {
        "h": [[float(v.real), float(v.imag)] for v in filters],
        "c": [float(coeffs.h[-1].real), float(coeffs.h[-1].imag)],
        "layout": {
            "main_orders": list(cfg.sets.main_orders),
            "conj_orders": list(cfg.sets.conj_orders),
            "taps_main": list(cfg.taps_main),
            "taps_conj": list(cfg.taps_conj),
            "basis": {
                "mode": basis.mode,
                "u_main": [row.tolist() for row in basis.u_main],
                "u_conj": [row.tolist() for row in basis.u_conj],
            },
        },
    }


def coefficients_from_json_dict(doc: dict) -> tuple[CoefficientVector, AphConfig]:
    """Rebuild coefficients plus the AphConfig they were trained under, read
    by the key tables above as strictly as the experiment config. Every tap,
    the constant and every basis entry must fit in single precision; a
    malformed value raises ConfigurationError naming its key."""
    if not isinstance(doc, dict):
        raise ConfigurationError("a coefficient file must hold a JSON object")
    top = _fields(doc, "", _COEFFICIENTS)
    cfg, h = top["layout"], top["h"]
    if len(h) != cfg.n_coefficients - 1:
        raise ConfigurationError(
            f"'h' lists {len(h)} taps, the layout needs {cfg.n_coefficients - 1}"
        )
    return CoefficientVector(np.array([*h, top["c"]], dtype=np.complex64)), cfg


def load_coefficients(path) -> tuple[CoefficientVector, AphConfig]:
    """Load and validate a coefficient file; an error names the path."""
    doc = _read_json(path)
    try:
        return coefficients_from_json_dict(doc)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err
