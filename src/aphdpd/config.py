"""Experiment configuration: one JSON document drives the whole pipeline.

Loading is strict in both directions — a missing required key and an
unrecognized key are both errors that name the offending key — because a
silently ignored typo ("tapsmain") would change experiment results without
any visible failure.

The document aggregates everything a run needs: sampling, carriers, the
predistorter structure, training knobs, the simulated chain impairments,
and the analysis bands. Complex values are written as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import welch_step
from .basis import ORTHOGONAL, PLAIN, AphConfig, BranchSets, PolyBasis, fit_orthogonal_basis
from .exceptions import ConfigurationError
from .impairments import IqModulatorModel, PaModel, TxChain
from .training import TrainingConfig
from .waveforms import CarrierSpec, IqBuffer, compose_multicarrier, normalize_power

SEED_ENV_VAR = "DPD_SEED"

# Seed offset for the dedicated basis-fitting buffer, so it never collides
# with the validation stimulus (seed) or training draws (seed+1..seed+iters).
_BASIS_FIT_SEED_OFFSET = 500


_REQUIRED = object()


def _require(doc: dict, key: str, where: str, default=_REQUIRED):
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise ConfigurationError(f"missing required key '{where}{key}'")
    return default


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown key '{where}{unknown[0]}'")


# JSON booleans are Python ints; neither a count nor a quantity may be one.
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Python's json module reads NaN and Infinity; no quantity here may be either.
def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _number(doc: dict, key: str, where: str, default=_REQUIRED) -> float:
    value = _require(doc, key, where, default)
    if not _is_number(value):
        raise ConfigurationError(f"'{where}{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(doc: dict, key: str, where: str, default=_REQUIRED) -> int:
    value = _require(doc, key, where, default)
    if not _is_int(value):
        raise ConfigurationError(f"'{where}{key}' must be an integer, got {value!r}")
    return value


def _integer_list(doc: dict, key: str, where: str) -> tuple[int, ...]:
    value = _require(doc, key, where)
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise ConfigurationError(f"'{where}{key}' must be a list of integers, got {value!r}")
    return tuple(value)


def _section(doc: dict, key: str, where: str = "") -> dict:
    value = _require(doc, key, where)
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{where}{key}' must be a JSON object, got {value!r}")
    return value


def _complex_pair(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ConfigurationError(f"'{where}' must be a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _single_pair(value, where: str) -> complex:
    """A [re, im] pair whose parts stay finite in single precision, the
    precision the predistorter computes in."""
    z = _complex_pair(value, where)
    with np.errstate(over="ignore"):
        fits = np.isfinite(np.complex64(z))
    if not fits:
        raise ConfigurationError(f"'{where}' does not fit in single precision, got {value!r}")
    return z


@dataclass(frozen=True)
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
            return normalize_power(compose_multicarrier(list(carriers), n, fs, seed), drive)

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


def _parse_taps(value, n_branches: int, where: str) -> tuple[int, ...]:
    if _is_int(value):
        return (value,) * n_branches
    if isinstance(value, list) and all(map(_is_int, value)):
        if len(value) != n_branches:
            raise ConfigurationError(
                f"'{where}' lists {len(value)} tap counts for {n_branches} branches"
            )
        return tuple(value)
    raise ConfigurationError(f"'{where}' must be an int or list of ints, got {value!r}")


def parse_experiment_config(doc: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    top_allowed = (
        "sample_rate_hz",
        "n_samples",
        "seed",
        "drive_rms",
        "carriers",
        "dpd",
        "training",
        "pa",
        "iq_modulator",
        "analysis",
    )
    _reject_unknown(doc, top_allowed, "")

    fs = _number(doc, "sample_rate_hz", "")
    n_samples = _integer(doc, "n_samples", "")
    seed = _integer(doc, "seed", "")
    drive_rms = _number(doc, "drive_rms", "")
    if n_samples < 1:
        raise ConfigurationError(f"'n_samples' must be >= 1, got {n_samples}")
    if drive_rms <= 0:
        raise ConfigurationError(f"'drive_rms' must be positive, got {drive_rms}")
    if seed < 0:
        raise ConfigurationError(f"'seed' must be >= 0, got {seed}")
    if seed_override is not None:
        seed = int(seed_override)
        if seed < 0:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be >= 0, got {seed}")

    raw_carriers = _require(doc, "carriers", "")
    if not isinstance(raw_carriers, list) or not raw_carriers:
        raise ConfigurationError("'carriers' must be a nonempty list")
    carriers = []
    for i, entry in enumerate(raw_carriers):
        where = f"carriers[{i}]."
        if not isinstance(entry, dict):
            raise ConfigurationError(f"'carriers[{i}]' must be a JSON object, got {entry!r}")
        _reject_unknown(entry, ("center_offset_hz", "bandwidth_hz", "power_db"), where)
        spec = CarrierSpec(
            _number(entry, "center_offset_hz", where),
            _number(entry, "bandwidth_hz", where),
            _number(entry, "power_db", where, 0.0),
        )
        spec.check_fits(fs)
        carriers.append(spec)

    dpd = _section(doc, "dpd")
    _reject_unknown(
        dpd, ("max_order_main", "max_order_conj", "taps_main", "taps_conj", "basis_mode"), "dpd."
    )
    sets = BranchSets.odd_orders_up_to(
        _integer(dpd, "max_order_main", "dpd."),
        _integer(dpd, "max_order_conj", "dpd."),
    )
    taps_main = _parse_taps(
        _require(dpd, "taps_main", "dpd."), len(sets.main_orders), "dpd.taps_main"
    )
    taps_conj = _parse_taps(
        _require(dpd, "taps_conj", "dpd."), len(sets.conj_orders), "dpd.taps_conj"
    )
    basis_mode = _require(dpd, "basis_mode", "dpd.")
    if basis_mode not in (PLAIN, ORTHOGONAL):
        raise ConfigurationError(f"'dpd.basis_mode' must be plain or orthogonal, got {basis_mode!r}")

    tr = _section(doc, "training")
    _reject_unknown(tr, ("n_training_samples", "iterations"), "training.")
    training = TrainingConfig(
        n_training_samples=_integer(tr, "n_training_samples", "training."),
        iterations=_integer(tr, "iterations", "training.", 3),
        seed=seed,
    )

    pa_doc = _section(doc, "pa")
    _reject_unknown(pa_doc, ("alpha1", "alpha3", "alpha5"), "pa.")
    pa = PaModel(
        _complex_pair(_require(pa_doc, "alpha1", "pa."), "pa.alpha1"),
        _complex_pair(pa_doc.get("alpha3", [0.0, 0.0]), "pa.alpha3"),
        _complex_pair(pa_doc.get("alpha5", [0.0, 0.0]), "pa.alpha5"),
    )

    mod_doc = _section(doc, "iq_modulator")
    _reject_unknown(
        mod_doc, ("gain_imbalance_db", "phase_imbalance_deg", "lo_leakage"), "iq_modulator."
    )
    modulator = IqModulatorModel(
        _number(mod_doc, "gain_imbalance_db", "iq_modulator.", 0.0),
        _number(mod_doc, "phase_imbalance_deg", "iq_modulator.", 0.0),
        _complex_pair(mod_doc.get("lo_leakage", [0.0, 0.0]), "iq_modulator.lo_leakage"),
    )

    an = _section(doc, "analysis")
    _reject_unknown(an, ("nfft", "overlap", "bands"), "analysis.")
    nfft = _integer(an, "nfft", "analysis.", 4096)
    overlap = _number(an, "overlap", "analysis.", 0.5)
    welch_step(nfft, overlap)
    raw_bands = _require(an, "bands", "analysis.")
    if not isinstance(raw_bands, list):
        raise ConfigurationError("'analysis.bands' must be a list of [f_lo, f_hi] pairs")
    bands = []
    for i, band in enumerate(raw_bands):
        if not isinstance(band, list) or len(band) != 2 or not all(map(_is_number, band)):
            raise ConfigurationError(f"'analysis.bands[{i}]' must be a [f_lo, f_hi] pair")
        lo, hi = float(band[0]), float(band[1])
        if not lo < hi:
            raise ConfigurationError(f"'analysis.bands[{i}]' must have f_lo < f_hi")
        if lo < -fs / 2 or hi > fs / 2:
            raise ConfigurationError(
                f"'analysis.bands[{i}]' [{lo}, {hi}] extends beyond Nyquist (+-{fs / 2})"
            )
        bands.append((lo, hi))

    return ExperimentConfig(
        sample_rate_hz=fs,
        n_samples=n_samples,
        seed=seed,
        drive_rms=drive_rms,
        carriers=tuple(carriers),
        branch_sets=sets,
        taps_main=taps_main,
        taps_conj=taps_conj,
        basis_mode=basis_mode,
        training=training,
        pa=pa,
        modulator=modulator,
        nfft=nfft,
        overlap=overlap,
        bands=tuple(bands),
    )


def _read_json(path):
    """The JSON document in the file at `path`; a ConfigurationError naming
    the path when it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
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
