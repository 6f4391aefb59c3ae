"""Binary I/Q file I/O.

Repo-wide format: little-endian 32-bit floats, interleaved I,Q,I,Q,...
with an optional sidecar JSON (`<path>.json`) carrying
{"sample_rate_hz": <number>, "n_samples": <number>}.

The sample layout is byte for byte little-endian complex64, so files are
read and written straight from and into the sample array, with no
interleaving copy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import _is_int, _is_number
from .exceptions import ConfigurationError
from .waveforms import IqBuffer


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def write_iq(buf: IqBuffer, path: str | Path) -> None:
    """Write a buffer as interleaved little-endian float32 I/Q pairs, plus
    its sidecar."""
    path = Path(path)
    np.ascontiguousarray(buf.samples, dtype="<c8").tofile(path)
    meta = {"sample_rate_hz": buf.sample_rate_hz, "n_samples": len(buf)}
    sidecar_path(path).write_text(json.dumps(meta) + "\n")


def _read_sidecar(meta_file: Path, n_held: int) -> tuple[float, int]:
    """(sample rate, declared sample count) from a sidecar document; the
    count defaults to the n_held samples the data file holds."""
    try:
        meta = json.loads(meta_file.read_text())
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{meta_file}: invalid JSON ({err})") from err
    if not isinstance(meta, dict):
        raise ConfigurationError(f"{meta_file}: sidecar must be a JSON object")
    if "sample_rate_hz" not in meta:
        raise ConfigurationError(f"{meta_file}: sidecar missing 'sample_rate_hz'")
    rate = meta["sample_rate_hz"]
    if not _is_number(rate):
        raise ConfigurationError(
            f"{meta_file}: 'sample_rate_hz' must be a finite number, got {rate!r}"
        )
    n = meta.get("n_samples", n_held)
    if not _is_int(n):
        raise ConfigurationError(f"{meta_file}: 'n_samples' must be an integer, got {n!r}")
    return float(rate), n


def read_iq(path: str | Path, sample_rate_hz: float | None = None) -> IqBuffer:
    """Read an interleaved float32 I/Q file.

    The sample rate comes from the sidecar JSON when present; otherwise the
    caller must supply it.
    """
    path = Path(path)
    size = path.stat().st_size
    if size % 8:
        raise ConfigurationError(f"{path}: size {size} is not a whole number of complex64 samples")
    n_held = size // 8

    meta_file = sidecar_path(path)
    if meta_file.exists():
        rate, n_declared = _read_sidecar(meta_file, n_held)
        if n_declared != n_held:
            raise ConfigurationError(
                f"{path}: sidecar declares {n_declared} samples, file holds {n_held}"
            )
        if sample_rate_hz is not None and sample_rate_hz != rate:
            raise ConfigurationError(
                f"{path}: sidecar sample rate {rate} contradicts requested {sample_rate_hz}"
            )
    elif sample_rate_hz is not None:
        rate = sample_rate_hz
    else:
        raise ConfigurationError(f"{path}: no sidecar JSON and no sample_rate_hz given")

    return IqBuffer(np.fromfile(path, dtype="<c8"), rate)
