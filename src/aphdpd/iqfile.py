"""Binary I/Q file I/O.

Repo-wide format: little-endian 32-bit floats, interleaved I,Q,I,Q,...
with a required sidecar JSON (`<path>.json`) carrying
{"sample_rate_hz": <number>, "n_samples": <number>}. The sidecar is read
by a key table as strictly as the config: the rate is required and
positive, the count is optional (the file's length), and any other key
is an error that names it.

The sample layout is byte for byte little-endian complex64. A file is
read by mapping it read-only: the samples are a view of the file's pages,
with no copy, and pages are read as they are first touched. Output is
written straight from the sample array, with no interleaving copy.

A mapping stays valid only while its file keeps its length. If another
process truncates the file while a buffer still maps it, touching the
lost pages raises SIGBUS, which kills the process. Writing a file
truncates it, so `write_iq` copies a buffer that maps the very file it
writes before it starts, and the `dpd` commands compute their whole
output before they write it: in and out may be the same path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .config import _OWN, _REQUIRED, _fields, _integer, _json_object, _positive, _read_json
from .exceptions import ConfigurationError
from .waveforms import IqBuffer


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def write_iq(buf: IqBuffer, path: str | Path) -> None:
    """Write a buffer as interleaved little-endian float32 I/Q pairs, plus
    its sidecar.

    The file is truncated first, so samples that `read_iq` mapped from
    this same file are copied before the write starts.
    """
    path = Path(path)
    samples = np.ascontiguousarray(buf.samples, dtype="<c8")
    if _maps(samples, path):
        samples = samples.copy()
    samples.tofile(path)
    meta = {"sample_rate_hz": buf.sample_rate_hz, "n_samples": len(buf)}
    sidecar_path(path).write_text(json.dumps(meta) + "\n")


def _maps(samples: np.ndarray, path: Path) -> bool:
    """Whether `samples` are a view of a `read_iq` map of the file at `path`."""
    base = samples
    while base is not None:
        if isinstance(base, np.memmap) and path.exists():
            return os.path.samefile(base.filename, path)
        base = base.base
    return False


# The sidecar's key table: any other key is refused, naming it.
_SIDECAR = {
    "sample_rate_hz": (_positive, _REQUIRED),
    "n_samples": (_integer, _OWN),  # defaults to the count the data file holds
}


def read_iq(path: str | Path) -> IqBuffer:
    """Read an interleaved float32 I/Q file and the sample rate from its
    sidecar JSON.

    The returned samples are a read-only view of the file mapped into
    memory (see the module docstring for the SIGBUS risk if the file is
    truncated while mapped); a zero-sample file gives an empty writable
    array, since an empty file cannot be mapped. The buffer's finiteness
    check reads every page once.
    """
    path = Path(path)
    size = path.stat().st_size
    if size % 8:
        raise ConfigurationError(f"{path}: size {size} is not a whole number of complex64 samples")
    n_held = size // 8

    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise ConfigurationError(f"{path}: no sidecar JSON")
    meta = _read_json(meta_file)
    try:
        meta = _fields(_json_object(meta, "sidecar"), "", _SIDECAR)
    except ConfigurationError as err:
        raise ConfigurationError(f"{meta_file}: {err}") from err
    n_declared = meta.get("n_samples", n_held)
    if n_declared != n_held:
        raise ConfigurationError(
            f"{path}: sidecar declares {n_declared} samples, file holds {n_held}"
        )

    samples = np.memmap(path, dtype="<c8", mode="r") if n_held else np.empty(0, dtype="<c8")
    try:
        return IqBuffer(samples, meta["sample_rate_hz"])
    except ConfigurationError as err:  # a non-finite sample
        raise ConfigurationError(f"{path}: {err}") from err
