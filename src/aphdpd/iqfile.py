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

An output lands by rename (`land`): `write_iq` lands the samples and the
sidecar together, samples first, so a failed write or rename of either
leaves the old file and its sidecar as they were. A live map of the old
file keeps its pages after the rename, so a command may write over its
own input without copying it first. A mapping is lost only if another
process truncates the file it maps: touching the lost pages then raises
SIGBUS, which kills the process.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import numpy as np

from .config import _OWN, _REQUIRED, _fields, _integer, _json_object, _positive, _read_json
from .exceptions import ConfigurationError
from .waveforms import IqBuffer


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def land(outputs) -> None:
    """Write a command's output files so that they land together or not
    at all. For each (path, write) pair in turn, `write(part)` writes the
    complete file to `.<name>.<pid>.<i>.part` beside its path. Once every
    part is complete, each path in the given order has its old file kept
    by a hard link, `.<name>.<pid>.<i>.old` (no copy), and its part
    `os.replace`d over it.

    If a step fails, each path already replaced gets its old file back
    from its link, or is removed if it had none, and the error propagates.
    Parts and links are removed either way; only a failed undo keeps the
    links, so no old bytes are lost. An old file that cannot be linked (on
    a file system without hard links) cannot be put back: a later failed
    rename leaves that output new beside the old rest.
    """
    outputs = [(Path(path), write) for path, write in outputs]
    pid = os.getpid()
    parts = [p.parent / f".{p.name}.{pid}.{i}.part" for i, (p, _) in enumerate(outputs)]
    links = [p.parent / f".{p.name}.{pid}.{i}.old" for i, (p, _) in enumerate(outputs)]
    undo = []  # for each path replaced so far, what puts its old state back
    undoing = False
    try:
        for part, (_, write) in zip(parts, outputs):
            write(part)
        for part, link, (path, _) in zip(parts, links, outputs):
            try:
                os.link(path, link, follow_symlinks=False)
                put_back = functools.partial(os.replace, link, path)
            except FileNotFoundError:
                put_back = path.unlink  # no old file
            except OSError:
                put_back = None  # no link: this output cannot be undone
            os.replace(part, path)
            if put_back is not None:
                undo.append(put_back)
    except BaseException:
        undoing = True
        for put_back in reversed(undo):
            put_back()
        undoing = False
        raise
    finally:
        for part in parts:
            part.unlink(missing_ok=True)  # gone after a rename; left by a failure
        if not undoing:  # a failed undo keeps the old files' links
            for link in links:
                link.unlink(missing_ok=True)


def write_iq(buf: IqBuffer, path: str | Path) -> None:
    """Write a buffer as interleaved little-endian float32 I/Q pairs, plus
    its sidecar, landed together (see `land`); samples that `read_iq`
    mapped from this same path keep their bytes.
    """
    meta = {"sample_rate_hz": buf.sample_rate_hz, "n_samples": len(buf)}
    land(
        [
            (path, np.ascontiguousarray(buf.samples, dtype="<c8").tofile),
            (sidecar_path(path), lambda part: part.write_text(json.dumps(meta) + "\n")),
        ]
    )


# The sidecar's key table: any other key is refused, naming it.
_SIDECAR = {
    "sample_rate_hz": (_positive, _REQUIRED),
    "n_samples": (_integer, _OWN),  # defaults to the count the data file holds
}


def read_iq(path: str | Path) -> IqBuffer:
    """Read an interleaved float32 I/Q file and the sample rate from its
    sidecar JSON.

    The returned samples are a read-only view of the file mapped into
    memory. They keep their bytes when `write_iq` replaces the file (see
    the module docstring for the SIGBUS risk if another process truncates
    it while mapped); a zero-sample file gives an empty writable
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
