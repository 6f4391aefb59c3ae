"""A failure sweep of the output boundary: every command that writes
files lands them by `iqfile.land`, and each step of that landing is made
to fail in turn.

For `generate`, `train`, `simulate`, `predistort`, `evaluate --out` (the
one-file PSD CSV and the two-file suppression JSON) and `bench`, run in
process at 4096 samples over old output files of known bytes:

* the write of each part fails after writing some bytes, or the rename of
  each part over its path fails: the command exits 1 with exactly one
  `error:` line on stderr, and the output directory holds the old files,
  byte for byte, and nothing else (no `.part` and no `.old` file);
* the hard link that keeps each old file fails: `land` reads that as a
  file system without hard links, so the command exits 0 with nothing on
  stderr, every output holds new bytes, and nothing else is left.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import pytest

from aphdpd import cli, iqfile

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_carrier.json"
N_SAMPLES = 4096

# Each command's argv (after the command name) and its output files in
# landing order; {config}, {stimulus} and {coefficients} are the inputs.
COMMANDS = {
    "generate": (["generate", "{config}", "out.iq"], ["out.iq", "out.iq.json"]),
    "train": (["train", "{config}", "coeffs.json", "report.json"], ["coeffs.json", "report.json"]),
    "simulate": (["simulate", "{config}", "{stimulus}", "out.iq"], ["out.iq", "out.iq.json"]),
    "predistort": (
        ["predistort", "{config}", "{coefficients}", "{stimulus}", "out.iq"],
        ["out.iq", "out.iq.json"],
    ),
    "evaluate-csv": (["evaluate", "{config}", "{stimulus}", "--out", "psd.csv"], ["psd.csv"]),
    "evaluate-json": (
        ["evaluate", "{config}", "{stimulus}", "{stimulus}", "--out", "bands.json"],
        ["bands.json"],
    ),
    "bench": (
        ["bench", "{config}", "bench.csv", "--n", str(N_SAMPLES), "--workers", "1"]
        + ["--chunk-len", "1024", "--repeats", "1"],
        ["bench.csv"],
    ),
}
CASES = [
    (command, step, index)
    for command, (_, outputs) in COMMANDS.items()
    for step in ("write", "link", "replace")
    for index in range(len(outputs))
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A short config, a stimulus and trained coefficients."""
    work = tmp_path_factory.mktemp("inputs")
    doc = json.loads(SHIPPED_CONFIG.read_text())
    doc["n_samples"] = N_SAMPLES
    doc["training"] = {"n_training_samples": 2000, "iterations": 1}
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    stimulus, coefficients = work / "stimulus.iq", work / "coeffs.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DPD_SEED", raising=False)
        assert cli.main(["generate", str(config), str(stimulus)]) == 0
        assert cli.main(["train", str(config), str(coefficients), str(work / "report.json")]) == 0
    return {"config": config, "stimulus": stimulus, "coefficients": coefficients}


def _fail_write(monkeypatch, index) -> None:
    """The part write of output `index` writes a few bytes, then fails."""
    land = iqfile.land

    def failing_land(outputs):
        outputs = list(outputs)

        def partial_write(part):
            Path(part).write_bytes(b"partial")
            raise OSError("write refused")

        outputs[index] = (outputs[index][0], partial_write)
        land(outputs)

    monkeypatch.setattr(iqfile, "land", failing_land)
    monkeypatch.setattr(cli, "land", failing_land)


def _fail_call(monkeypatch, name, index) -> None:
    """Call `index` (from 0) of os.<name> fails; every other call runs."""
    real, calls = getattr(os, name), []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == index + 1:
            raise OSError(f"{name} refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, failing)


@pytest.mark.parametrize("command, step, index", CASES, ids=[f"{c}-{s}-{i}" for c, s, i in CASES])
def test_each_landing_step_fails_cleanly(
    command, step, index, inputs, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("DPD_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    argv_template, outputs = COMMANDS[command]
    argv = [arg.format(**inputs) for arg in argv_template]
    for name in outputs:
        (tmp_path / name).write_bytes(f"old {name}\n".encode())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    if step == "write":
        _fail_write(monkeypatch, index)
    else:
        _fail_call(monkeypatch, step, index)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    err = capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    if step == "link":
        assert (rc, err) == (0, "")
        assert sorted(after) == sorted(before)
        assert all(after[name] != before[name] for name in outputs)
    else:
        lines = err.splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0] == f"error: {step} refused", lines
        assert after == before
