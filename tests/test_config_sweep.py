"""A mutation sweep of the input boundary: the experiment config, the
coefficient file and the I/Q sidecar.

Every leaf of a valid document (a number, string or null, inside objects
and [re, im] or [f_lo, f_hi] lists) is replaced in turn by each value of a
fixed table, deleted, or given an extra sibling. The commands that read
that document then run in process at 4096 samples: `generate`, `simulate`
and `evaluate` on a mutated config; `predistort` and `simulate --with-dpd`
on a mutated coefficient file (its first two tap pairs, its constant and
every layout leaf); `simulate` and `evaluate` on a mutated sidecar. Each
must exit 0 with nothing on stderr, or exit 1 with exactly one stderr line
that starts with `error:`: never a traceback and never a warning.

The table's large integers are 10**30, beyond int64, and 2**62, a sample
count whose complex128 buffer numpy cannot index. The parser refuses the
first in every integer key but `seed` and the second as a sample count;
an order of 2**62 passes it and fails its first allocation as out of
memory. So the sweep still allocates little memory.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import shutil
import warnings
from pathlib import Path

import pytest

from aphdpd import (
    AphConfig,
    PolyBasis,
    cli,
    coefficients_to_json_dict,
    identity_coefficients,
    parse_experiment_config,
)

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_carrier.json"
N_SAMPLES = 4096

DELETE, EXTRA = object(), object()
MUTATIONS = {
    "bool": True,
    "text": "1",
    "null": None,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "+1e308": 1e308,
    "-1e308": -1e308,
    "zero": 0,
    "minus-one": -1,
    "tiny": 1e-300,
    "1e30-int": 10**30,
    "2^62": 2**62,
    "deleted": DELETE,
    "extra": EXTRA,
}


def _base_doc() -> dict:
    doc = json.loads(SHIPPED_CONFIG.read_text())
    doc["n_samples"] = N_SAMPLES
    return doc


def _leaves(node, path=()):
    """The paths (tuples of keys and indices) of every non-container value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _coefficient_leaves() -> list:
    """The swept leaves of a coefficient file for the base config: the
    first two tap pairs, the constant and every layout leaf. The plain
    basis of the same branch sets has the trained file's shape."""
    cfg = parse_experiment_config(_base_doc())
    plain = PolyBasis.plain(cfg.branch_sets)
    aph = AphConfig(cfg.branch_sets, cfg.taps_main, cfg.taps_conj, plain)
    doc = coefficients_to_json_dict(identity_coefficients(aph), aph)
    return [p for p in _leaves(doc) if p[0] in ("c", "layout") or p[:2] in (("h", 0), ("h", 1))]


LEAVES = _leaves(_base_doc())
COEFFICIENT_LEAVES = _coefficient_leaves()
SIDECAR_LEAVES = [("sample_rate_hz",), ("n_samples",)]


def _ids(paths) -> list[str]:
    return [".".join(map(str, p)) for p in paths]


def _mutated(path, value, base=None) -> dict:
    """`base` (the base config by default) with the leaf at `path` mutated."""
    doc = _base_doc() if base is None else copy.deepcopy(base)
    *parents, key = path
    parent = doc
    for name in parents:
        parent = parent[name]
    if value is DELETE:
        del parent[key]
    elif value is EXTRA and isinstance(parent, dict):
        parent["unexpected_key"] = parent[key]
    elif value is EXTRA:
        parent.append(parent[key])
    else:
        parent[key] = value
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a stimulus and trained coefficients, all unmutated."""
    work = tmp_path_factory.mktemp("sweep")
    config = work / "base.json"
    config.write_text(json.dumps(_base_doc()))
    stimulus, coeffs = str(work / "stimulus.iq"), work / "coeffs.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DPD_SEED", raising=False)
        assert cli.main(["generate", str(config), stimulus]) == 0
        assert cli.main(["train", str(config), str(coeffs), str(work / "report.json")]) == 0
    doc = json.loads(coeffs.read_text())
    assert set(COEFFICIENT_LEAVES) <= set(_leaves(doc))
    return {"config": str(config), "stimulus": stimulus, "coefficients": doc}


def _sweep(write, commands, capsys) -> None:
    """For each mutation in the table: `write(value)` writes the mutated
    document, then every command runs on it and must exit cleanly."""
    for label, value in MUTATIONS.items():
        write(value)
        for command, argv in commands.items():
            where = f"{command} with {label}"
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rc = cli.main(argv)
                except Exception as err:  # a traceback, or a warning raised as one
                    pytest.fail(f"{where}: {type(err).__name__}: {err}")
            err = capsys.readouterr().err
            if rc == 0:
                assert err == "", where
            else:
                lines = err.splitlines()
                assert rc == 1, where
                assert len(lines) == 1 and lines[0].startswith("error: "), (where, lines)


@pytest.fixture(autouse=True)
def _one_parser(monkeypatch):
    """No seed from the environment, and one parser for all the commands:
    building it is most of the time of a command whose input is rejected."""
    monkeypatch.delenv("DPD_SEED", raising=False)
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


@pytest.mark.parametrize("path", LEAVES, ids=_ids(LEAVES))
def test_every_mutation_exits_cleanly(path, inputs, tmp_path, capsys):
    config, out = str(tmp_path / "config.json"), str(tmp_path / "out")
    stimulus = inputs["stimulus"]
    commands = {
        "generate": ["generate", config, out],
        "simulate": ["simulate", config, stimulus, out],
        "evaluate": ["evaluate", config, stimulus, stimulus, "--out", out],
    }

    def write(value):
        Path(config).write_text(json.dumps(_mutated(path, value)))

    _sweep(write, commands, capsys)


@pytest.mark.parametrize("path", COEFFICIENT_LEAVES, ids=_ids(COEFFICIENT_LEAVES))
def test_every_coefficient_mutation_exits_cleanly(path, inputs, tmp_path, capsys):
    coeffs, out = str(tmp_path / "coeffs.json"), str(tmp_path / "out")
    config, stimulus = inputs["config"], inputs["stimulus"]
    commands = {
        "predistort": ["predistort", config, coeffs, stimulus, out],
        "simulate --with-dpd": ["simulate", config, stimulus, out, "--with-dpd", coeffs],
    }

    def write(value):
        Path(coeffs).write_text(json.dumps(_mutated(path, value, inputs["coefficients"])))

    _sweep(write, commands, capsys)


@pytest.mark.parametrize("path", SIDECAR_LEAVES, ids=_ids(SIDECAR_LEAVES))
def test_every_sidecar_mutation_exits_cleanly(path, inputs, tmp_path, capsys):
    stimulus, out, config = str(tmp_path / "stimulus.iq"), str(tmp_path / "out"), inputs["config"]
    shutil.copyfile(inputs["stimulus"], stimulus)
    sidecar = json.loads(Path(inputs["stimulus"] + ".json").read_text())
    commands = {
        "simulate": ["simulate", config, stimulus, out],
        "evaluate": ["evaluate", config, stimulus, stimulus, "--out", out],
    }

    def write(value):
        Path(stimulus + ".json").write_text(json.dumps(_mutated(path, value, sidecar)))

    _sweep(write, commands, capsys)
