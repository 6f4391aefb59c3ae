"""A mutation sweep of the config boundary.

Every leaf of a valid experiment config (a number, string or null, inside
objects and [re, im] or [f_lo, f_hi] lists) is replaced in turn by each
value of a fixed table, deleted, or given an extra sibling. `generate`,
`simulate` and `evaluate` then run in process on the mutated config at
4096 samples. Each must exit 0 with nothing on stderr, or exit 1 with
exactly one stderr line that starts with `error:`: never a traceback and
never a warning.

The table holds no large integer, so a size key (`n_samples`, `nfft`,
tap counts, orders) only ever takes a small one and the sweep allocates
little memory.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from pathlib import Path

import pytest

from aphdpd import cli

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


LEAVES = _leaves(_base_doc())


def _mutated(path, value) -> dict:
    doc = _base_doc()
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
def stimulus(tmp_path_factory):
    """A stimulus file written from the unmutated config."""
    work = tmp_path_factory.mktemp("sweep")
    config = work / "base.json"
    config.write_text(json.dumps(_base_doc()))
    path = str(work / "stimulus.iq")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DPD_SEED", raising=False)
        assert cli.main(["generate", str(config), path]) == 0
    return path


@pytest.mark.parametrize("path", LEAVES, ids=[".".join(map(str, p)) for p in LEAVES])
def test_every_mutation_exits_cleanly(path, stimulus, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DPD_SEED", raising=False)
    # One parser for all the commands: building it is most of the time of
    # a command whose config is rejected.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    config, out = str(tmp_path / "config.json"), str(tmp_path / "out")
    commands = {
        "generate": ["generate", config, out],
        "simulate": ["simulate", config, stimulus, out],
        "evaluate": ["evaluate", config, stimulus, stimulus, "--out", out],
    }
    for label, value in MUTATIONS.items():
        Path(config).write_text(json.dumps(_mutated(path, value)))
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
