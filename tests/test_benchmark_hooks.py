"""The names the benchmark wraps stay bound, callable and called.

perfbench times each layer by replacing a module attribute with a timed
wrapper, and falls back to the enclosing span's self time when the name is
gone. A renamed function, or a command that stops calling a hooked name,
would then go unnoticed until the minutes-long `perfbench/test_smoke.py`
(for example, `simulate --with-dpd` must call `predistort_serial`, or the
`predistorter.serial_msps` metric reads None). These checks catch it in a
few seconds. The names are listed here rather than imported from
perfbench, so a stale hook there cannot make them pass.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

HOOKED = {
    "aphdpd.cli": (
        "load_experiment_config",
        "read_iq",
        "write_iq",
        "ila_train",
        "run_tx_chain",
        "predistort_serial",
        "predistort_parallel",
        "welch_psd",
    ),
    "aphdpd.config": ("compose_multicarrier", "fit_orthogonal_basis"),
    "aphdpd.training": ("_lstsq_ridge", "_linearization_nmse_db"),
}

# The hooked names each command of the benchmark's flow must call: the
# layer metrics perfbench reads from that command's spans.
CALLED = {
    "generate": {"load_experiment_config", "compose_multicarrier", "write_iq"},
    "train": {
        "load_experiment_config",
        "ila_train",
        "fit_orthogonal_basis",
        "_lstsq_ridge",
        "_linearization_nmse_db",
    },
    "simulate": {"load_experiment_config", "read_iq", "run_tx_chain", "write_iq"},
    "simulate_dpd": {
        "load_experiment_config",
        "read_iq",
        "predistort_serial",
        "run_tx_chain",
        "write_iq",
    },
    "predistort": {"load_experiment_config", "read_iq", "predistort_parallel", "write_iq"},
    "evaluate": {"load_experiment_config", "read_iq", "welch_psd"},
}

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_carrier.json"


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in HOOKED.items() for name in names]
)
def test_hooked_name_is_bound_and_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The benchmark's flow at its smoke-test size: the shipped config with
    16 Ki samples and 2000 x 2 training, as `dpd` argument lists."""
    work = tmp_path_factory.mktemp("flow")
    doc = json.loads(SHIPPED_CONFIG.read_text())
    doc["n_samples"] = 16384
    doc["training"].update(n_training_samples=2000, iterations=2)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    c, stim, coeffs = str(config), str(work / "stimulus.iq"), str(work / "coeffs.json")
    raw, dpd = str(work / "pa_raw.iq"), str(work / "pa_dpd.iq")
    return {
        "generate": ["generate", c, stim],
        "train": ["train", c, coeffs, str(work / "report.json")],
        "simulate": ["simulate", c, stim, raw],
        "simulate_dpd": ["simulate", c, stim, dpd, "--with-dpd", coeffs],
        "predistort": ["predistort", c, coeffs, stim, str(work / "out.iq"), "--workers", "2"],
        "evaluate": ["evaluate", c, raw, dpd, "--out", str(work / "evaluation.json")],
    }


def test_each_command_calls_its_hooked_names(flow, monkeypatch):
    from aphdpd import cli

    calls: list[str] = []

    def counting(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, names in HOOKED.items():
        mod = importlib.import_module(module)
        for name in names:
            monkeypatch.setattr(mod, name, counting(getattr(mod, name), name))

    monkeypatch.delenv("DPD_SEED", raising=False)
    for command, argv in flow.items():  # in flow order: each reads what the last wrote
        calls.clear()
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0, command
        missing = CALLED[command] - set(calls)
        assert not missing, f"dpd {command} no longer calls {sorted(missing)}"
