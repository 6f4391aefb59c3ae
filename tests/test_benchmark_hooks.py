"""The names the benchmark wraps stay bound and callable.

perfbench times each layer by replacing a module attribute with a timed
wrapper, and falls back to the enclosing span's self time when the name is
gone. A renamed function would then go unnoticed until the minutes-long
`perfbench/test_smoke.py`; this check catches it in a fraction of a second.
The names are listed here rather than imported from perfbench, so a stale
hook there cannot make this pass.
"""

from __future__ import annotations

import importlib

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


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in HOOKED.items() for name in names]
)
def test_hooked_name_is_bound_and_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
