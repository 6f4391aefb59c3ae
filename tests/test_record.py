"""The value classes: construction, read-only fields, equality, hash and
repr, the same for every class the package builds with `record`."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import aphdpd
from aphdpd import (
    AphConfig,
    BenchResult,
    BranchSets,
    CarrierSpec,
    CoefficientVector,
    IqBuffer,
    IqModulatorModel,
    PaModel,
    PolyBasis,
    Spectrum,
    TrainingConfig,
    TxChain,
    load_experiment_config,
)
from aphdpd._record import FrozenInstanceError, record
from aphdpd.basis import NormalEquations
from aphdpd.config import ExperimentConfig
from aphdpd.training import IterationRecord, TrainingReport

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_carrier.json"


def _fields_of(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__annotations__)


def _iteration_args():
    coeffs = CoefficientVector(np.array([1.0, 0.5j, 0.25], dtype=np.complex64))
    return 1, coeffs, -30.0, None, 0.1, 2.0, 0.0, 1 + 0j, True


# Each value class with valid field values in field order, whether those
# values hash, and the defaults its class body gives.
VALUE_CLASSES = {
    Spectrum: (lambda: (np.array([0.0, 1.0]), np.array([1.0, 2.0]), 2.0), False, {}),
    BranchSets: (lambda: ((1, 3, 5), (1, 3)), True, {}),
    PolyBasis: (lambda: _fields_of(PolyBasis.plain(BranchSets((1, 3), (1,)))), False, {}),
    AphConfig: (lambda: _fields_of(AphConfig.default()), False, {}),
    NormalEquations: (lambda: (np.eye(2, dtype=complex), np.ones(2, complex), 1.0), False, {}),
    BenchResult: (lambda: (2, 1000, 10_000, (0.5, 0.2)), True, {}),
    ExperimentConfig: (
        lambda: _fields_of(load_experiment_config(CONFIG, respect_env=False)), True, {}
    ),
    PaModel: (lambda: (0.95 - 0.02j, 0.5 + 0.1j, -1.0 + 0j), True, {"alpha3": 0j, "alpha5": 0j}),
    IqModulatorModel: (
        lambda: (1.0, 5.0, 0.01 + 0.01j),
        True,
        {"gain_imbalance_db": 0.0, "phase_imbalance_deg": 0.0, "lo_leakage": 0j},
    ),
    TxChain: (lambda: (IqModulatorModel(1.0), PaModel(0.9)), True, {}),
    CoefficientVector: (lambda: (np.array([1.0, 0.5j], dtype=np.complex64),), False, {}),
    TrainingConfig: (lambda: (100, 2, 7), True, {"iterations": 3, "seed": 0}),
    IterationRecord: (_iteration_args, False, {}),
    TrainingReport: (lambda: ((IterationRecord(*_iteration_args()),), -20.0), False, {}),
    IqBuffer: (lambda: (np.array([0.5, -0.5j], dtype=np.complex64), 1e6), False, {}),
    CarrierSpec: (lambda: (1e6, 2e6, -3.0), True, {"power_db": 0.0}),
}


def test_the_table_holds_every_value_class():
    @record
    class Probe:
        x: int

    found = set()
    for info in pkgutil.iter_modules(aphdpd.__path__):
        module = importlib.import_module(f"aphdpd.{info.name}")
        for obj in vars(module).values():
            init = getattr(obj, "__init__", None)
            if isinstance(obj, type) and getattr(init, "__code__", None) is Probe.__init__.__code__:
                found.add(obj)
    assert found == set(VALUE_CLASSES) and len(found) == 16


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class(cls):
    make_args, hashable, defaults = VALUE_CLASSES[cls]
    args = make_args()
    names = tuple(cls.__annotations__)
    assert len(args) == len(names)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))

    # Defaults fill what the caller leaves out.
    n_required = len(names) - len(defaults)
    assert names[n_required:] == tuple(defaults)
    shortest = cls(*args[:n_required])
    for name, value in defaults.items():
        assert getattr(shortest, name) == value

    # A missing, unknown, repeated or extra argument is a TypeError.
    if n_required:
        with pytest.raises(TypeError, match="missing"):
            cls(*args[: n_required - 1])
    with pytest.raises(TypeError, match="unknown"):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError, match="repeated"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="takes"):
        cls(*args, args[0])

    # Every attribute is read-only.
    for name in (*names, "no_such_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(by_position, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(by_position, name)
    assert issubclass(FrozenInstanceError, AttributeError)

    # Equality and hash follow the field tuple, within one class only.
    assert by_position == by_position
    assert by_position != object()
    if hashable:
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert hash(by_position) == hash(_fields_of(by_position))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(by_position)

    expected = ", ".join(f"{name}={getattr(by_position, name)!r}" for name in names)
    assert repr(by_position) == f"{cls.__qualname__}({expected})" == repr(by_keyword)


def test_repr_and_equality_by_example():
    expected = "TrainingConfig(n_training_samples=100, iterations=3, seed=0)"
    assert repr(TrainingConfig(100)) == expected
    assert PaModel(1.0) == PaModel(1 + 0j, 0.0, 0.0)
    assert PaModel(1.0) != PaModel(1.0, 0.1)
    assert BranchSets((1, 3), (1,)) != BranchSets((1,), (1,))
