"""The package root loads none of its modules or their dependencies; each module's __all__ is current.

Every dataclass with a field that may hold an array compares and hashes by
identity; every other dataclass keeps dataclass value equality.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradient_decay.calibration import PredictionSet
from gradient_decay.datasets import Dataset
from gradient_decay.loss import BatchEval, LossParams
from gradient_decay.mlp import DifficultyGroups, MlpModel, TrainConfig, TrainResult, _Rows

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_gradient_decay_loads_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import gradient_decay, sys; assert 'numpy' not in sys.modules, 'numpy'; "
            "print(sorted(m for m in sys.modules if m.startswith('gradient_decay')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gradient_decay']\n"


MODULES = ["calibration", "cli", "datasets", "loss", "mlp", "schedule", "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    # a stale __all__ entry breaks `from gradient_decay.<module> import *`
    module = importlib.import_module(f"gradient_decay.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


_X, _Y = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1])
_P = np.array([[0.25, 0.75], [0.5, 0.5]])
RECORDS = {
    "Dataset": lambda: Dataset(_X, _Y, "train"),
    "PredictionSet": lambda: PredictionSet(_P, _Y),
    "BatchEval": lambda: BatchEval(_Y * 1.0, _P, _P, _Y * 1.0),
    "LossParams": lambda: LossParams(beta=_Y + 1.0),
    "ScalarLossParams": lambda: LossParams(beta=2.0),
    "DifficultyGroups": lambda: DifficultyGroups(_Y + 1, _P),
    "MlpModel": lambda: MlpModel.init((2, 3, 2), 0),
    "TrainResult": lambda: TrainResult([], _Y * 1.0, _P),
    "_Rows": lambda: _Rows.alloc((2, 3, 2), 4),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_of_arrays_compare_and_hash_by_identity(make):
    # field-wise equality compared the arrays: an ambiguous truth value, and no hash
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_scalar_configs_keep_value_equality():
    a, b = TrainConfig(lr=0.1), TrainConfig(lr=0.1)
    assert a is not b and a == b and hash(a) == hash(b)


DATACLASSES = {c.__qualname__: c for name in MODULES
               for c in vars(importlib.import_module(f"gradient_decay.{name}")).values()
               if inspect.isclass(c) and dataclasses.is_dataclass(c) and c.__module__ == f"gradient_decay.{name}"}


@pytest.mark.parametrize("cls", DATACLASSES.values(), ids=DATACLASSES.keys())
def test_only_dataclasses_without_arrays_compare_by_value(cls):
    # annotations are strings (from __future__ import annotations)
    if any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls)):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    else:
        assert cls.__dataclass_params__.eq
