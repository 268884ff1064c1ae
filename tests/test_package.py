"""The package root loads none of its modules or their dependencies; each module's __all__ is current."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_gradient_decay_loads_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import gradient_decay, sys; assert 'numpy' not in sys.modules, 'numpy'; "
            "print(sorted(m for m in sys.modules if m.startswith('gradient_decay')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gradient_decay']\n"


@pytest.mark.parametrize("name", ["calibration", "cli", "datasets", "loss", "mlp", "schedule", "verify"])
def test_every_public_name_exists(name):
    # a stale __all__ entry breaks `from gradient_decay.<module> import *`
    module = importlib.import_module(f"gradient_decay.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
