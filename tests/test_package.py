"""The package root: importing it loads none of the modules or their dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_gradient_decay_loads_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import gradient_decay, sys; assert 'numpy' not in sys.modules, 'numpy'; "
            "print(sorted(m for m in sys.modules if m.startswith('gradient_decay')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gradient_decay']\n"
