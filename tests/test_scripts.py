"""Each scripts/run_*.py wrapper's ARGS must still parse, into its subcommand.

No test or benchmark workload runs these scripts (the MNIST sweep needs the
IDX files, and each takes minutes), so a renamed or moved flag would go
unnoticed until someone ran them.  The scripts are loaded without running
their ``__main__`` block and without writing bytecode under scripts/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gradient_decay import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

COMMANDS = {
    "run_blobs_calibration.py": "sweep",
    "run_confidence_trace.py": "trace",
    "run_mnist_sweep.py": "sweep",
}


def _load_args(path: Path) -> list[str]:
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under scripts/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module.ARGS


def test_every_script_is_listed():
    assert sorted(p.name for p in SCRIPTS.glob("run_*.py")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_args_parse_into_the_subcommand(name, capsys):
    args = cli.build_parser().parse_args(_load_args(SCRIPTS / name))
    assert args.command == COMMANDS[name]
    assert args.func is getattr(cli, f"cmd_{COMMANDS[name]}")
    assert capsys.readouterr().err == ""
