import argparse
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from gradient_decay.cli import build_parser
from gradient_decay.datasets import mnist_paths

# Real MNIST IDX files are looked up here for the desk-scale experiment
# tests; everything else runs on synthetic data.
MNIST_ENV = "GRADIENT_DECAY_MNIST_DIR"
DEFAULT_MNIST_DIR = Path(__file__).resolve().parents[1] / "data" / "mnist"


def mnist_dir() -> Path | None:
    d = Path(os.environ.get(MNIST_ENV, DEFAULT_MNIST_DIR))
    try:
        mnist_paths(d)
    except FileNotFoundError:
        return None
    return d


requires_mnist = pytest.mark.skipif(
    mnist_dir() is None,
    reason=f"MNIST IDX files not found (set {MNIST_ENV} or place them under data/mnist); "
    "they cannot be fetched in an offline environment",
)


def bench_module(name: str):
    """bench/<name>.py, loaded without writing bytecode under bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a @dataclass looks its module up there
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each gradient-decay subcommand, by name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)
