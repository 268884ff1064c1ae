"""The benchmark tracer's TARGETS and src's bindings must stay in step, both ways.

bench/spans.py replaces each ``module:name`` (or ``module:Class.name``) in
its TARGETS with a timing wrapper, looking the name up with
``vars(owner)[name]``.  A refactor that drops one of these bindings breaks
``bench/run.py --trace 1`` with a KeyError; the first test catches it first.

``cli`` and ``verify`` import a few names they never call, marked
``# noqa: F401  (bench/spans.py wraps this binding)``, because bench/spans.py
wraps them there.  Once TARGETS stops naming such a binding, its import is
dead code; the second test says so.

The tracer also counts each ``train`` call's steps and FLOPs from the
arguments it was given; the third test feeds it the call that ``cli`` makes,
so a change of ``train``'s signature that the tracer misreads fails here.
All three only read bench/.
"""

import importlib
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import bench_module
from gradient_decay import cli, mlp

ROOT = Path(__file__).resolve().parents[1]
MARK = re.compile(r"(\w+),?\s*# noqa: F401  \(bench/spans\.py wraps this binding\)")
TARGETS = [binding for binding, *_ in bench_module("spans").TARGETS]


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_binding_resolves(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{target} is no longer a binding the tracer can wrap"


def test_marked_imports_name_traced_bindings():
    marked = []
    for path in sorted((ROOT / "src" / "gradient_decay").glob("*.py")):
        for line in path.read_text().splitlines():
            if "bench/spans.py wraps" in line:
                found = MARK.search(line)
                assert found, f"{path.name}: a tracer note that is not a marked import: {line.strip()!r}"
                marked.append(f"gradient_decay.{path.stem}:{found.group(1)}")
    untraced = sorted(set(marked) - set(TARGETS))
    assert not untraced, f"kept for the tracer, but not in bench/spans.py TARGETS: {untraced}"


def test_train_counters_read_the_call_that_cli_makes(tmp_path, monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return mlp.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", recording)
    assert cli.main(["sweep", "--dataset", "blobs", "--betas", "1", "--epochs", "3", "--batch", "50",
                     "--blob-per-class", "20", "--blob-classes", "4", "--model", "8,4",
                     "--out", str(tmp_path)]) == 0
    (args, kwargs), = calls
    model, train_set, cfg = args[:3]
    test_set = kwargs["test_set"]
    count_train = bench_module("spans")._count_train
    counters = Counter()
    count_train(counters, args, kwargs)
    assert counters["mlp.train.steps"] == cfg.epochs * math.ceil(train_set.n / cfg.batch_size)
    assert counters["mlp.train.rows"] == cfg.epochs * train_set.n
    # each epoch's evaluation forwards the test set too: 2 FLOPs per multiply-add of each test row
    without_test = Counter()
    count_train(without_test, args, {k: v for k, v in kwargs.items() if k != "test_set"})
    macs = sum(a * b for a, b in zip(model.layer_dims[:-1], model.layer_dims[1:]))
    assert counters["mlp.train.flop"] - without_test["mlp.train.flop"] == cfg.epochs * test_set.n * 2 * macs
