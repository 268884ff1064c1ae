"""Every binding the benchmark's tracer wraps must still exist.

bench/spans.py replaces each ``module:name`` (or ``module:Class.name``) in
its TARGETS with a timing wrapper, looking the name up with
``vars(owner)[name]``.  A refactor that drops one of these bindings breaks
``bench/run.py --trace 1`` with a KeyError; this test catches it first.  It
only reads bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return [binding for binding, *_ in module.TARGETS]


@pytest.mark.parametrize("target", _tracer_targets())
def test_tracer_binding_resolves(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{target} is no longer a binding the tracer can wrap"
