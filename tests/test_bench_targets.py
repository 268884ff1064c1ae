"""The benchmark tracer's TARGETS and src's bindings must stay in step, both ways.

bench/spans.py replaces each ``module:name`` (or ``module:Class.name``) in
its TARGETS with a timing wrapper, looking the name up with
``vars(owner)[name]``.  A refactor that drops one of these bindings breaks
``bench/run.py --trace 1`` with a KeyError; the first test catches it first.

``cli`` and ``verify`` import a few names they never call, marked
``# noqa: F401  (bench/spans.py wraps this binding)``, because bench/spans.py
wraps them there.  Once TARGETS stops naming such a binding, its import is
dead code; the second test says so.  Both only read bench/.
"""

import importlib
import re
from pathlib import Path

import pytest

from conftest import bench_module

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
