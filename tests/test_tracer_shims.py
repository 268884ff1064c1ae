"""Every binding src keeps only for the benchmark's tracer must still be traced.

``cli`` and ``verify`` import a few names they never call, marked
``# noqa: F401  (bench/spans.py wraps this binding)``, because bench/spans.py
wraps them there.  Once TARGETS stops naming such a binding, its import is
dead code; this test says so.  It only reads bench/.
"""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MARK = re.compile(r"(\w+),?\s*# noqa: F401  \(bench/spans\.py wraps this binding\)")


def _tracer_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return {binding for binding, *_ in module.TARGETS}


def test_marked_imports_name_traced_bindings():
    marked = []
    for path in sorted((ROOT / "src" / "gradient_decay").glob("*.py")):
        for line in path.read_text().splitlines():
            if "bench/spans.py wraps" in line:
                found = MARK.search(line)
                assert found, f"{path.name}: a tracer note that is not a marked import: {line.strip()!r}"
                marked.append(f"gradient_decay.{path.stem}:{found.group(1)}")
    untraced = sorted(set(marked) - _tracer_targets())
    assert not untraced, f"kept for the tracer, but not in bench/spans.py TARGETS: {untraced}"
