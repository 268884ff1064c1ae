"""Golden bytes of non-default `verify` runs: the sha256 of every stdout line, per command.

The default run is pinned by bench/digests.json (see test_verify.py); these
runs cover other trial counts, seeds and betas.  The file is keyed by
bench/gate.py's platform fingerprint, since float64 bits may differ on
another numpy build or CPU.  A change that moves these bytes on purpose
re-records them and lists every moved line:

    python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest
from conftest import bench_gate

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RUNS = (
    ("verify", "--trials", "20"),
    ("verify", "--seed", "154"),
    ("verify", "--seed", "56"),
    ("verify", "--betas", "0.001,0.3,2,100", "--seed", "7"),
)


def line_digests(argv) -> dict[str, str]:
    """{property@beta: sha256 of its stdout line} of one in-process CLI run, in output order."""
    from gradient_decay.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    digests = {}
    for line in out.getvalue().splitlines(keepends=True):
        rec = json.loads(line)
        digests[f"{rec['property']}@{rec['beta']}"] = hashlib.sha256(line.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_verify_lines_match_the_golden_digests(argv):
    gate = bench_gate()
    recorded = json.loads(GOLDEN_PATH.read_text())
    here = gate.fingerprint(gate.platform_info())
    if here != recorded["fingerprint"]:
        pytest.skip(f"golden digests were recorded on platform {recorded['fingerprint']}, this one is {here}")
    digests, expected = line_digests(argv), recorded["runs"][" ".join(argv)]
    assert list(digests) == list(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []


def record() -> None:
    gate = bench_gate()
    info = gate.platform_info()
    runs = {" ".join(argv): line_digests(argv) for argv in RUNS}
    GOLDEN_PATH.write_text(json.dumps({"fingerprint": gate.fingerprint(info), "platform": info, "runs": runs},
                                      indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
    print(f"wrote {GOLDEN_PATH}")
