"""Golden bytes of CLI runs, keyed by bench/gate.py's platform fingerprint.

Non-default `verify` runs are pinned by the sha256 of every stdout line, in
process and, for the first run, piped from a subprocess; the default run is
pinned by bench/digests.json (see test_verify.py).  Commands
that train (`sweep`, `trace`) are pinned by the sha256 of every artifact
they write; they run as subprocesses with one BLAS thread, because the
artifacts differ between 1 and 2 OpenBLAS threads.  `calib` and
`warmup-demo` are pinned by the sha256 of their stdout and of every file
they write, with `calib` reading logits that the test writes from a fixed
seed; they run the same way.  An MNIST-dataset `sweep` reads seeded IDX
files that the test writes plain and gzip-compressed, and is pinned by the
sha256 of every artifact.  Float64 bits may differ
on another numpy build, BLAS or CPU, so on another fingerprint the tests
skip.  A change that moves these bytes on purpose re-records them and lists
every moved line or artifact:

    python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_module

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = (
    ("verify", "--trials", "20"),
    ("verify", "--seed", "154"),
    ("verify", "--seed", "56"),
    ("verify", "--betas", "0.001,0.3,2,100", "--seed", "7"),
    # beta=1000 puts the curvature peak at p = 1/1001, in the first block of the peak scan
    ("verify", "--betas", "1000,0.5", "--trials", "20"),
)
# the blobs calibration script's data and model at 40 epochs; each command adds --out
_BLOBS = ("--blob-per-class", "50", "--blob-seed", "42", "--seed", "7", "--epochs", "40")
_SCRIPT = ("--model", "256,10", "--lr", "0.05", "--weight-decay", "0")
TRAIN_RUNS = (
    ("sweep", *_BLOBS, *_SCRIPT, "--betas", "0.1,1,20", "--beta-initial", "0.1", "--beta-end", "20",
     "--warmup-iters", "100"),
    ("trace", *_BLOBS, *_SCRIPT, "--beta", "5"),
    ("sweep", *_BLOBS, *_SCRIPT, "--betas", "0.1,5", "--tau", "0.5"),
    # a linear model: every beta diverges at epoch 0, batch 2, on the non-finite logits check
    ("sweep", *_BLOBS, "--model", "10", "--lr", "1e300", "--betas", "0.1,1,20"),
)
# "{dir}" is the run's directory, which holds write_logits' files and an empty out/
FILE_RUNS = (
    ("calib", "--logits", "{dir}/logits.npz", "--fit-temperature", "--out", "{dir}/out/calib.json",
     "--reliability-out", "{dir}/out/reliability.csv"),
    ("calib", "--logits", "{dir}/logits.csv", "--bins", "7"),
    ("warmup-demo",),
)
# "{dir}" holds write_mnist's IDX files, plain under {dir}/plain and gzip-compressed under {dir}/gz
MNIST_RUNS = tuple(
    ("sweep", "--dataset", "mnist", "--mnist-dir", f"{{dir}}/{sub}", "--model", "16,10", "--epochs", "2")
    for sub in ("plain", "gz")
)


def line_digests(argv) -> dict[str, str]:
    """{property@beta: sha256 of its stdout line} of one in-process CLI run, in output order."""
    from gradient_decay.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return digests_of_lines(out.getvalue())


def digests_of_lines(text: str) -> dict[str, str]:
    """{property@beta: sha256 of its line} of a verify report, in line order."""
    digests = {}
    for line in text.splitlines(keepends=True):
        rec = json.loads(line)
        digests[f"{rec['property']}@{rec['beta']}"] = hashlib.sha256(line.encode()).hexdigest()
    return digests


def run_cli(argv) -> bytes:
    """stdout of one CLI subprocess with one BLAS thread, which must exit 0 with nothing on stderr."""
    env = dict(os.environ, **bench_module("gate").THREAD_ENV, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gradient_decay", *argv], env=env, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def file_digests(out: Path) -> dict[str, str]:
    """{file name: sha256} of every file under out, by name."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def artifact_digests(argv, out: Path) -> dict[str, str]:
    """{file name: sha256} of every artifact one CLI subprocess writes under out, by name."""
    run_cli([*argv, "--out", str(out)])
    return file_digests(out)


def write_logits(work: Path) -> None:
    """Seeded 600x10 logits and labels, as logits.npz and as logits.csv (the logit columns, then the label)."""
    rng = np.random.default_rng(20240811)
    labels = rng.integers(0, 10, 600)
    logits = rng.normal(0.0, 1.5, (600, 10))
    logits[np.arange(600), labels] += 2.0  # better than chance, and overconfident at tau=1
    np.savez(work / "logits.npz", logits=logits, labels=labels)
    np.savetxt(work / "logits.csv", np.column_stack([logits, labels]), fmt="%.17g", delimiter=",")


def file_run_digests(argv, work: Path) -> dict[str, str]:
    """{"stdout": sha256, file name: sha256} of one FILE_RUNS command run in the directory work."""
    write_logits(work)
    (work / "out").mkdir()
    stdout = run_cli([a.replace("{dir}", str(work)) for a in argv])
    return {"stdout": hashlib.sha256(stdout).hexdigest(), **file_digests(work / "out")}


def write_mnist(work: Path) -> None:
    """Seeded 600 training and 100 test 28x28 images, labels 0..9, as IDX files in work/plain and work/gz."""
    from gradient_decay.datasets import write_idx_images, write_idx_labels

    rng = np.random.default_rng(20240812)
    data = {prefix: (rng.integers(0, 256, (n, 28, 28), dtype=np.uint8), np.arange(n, dtype=np.uint8) % 10)
            for prefix, n in (("train", 600), ("t10k", 100))}
    for sub, suffix in (("plain", ""), ("gz", ".gz")):
        (work / sub).mkdir()
        for prefix, (images, labels) in data.items():
            write_idx_images(work / sub / f"{prefix}-images-idx3-ubyte{suffix}", images)
            write_idx_labels(work / sub / f"{prefix}-labels-idx1-ubyte{suffix}", labels)


def mnist_run_digests(argv, work: Path) -> dict[str, str]:
    """{file name: sha256} of every artifact one MNIST_RUNS command writes, reading write_mnist's files in work."""
    write_mnist(work)
    return artifact_digests([a.replace("{dir}", str(work)) for a in argv], work / "out")


def recorded_runs() -> dict:
    """The recorded runs, or a skip when they were recorded on another platform."""
    gate = bench_module("gate")
    recorded = json.loads(GOLDEN_PATH.read_text())
    here = gate.fingerprint(gate.platform_info())
    if here != recorded["fingerprint"]:
        pytest.skip(f"golden digests were recorded on platform {recorded['fingerprint']}, this one is {here}")
    return recorded["runs"]


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_verify_lines_match_the_golden_digests(argv):
    expected = recorded_runs()[" ".join(argv)]
    digests = line_digests(argv)
    assert list(digests) == list(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []


def test_piped_verify_run_matches_the_golden_digests():
    # the in-process runs above do not reach the process exit, where stdout is flushed to the pipe
    argv = RUNS[0]
    expected = recorded_runs()[" ".join(argv)]
    assert list(digests_of_lines(run_cli(argv).decode()).items()) == list(expected.items())


@pytest.mark.parametrize("argv", TRAIN_RUNS, ids=" ".join)
def test_training_artifacts_match_the_golden_digests(argv, tmp_path):
    expected = recorded_runs()[" ".join(argv)]
    digests = artifact_digests(argv, tmp_path / "out")
    assert list(digests) == list(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []


@pytest.mark.parametrize("argv", FILE_RUNS, ids=" ".join)
def test_calib_and_warmup_outputs_match_the_golden_digests(argv, tmp_path):
    expected = recorded_runs()[" ".join(argv)]
    digests = file_run_digests(argv, tmp_path)
    assert list(digests) == list(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []


@pytest.mark.parametrize("argv", MNIST_RUNS, ids=" ".join)
def test_mnist_sweep_artifacts_match_the_golden_digests(argv, tmp_path):
    expected = recorded_runs()[" ".join(argv)]
    digests = mnist_run_digests(argv, tmp_path)
    assert list(digests) == list(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []


def record() -> None:
    gate = bench_module("gate")
    info = gate.platform_info()
    runs = {" ".join(argv): line_digests(argv) for argv in RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(TRAIN_RUNS):
            runs[" ".join(argv)] = artifact_digests(argv, Path(tmp) / str(i))
        for i, argv in enumerate(FILE_RUNS):
            work = Path(tmp) / f"file{i}"
            work.mkdir()
            runs[" ".join(argv)] = file_run_digests(argv, work)
        for i, argv in enumerate(MNIST_RUNS):
            work = Path(tmp) / f"mnist{i}"
            work.mkdir()
            runs[" ".join(argv)] = mnist_run_digests(argv, work)
    GOLDEN_PATH.write_text(json.dumps({"fingerprint": gate.fingerprint(info), "platform": info, "runs": runs},
                                      indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
    print(f"wrote {GOLDEN_PATH}")
