"""The four benchmark workloads: their inputs, their CLI command and their checks.

Each workload generates its inputs from the benchmark seed, names the CLI
arguments the program receives, and splits what the program wrote into
operations.  An operation is one beta run of a sweep (its summary row and
its three per-beta files), one ``verify`` property line, or one ``calib``
report.  Every operation carries the bytes the digest gate compares and the
invariant violations found on any seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

MNIST_TRAIN, MNIST_TEST = 60_000, 10_000
CALIB_ROWS, CALIB_CLASSES = 60_000, 10
VERIFY_PROPERTIES = 53  # 3 global checks + 10 per default beta (5 betas)


@dataclass
class Op:
    """One checked operation: its name, the bytes it produced, what is wrong."""

    name: str
    payload: bytes
    problems: list[str]


# ---------------------------------------------------------------- inputs


def write_mnist_like(directory: Path, seed: int) -> None:
    """MNIST-shaped IDX files: 60000/10000 28x28 uint8 images, 10 classes.

    Each image is a shared background plus its class prototype scaled per
    sample by U(0.2, 1), plus Gaussian pixel noise.  The scale spread gives
    every run a mix of easy and hard samples, so top-1 after the one epoch
    lands near 0.86-0.91 and p_true fills every confidence interval (data
    that is too easy saturates at 1.000, too hard stays at 0.10).
    """
    from gradient_decay.datasets import write_idx_images, write_idx_labels

    rng = np.random.default_rng(seed)
    background = rng.uniform(0.0, 60.0, 784)
    prototypes = 120.0 * (rng.random((10, 784)) < 0.1)
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", MNIST_TRAIN), ("t10k", MNIST_TEST)):
        labels = rng.integers(0, 10, n)
        images = np.empty((n, 784), dtype=np.uint8)
        for lo in range(0, n, 5000):  # chunks keep the float64 temporaries small
            y = labels[lo : lo + 5000]
            scale = rng.uniform(0.2, 1.0, (y.size, 1))
            x = background + scale * prototypes[y] + 70.0 * rng.standard_normal((y.size, 784))
            images[lo : lo + y.size] = np.clip(np.rint(x), 0, 255)
        write_idx_images(directory / f"{prefix}-images-idx3-ubyte", images.reshape(n, 28, 28))
        write_idx_labels(directory / f"{prefix}-labels-idx1-ubyte", labels)


def write_overconfident_logits(path: Path, seed: int) -> None:
    """60000x10 logits whose softmax is far more confident than it is accurate.

    A true-class margin drawn from U(0.5, 4) on unit Gaussian logits, all
    multiplied by 4: temperature scaling has a clear optimum near tau 3.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CALIB_CLASSES, CALIB_ROWS)
    logits = rng.standard_normal((CALIB_ROWS, CALIB_CLASSES))
    logits[np.arange(CALIB_ROWS), labels] += rng.uniform(0.5, 4.0, CALIB_ROWS)
    np.savez(path, logits=4.0 * logits, labels=labels)


# ---------------------------------------------------------------- checks


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _check_sweep_files(out: Path, tag: str, epochs: int, n_train: int, n_test: int) -> list[str]:
    problems = []
    metrics = _csv_rows(out / f"metrics_beta_{tag}.csv")
    if metrics[0] != ["epoch", "beta", "train_loss", "train_acc", "test_acc", "mean_conf"]:
        problems.append("metrics header")
    body = metrics[1:]
    if [r[0] for r in body] != [str(e) for e in range(epochs)]:
        problems.append(f"metrics has {len(body)} epoch rows, expected {epochs}")
    if not all(_finite(v) for r in body for v in r[1:]):
        problems.append("non-finite epoch metric")
    rel = _csv_rows(out / f"reliability_beta_{tag}.csv")[1:]
    if len(rel) != 10 or sum(int(r[2]) for r in rel) != n_test:
        problems.append("reliability bins do not cover the test set")
    conf = _csv_rows(out / f"conftable_beta_{tag}.csv")[1:]
    if len(conf) != 5 or sum(int(r[1]) for r in conf) != n_train:
        problems.append("confidence table does not cover the training set")
    return problems


@dataclass(frozen=True)
class Sweep:
    """``gradient-decay sweep``: one operation per beta run."""

    name: str
    args: tuple[str, ...]
    tags: tuple[str, ...]  # summary row order: betas as repr(float), then "warmup"
    epochs: int
    n_train: int
    n_test: int
    mnist: bool
    first_work = "gradient_decay.cli:train"

    @property
    def seeded(self) -> bool:
        return self.mnist

    def prepare(self, inputs: Path, seed: int) -> None:
        if self.mnist:
            write_mnist_like(inputs / "mnist", seed)

    def argv(self, inputs: Path, out: Path) -> list[str]:
        extra = ["--mnist-dir", str(inputs / "mnist")] if self.mnist else []
        return ["sweep", *self.args, *extra, "--out", str(out)]

    def items(self) -> int:
        """Training samples processed: runs x epochs x n_train."""
        return len(self.tags) * self.epochs * self.n_train

    def ops(self, out: Path, stdout: bytes) -> list[Op]:
        summary = out / "summary.csv"
        if not summary.exists():
            return []
        lines = summary.read_bytes().splitlines(keepends=True)
        if not lines or lines[0] != b"beta,top1_acc,train_acc,ece,mce,mean_conf,status\r\n":
            return []
        ops = []
        for i, line in enumerate(lines[1:]):
            files = []
            try:
                tag, problems, files = self._check_run(out, i, line)
            except (ValueError, IndexError, UnicodeDecodeError, StopIteration) as exc:
                tag, problems = f"row{i}", [f"unparsable output: {exc}"]
            payload = line + b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)
            ops.append(Op(tag, payload, problems))
        return ops

    def _check_run(self, out: Path, i: int, line: bytes) -> tuple[str, list[str], list[Path]]:
        row = next(csv.reader([line.decode()]))
        tag = row[0]
        problems = [] if self.tags[i : i + 1] == (tag,) else [f"unexpected row {tag!r}"]
        if row[-1] != "ok":
            return tag, problems + [f"status {row[-1]!r}"], []
        if not all(_finite(v) and 0.0 <= float(v) <= 1.0 for v in row[1:6]):
            problems.append("summary value outside [0, 1]")
        files = [out / f"{kind}_beta_{tag}.csv" for kind in ("metrics", "reliability", "conftable")]
        if not all(f.exists() for f in files):
            return tag, problems + ["per-beta files missing"], []
        problems += _check_sweep_files(out, tag, self.epochs, self.n_train, self.n_test)
        return tag, problems, files

    @property
    def n_ops(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class Verify:
    """``gradient-decay verify`` with its defaults: one operation per property."""

    name: str = "verify_default"
    seeded = False
    first_work = "gradient_decay.cli:verify_all"

    def prepare(self, inputs: Path, seed: int) -> None:
        pass

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["verify"]

    def items(self) -> int:
        """Properties checked."""
        return VERIFY_PROPERTIES

    def ops(self, out: Path, stdout: bytes) -> list[Op]:
        ops = []
        for i, line in enumerate(stdout.splitlines(keepends=True)):
            try:
                rec = json.loads(line)
                name = f"{rec['property']}@{rec['beta']}"
                ok = rec["pass"] is True and rec["worst_error"] <= rec["tolerance"]
            except (ValueError, KeyError, TypeError):
                ops.append(Op(f"line{i}", line, ["unparsable property line"]))
                continue
            ops.append(Op(name, line, [] if ok else ["property failed"]))
        return ops

    n_ops = VERIFY_PROPERTIES


@dataclass(frozen=True)
class Calib:
    """``gradient-decay calib --fit-temperature`` on generated logits: one report."""

    name: str = "calib_fit"
    seeded = True
    first_work = "gradient_decay.calibration:PredictionSet.from_logits"

    def prepare(self, inputs: Path, seed: int) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        write_overconfident_logits(inputs / "logits.npz", seed)

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["calib", "--logits", str(inputs / "logits.npz"), "--fit-temperature"]

    def items(self) -> int:
        """Logit rows reported on."""
        return CALIB_ROWS

    def ops(self, out: Path, stdout: bytes) -> list[Op]:
        if not stdout:
            return []
        try:
            rep = json.loads(stdout)
            values = [rep[k] for k in ("ece", "mce", "mean_conf", "ece_scaled", "mce_scaled")]
            problems = []
            if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in values):
                problems.append("calibration value outside [0, 1]")
            if not (isinstance(rep["tau_star"], float) and 0.05 <= rep["tau_star"] <= 10.0):
                problems.append(f"tau_star {rep['tau_star']!r} outside [0.05, 10]")
            if len(rep["interval_counts"]) != 5 or sum(rep["interval_counts"]) != CALIB_ROWS:
                problems.append("interval counts do not cover the rows")
        except (ValueError, KeyError, TypeError):
            problems = ["unparsable report"]
        return [Op("report", stdout, problems)]

    n_ops = 1


_MNIST_ARGS = (
    "--dataset", "mnist", "--model", "50,20,10", "--batch", "100",
    "--betas", "1,0.1", "--beta-initial", "0.01", "--beta-end", "0.1", "--warmup-iters", "600",
    "--lr", "1e-3", "--momentum", "0.9", "--weight-decay", "1e-4", "--epochs", "1", "--seed", "0",
)

# The arguments of scripts/run_blobs_calibration.py, copied so that editing the
# script does not silently change the benchmark.
_BLOBS_ARGS = (
    "--dataset", "blobs", "--blob-classes", "10", "--blob-per-class", "50",
    "--blob-sigma", "0.3", "--blob-radius", "1.0", "--blob-seed", "42",
    "--model", "256,10", "--betas", "0.1,1,5,20", "--lr", "0.05", "--momentum", "0.9",
    "--weight-decay", "0", "--epochs", "400", "--batch", "100", "--seed", "7",
)

WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep_mnist", _MNIST_ARGS, ("1.0", "0.1", "warmup"), 1, MNIST_TRAIN, MNIST_TEST, True),
        Sweep("sweep_blobs", _BLOBS_ARGS, ("0.1", "1.0", "5.0", "20.0"), 400, 400, 100, False),
        Verify(),
        Calib(),
    )
}
