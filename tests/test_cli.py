"""CLI behavior: exit codes, file schemas, reproducibility."""

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import subcommand_parsers
from gradient_decay import calibration, cli
from gradient_decay.calibration import PredictionSet, calibration_report
from gradient_decay.cli import main
from gradient_decay.datasets import write_idx_images, write_idx_labels
from gradient_decay.mlp import MlpModel, TrainingDiverged
from gradient_decay.verify import PropertyCheck, VerifyReport

SRC = Path(__file__).resolve().parents[1] / "src"
# a beta so large that G and d2G overflow: three properties fail, one of them with a NaN error
HUGE_BETA_FAILURES = "FAILED properties: convexity_flip, curvature_peak_value, monotone_decay\n"
FAST_SWEEP = [
    "--dataset", "blobs", "--epochs", "3", "--lr", "0.05", "--batch", "50",
    "--blob-per-class", "20", "--blob-classes", "4", "--model", "8,4",
]


def run(argv):
    return main(argv)


def python_process(*args):
    """The finished `python ARGS` subprocess, with src on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def recorded(monkeypatch, name):
    """A list that collects what cli.<name> returns, or the TrainingDiverged it raises, on each call."""
    calls, fn = [], getattr(cli, name)

    def recording(*args, **kwargs):
        try:
            calls.append(fn(*args, **kwargs))
        except TrainingDiverged as exc:
            calls.append(exc)
            raise
        return calls[-1]

    monkeypatch.setattr(cli, name, recording)
    return calls


def observed(monkeypatch):
    """A list that collects the p_true rows that cli.train hands its observer, in call order."""
    rows, fn = [], cli.train

    def teeing(*args, observe, **kwargs):
        def both(metrics, p_true):
            rows.append(p_true.copy())  # a copy, so what the command does with p_true cannot change it
            observe(metrics, p_true)

        return fn(*args, observe=both, **kwargs)

    monkeypatch.setattr(cli, "train", teeing)
    return rows


@pytest.fixture
def forbid_work(monkeypatch):
    """Training, the verify suite and the temperature fit fail if reached."""
    for name in ("train", "verify_all", "fit_temperature"):
        monkeypatch.setattr(f"gradient_decay.cli.{name}", no_work)


def flagged(flag, message):
    """The usage message for `flag`: argparse's "argument --flag: " unless it already leads with the flag."""
    return message if message.startswith(flag) else f"argument {flag}: {message}"


def assert_usage_error(argv, capsys, message):
    """argv exits 2 with `message` on stderr and no traceback; returns what went to stdout."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: " + message in captured.err
    assert "Traceback" not in captured.err
    return captured.out


class TestVerifyCommand:
    def test_default_flags_pass(self, capsys):
        assert run(["verify", "--trials", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            rec = json.loads(line)
            assert rec["pass"] is True

    def test_negative_beta_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--betas", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        # a reworded message keeps its case's old id
        pytest.param(["--trials", "0"], "trials must be an integer >= 1, got 0",
                     id="flags0-trials must be a positive integer, got 0"),
        pytest.param(["--betas", "nan"], "beta must be a positive finite real, got nan",
                     id="flags1---betas must all be positive finite reals"),
        pytest.param(["--betas", "1,inf"], "beta must be a positive finite real, got inf",
                     id="flags2---betas must all be positive finite reals"),
        pytest.param(["--betas", "0.5,2,5e-1"], "0.5 is listed twice in '0.5,2,5e-1'",
                     id="flags4-0.5 is listed twice in '0.5,2,5e-1'"),
    ])
    def test_invalid_values_are_usage_errors(self, capsys, flags, message):
        assert_usage_error(["verify"] + flags, capsys, flagged(flags[0], message))

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_overtight_tolerance_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("gradient_decay.verify._FD_REL_TOL", 1e-14)
        assert run(["verify", "--trials", "10", "--betas", "1"]) == 1
        err = capsys.readouterr().err
        assert "fd_gradient_agreement" in err

    def test_out_file(self, tmp_path, monkeypatch):
        # one JSON object per check, in report order, each line ending in \n
        reports = recorded(monkeypatch, "verify_all")
        out = tmp_path / "report.jsonl"
        assert run(["verify", "--trials", "5", "--betas", "1", "--out", str(out)]) == 0
        want = "".join(
            f'{{"property": "{c.property}", "beta": {"null" if c.beta is None else repr(c.beta)}, '
            f'"tolerance": {c.tolerance!r}, "worst_error": {c.worst_error!r}, "pass": {str(c.passed).lower()}}}\n'
            for c in reports[0].checks)
        assert {c.beta for c in reports[0].checks} == {None, 1.0}
        assert out.read_bytes() == want.encode()


    @pytest.mark.parametrize("worst_error", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_error_is_written_as_null(self, capsys, monkeypatch, worst_error):
        report = VerifyReport((PropertyCheck("convexity_flip", 2.0, 0.0, worst_error, False),))
        monkeypatch.setattr(cli, "verify_all", lambda fd, betas: report)
        assert run(["verify", "--betas", "2"]) == 1
        line = capsys.readouterr().out
        assert json.loads(line, parse_constant=reject_constant) == {
            "property": "convexity_flip", "beta": 2.0, "tolerance": 0.0, "worst_error": None, "pass": False}

    def test_huge_beta_report_is_strict_json_with_only_the_failures_on_stderr(self, capsys):
        assert run(["verify", "--trials", "5", "--betas", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err == HUGE_BETA_FAILURES
        records = [json.loads(line, parse_constant=reject_constant) for line in captured.out.splitlines()]
        assert len(records) == 13  # 3 global checks + 10 for the one beta
        failed = {r["property"]: r["worst_error"] for r in records if not r["pass"]}
        assert failed == {"monotone_decay": 0.999999, "convexity_flip": None, "curvature_peak_value": 0.25}


# the four ways out of main: argv, what main returns or raises (an AssertionError is raised
# by a stubbed verify_all), and the exit status of a process that leaves that way
WAYS_OUT = {
    "returns_0": (["verify", "--trials", "5", "--betas", "1"], 0, 0),
    "returns_1": (["verify", "--trials", "5", "--betas", "1e308"], 1, 1),
    "usage_error": (["verify", "--trials", "0"], SystemExit, 2),
    "traceback": (["verify", "--trials", "5"], AssertionError, 1),
}
# registers an atexit hook before importing the CLI, then leaves through main as `entry` does
EXIT_SCRIPT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from gradient_decay import cli
if sys.argv[1] == "stub":
    cli.verify_all = None  # calling it raises
sys.exit(cli.main(sys.argv[2:]))
"""


class TestExitPath:
    """main leaves the collector as it found it; the process exits with the heap frozen."""

    @pytest.mark.parametrize("way", WAYS_OUT)
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, monkeypatch, way):
        argv, exits, _ = WAYS_OUT[way]
        if exits is AssertionError:
            monkeypatch.setattr(cli, "verify_all", no_work)
        before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
        if isinstance(exits, int):
            assert run(argv) == exits
        else:
            with pytest.raises(exits):
                run(argv)
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before

    @pytest.mark.parametrize("way", WAYS_OUT)
    def test_process_exits_with_the_heap_frozen(self, way):
        # atexit runs its hooks last in, first out, so the script's hook runs after the CLI's
        argv, exits, status = WAYS_OUT[way]
        proc = python_process("-c", EXIT_SCRIPT, "stub" if exits is AssertionError else "real", *argv)
        assert proc.returncode == status
        assert (b"Traceback" in proc.stderr) == (exits is AssertionError)
        assert proc.stdout.splitlines()[-1] == b"frozen at exit: True"

    def test_importing_cli_freezes_nothing(self):
        proc = python_process("-c", "import gc; n = gc.get_freeze_count(); import gradient_decay.cli; "
                                    "print(n, gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"0 0\n"

    def test_process_flushes_every_line_before_it_exits(self, capsys):
        proc = python_process("-m", "gradient_decay", "verify", "--betas", "1e308")
        assert (proc.returncode, proc.stderr.decode()) == (1, HUGE_BETA_FAILURES)
        assert run(["verify", "--betas", "1e308"]) == 1
        assert proc.stdout.decode() == capsys.readouterr().out
        assert len(proc.stdout.splitlines()) == 13


class TestSweepCommand:
    def test_row_per_beta_plus_warmup(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--betas", "5,1,0.1,0.01", "--beta-initial", "0.01",
                "--beta-end", "0.1", "--warmup-iters", "20", "--out", str(out)] + FAST_SWEEP
        assert run(argv) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "beta,top1_acc,train_acc,ece,mce,mean_conf,status"
        assert len(rows) == 1 + 4 + 1
        assert rows[-1].startswith("warmup,")
        for tag in ("5.0", "1.0", "0.1", "0.01", "warmup"):
            assert (out / f"reliability_beta_{tag}.csv").exists()
            assert (out / f"conftable_beta_{tag}.csv").exists()
            assert (out / f"metrics_beta_{tag}.csv").exists()

    def test_summary_calibration_is_taken_at_tau(self, tmp_path, monkeypatch):
        # ece, mce and mean_conf used to be those of softmax(z), whatever --tau was
        datasets, runs = recorded(monkeypatch, "make_blobs"), recorded(monkeypatch, "train")
        out = tmp_path / "sweep"
        assert run(["sweep", "--betas", "1", "--tau", "0.5", "--out", str(out)] + FAST_SWEEP) == 0
        (_, test_set), = datasets
        pred = PredictionSet.from_logits(runs[0].test_logits, test_set.labels, tau=0.5)
        report = calibration_report(pred, bins=10)
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert report.mean_conf.hex() == float(pred.confidences.mean()).hex()
        assert row[3:6] == [repr(report.ece), repr(report.mce), repr(report.mean_conf)]
        untempered = calibration_report(PredictionSet.from_logits(runs[0].test_logits, test_set.labels), bins=10)
        assert row[5] != repr(untempered.mean_conf)

    def test_conftable_counts_sum_to_train_size(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", "--betas", "1", "--out", str(out)] + FAST_SWEEP) == 0
        rows = (out / "conftable_beta_1.0.csv").read_text().strip().splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        assert sum(counts) == 4 * 16  # 80% of blob points

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sweep", "--betas", "1,0.1", "--out"]
        assert run(argv + [str(a)] + FAST_SWEEP) == 0
        assert run(argv + [str(b)] + FAST_SWEEP) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_diverged_rows(self, tmp_path, monkeypatch):
        runs = recorded(monkeypatch, "train")
        out = tmp_path / "sweep"
        assert run(["sweep", "--betas", "1,0.1", "--lr", "1e6", "--epochs", "1", "--out", str(out)]) == 0
        assert all(isinstance(exc, TrainingDiverged) for exc in runs)
        want = "beta,top1_acc,train_acc,ece,mce,mean_conf,status\r\n" + "".join(
            f'{tag},,,,,,"diverged:epoch={exc.epoch},batch={exc.batch}"\r\n' for tag, exc in zip(("1.0", "0.1"), runs))
        assert (out / "summary.csv").read_bytes() == want.encode()
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]

    def test_model_class_mismatch_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--betas", "1", "--out", str(tmp_path / "x"),
                 "--dataset", "blobs", "--blob-classes", "4", "--model", "8,3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["sweep", "--betas", "1"], ["trace", "--beta", "1"]])
    def test_batch_larger_than_training_set_is_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--out", str(tmp_path / "x")] + FAST_SWEEP + ["--batch", "65"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --batch 65 exceeds the 64 training samples" in err
        assert "Traceback" not in err

    def test_zero_bins_is_usage_error_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before --bins was checked")

        monkeypatch.setattr("gradient_decay.cli.train", no_training)
        assert_usage_error(["sweep", "--betas", "1", "--bins", "0", "--out", str(tmp_path / "x")]
                           + FAST_SWEEP, capsys, "--bins must be at least 1, got 0")

    def test_missing_mnist_dir_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--betas", "1", "--dataset", "mnist",
                 "--mnist-dir", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["sweep", "--betas", "1"], ["trace", "--beta", "1"]])
    def test_empty_mnist_training_set_is_usage_error(self, tmp_path, capsys, forbid_work, command):
        # sweep used to end in a numpy "zero-size array" traceback, trace in a --groups message
        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", np.zeros((0, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte", rng.integers(0, 256, (4, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", np.array([0, 1, 2, 1], dtype=np.uint8))
        argv = command + ["--dataset", "mnist", "--mnist-dir", str(tmp_path), "--model", "3",
                          "--epochs", "1", "--out", str(tmp_path / "x")]
        assert_usage_error(argv, capsys, f"{tmp_path / 'train-images-idx3-ubyte'} holds no training images")
        assert not (tmp_path / "x").exists()


def _write_mnist(d, test_images=(4, 4, 4), test_labels=(0, 1, 2, 9)):
    """Twelve 4x4 training images with labels 0..9 plus a test pair; returns the four paths."""
    rng = np.random.default_rng(0)
    paths = [d / name for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                                   "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
    write_idx_images(paths[0], rng.integers(0, 256, (12, 4, 4), dtype=np.uint8))
    write_idx_labels(paths[1], np.arange(12, dtype=np.uint8) % 10)
    write_idx_images(paths[2], rng.integers(0, 256, test_images, dtype=np.uint8))
    write_idx_labels(paths[3], np.array(test_labels, dtype=np.uint8))
    return paths


class TestMnistFiles:
    """Malformed, empty or mismatched MNIST files are usage errors that name the file, before any training."""

    @staticmethod
    def _bad_label_magic(d):
        paths = _write_mnist(d)
        raw = paths[3].read_bytes()
        paths[3].write_bytes(b"\x00\x00\x08\x03" + raw[4:])
        return f"{paths[3]} (offset 0): expected label magic 0x00000801, got 0x00000803"

    @staticmethod
    def _labels_not_gzip(d):
        paths = _write_mnist(d)
        paths[3].unlink()
        gz = paths[3].with_name(paths[3].name + ".gz")
        gz.write_bytes(b"not gzip data")
        return f"{gz} (offset 0): unreadable gzip data: Not a gzipped file"

    @staticmethod
    def _images_are_a_directory(d):
        paths = _write_mnist(d)
        paths[0].unlink()
        paths[0].mkdir()
        return f"[Errno 21] Is a directory: '{paths[0]}'"

    @staticmethod
    def _gzip_labels_are_a_directory(d):
        paths = _write_mnist(d)
        paths[3].unlink()
        gz = paths[3].with_name(paths[3].name + ".gz")
        gz.mkdir()
        return f"[Errno 21] Is a directory: '{gz}'"

    @staticmethod
    def _empty_test_set(d):
        paths = _write_mnist(d, test_images=(0, 4, 4), test_labels=())
        return f"{paths[2]} holds no test images"

    @staticmethod
    def _wider_test_images(d):
        paths = _write_mnist(d, test_images=(4, 5, 5))
        return f"{paths[2]}, {paths[3]}: test features have dimension 25, the model takes 16"

    @staticmethod
    def _test_label_beyond_the_outputs(d):
        paths = _write_mnist(d, test_labels=(0, 1, 12, 3))
        return f"{paths[2]}, {paths[3]}: test label 12 is outside the model's 10 outputs"

    @pytest.mark.parametrize("case", ["_bad_label_magic", "_labels_not_gzip", "_images_are_a_directory",
                                      "_gzip_labels_are_a_directory", "_empty_test_set",
                                      "_wider_test_images", "_test_label_beyond_the_outputs"])
    @pytest.mark.parametrize("command", [["sweep", "--betas", "1"], ["trace", "--beta", "1", "--groups", "2"]],
                             ids=["sweep", "trace"])
    def test_is_usage_error_before_training(self, tmp_path, capsys, forbid_work, command, case):
        message = getattr(self, case)(tmp_path)
        argv = command + ["--dataset", "mnist", "--mnist-dir", str(tmp_path), "--model", "10",
                          "--epochs", "1", "--batch", "4", "--out", str(tmp_path / "x")]
        assert_usage_error(argv, capsys, message)
        assert not (tmp_path / "x").exists()

    def test_well_formed_files_train(self, tmp_path):
        _write_mnist(tmp_path)
        assert run(["sweep", "--betas", "1", "--dataset", "mnist", "--mnist-dir", str(tmp_path), "--model", "10",
                    "--epochs", "1", "--batch", "4", "--out", str(tmp_path / "x")]) == 0


class TestTraceCommand:
    def test_trace_files(self, tmp_path):
        out = tmp_path / "trace"
        assert run(["trace", "--beta", "0.1", "--groups", "5", "--out", str(out)] + FAST_SWEEP) == 0
        header, *rows = (out / "trace.csv").read_text().strip().splitlines()
        assert header == "epoch,sample_id,p_true,group"
        n_train = 4 * 16
        assert len(rows) == 3 * n_train
        groups = {int(r.split(",")[3]) for r in rows}
        assert groups == {1, 2, 3, 4, 5}
        gm_header, *gm_rows = (out / "group_means.csv").read_text().strip().splitlines()
        assert gm_header == "epoch,group,mean_conf"
        assert len(gm_rows) == 3 * 5

    @pytest.fixture
    def trace_run(self, tmp_path, monkeypatch):
        """The trace command's output directory, with the TrainResult, the (epochs, n) p_true rows that
        train's observer got and the DifficultyGroups it wrote out."""
        rows = observed(monkeypatch)
        results, groups = recorded(monkeypatch, "train"), recorded(monkeypatch, "difficulty_groups")
        out = tmp_path / "trace"
        assert run(["trace", "--beta", "0.1", "--groups", "5", "--out", str(out)] + FAST_SWEEP) == 0
        return out, results[0], np.stack(rows), groups[0]

    def test_metrics_csv_bytes(self, trace_run):
        out, result, _, _ = trace_run
        want = "epoch,beta,train_loss,train_acc,test_acc,mean_conf\r\n" + "".join(
            f"{m.epoch},{m.beta!r},{m.train_loss!r},{m.train_acc!r},{m.test_acc!r},{m.mean_conf!r}\r\n"
            for m in result.metrics)
        assert (out / "metrics.csv").read_bytes() == want.encode()

    def test_trace_csv_bytes(self, trace_run):
        out, _, traces, groups = trace_run
        want = "epoch,sample_id,p_true,group\r\n" + "".join(
            f"{e},{j},{float(traces[e, j])!r},{groups.assignment[j]}\r\n"
            for e in range(traces.shape[0]) for j in range(traces.shape[1]))
        assert (out / "trace.csv").read_bytes() == want.encode()

    def test_group_means_csv_bytes(self, trace_run):
        out, _, traces, groups = trace_run
        want = "epoch,group,mean_conf\r\n" + "".join(
            f"{e},{g + 1},{float(groups.group_means[g, e])!r}\r\n"
            for e in range(traces.shape[0]) for g in range(5))
        assert (out / "group_means.csv").read_bytes() == want.encode()

    def test_every_training_sample_may_be_its_own_group(self, tmp_path):
        out = tmp_path / "trace"
        assert run(["trace", "--beta", "0.1", "--groups", "64", "--out", str(out)] + FAST_SWEEP) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows[:64]] == [str(j) for j in range(64)]
        assert sorted(int(r.split(",")[3]) for r in rows[:64]) == list(range(1, 65))

    @pytest.mark.parametrize("groups", ["0", "65"])
    def test_groups_outside_the_training_set_is_usage_error(self, tmp_path, capsys, forbid_work, groups):
        assert_usage_error(["trace", "--groups", groups, "--out", str(tmp_path / "x")] + FAST_SWEEP, capsys,
                           f"--groups must lie between 1 and the 64 traced samples, got {groups}")
        assert not (tmp_path / "x").exists()

    def test_bins_is_not_a_trace_flag(self, tmp_path, capsys, forbid_work):
        assert_usage_error(["trace", "--bins", "3", "--out", str(tmp_path / "x")] + FAST_SWEEP, capsys,
                           "unrecognized arguments: --bins 3")
        assert not (tmp_path / "x").exists()

    def test_diverging_lr_is_one_line_and_exit_two(self, tmp_path, capsys):
        out = tmp_path / "trace"
        assert run(["trace", "--lr", "1e6", "--epochs", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "diverged:epoch=0,batch=5\n"
        assert not out.exists()  # the directory is made only once there is something to write


class TestCalibCommand:
    @staticmethod
    def _logits_csv(tmp_path):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 2, (60, 5))
        labels = rng.integers(0, 5, 60)
        path = tmp_path / "logits.csv"
        np.savetxt(path, np.column_stack([logits, labels]), delimiter=",")
        return path, logits, labels

    def test_report_schema(self, tmp_path, capsys):
        path, _, _ = self._logits_csv(tmp_path)
        assert run(["calib", "--logits", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert set(rec) == {"beta", "ece", "mce", "mean_conf", "interval_counts"}
        assert rec["beta"] is None
        assert len(rec["interval_counts"]) == 5

    def test_fit_temperature_and_outputs(self, tmp_path):
        path, _, _ = self._logits_csv(tmp_path)
        out = tmp_path / "report.json"
        rel = tmp_path / "rel.csv"
        assert run(["calib", "--logits", str(path), "--beta", "0.5",
                    "--fit-temperature", "--out", str(out), "--reliability-out", str(rel)]) == 0
        rec = json.loads(out.read_text())
        assert rec["beta"] == 0.5
        assert 0.05 <= rec["tau_star"] <= 10.0
        assert rel.read_text().splitlines()[0] == "bin_lo,bin_hi,count,mean_conf,accuracy"

    @pytest.mark.parametrize("bins", [10, 7])
    def test_reliability_out_is_the_report_bins(self, tmp_path, bins):
        path, _, _ = self._logits_csv(tmp_path)
        rel = tmp_path / "rel.csv"
        assert run(["calib", "--logits", str(path), "--bins", str(bins), "--reliability-out", str(rel)]) == 0
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        pred = PredictionSet.from_logits(raw[:, :-1], raw[:, -1].astype(np.int64))
        want = "bin_lo,bin_hi,count,mean_conf,accuracy\r\n" + "".join(
            f"{b.lo!r},{b.hi!r},{b.count},{b.mean_conf!r},{b.accuracy!r}\r\n"
            for b in calibration_report(pred, bins=bins).bins)
        assert rel.read_bytes() == want.encode()

    @pytest.mark.parametrize("fit, reports", [([], 1), (["--fit-temperature"], 2)])
    def test_bins_built_once_per_report(self, tmp_path, monkeypatch, fit, reports):
        path, _, _ = self._logits_csv(tmp_path)
        calls = []
        binning = calibration.bin_reliability

        def counted(*args, **kwargs):
            calls.append(args)
            return binning(*args, **kwargs)

        monkeypatch.setattr(calibration, "bin_reliability", counted)
        monkeypatch.setattr(cli, "bin_reliability", counted)
        assert run(["calib", "--logits", str(path), "--out", str(tmp_path / "r.json"),
                    "--reliability-out", str(tmp_path / "rel.csv"), *fit]) == 0
        assert len(calls) == reports

    @pytest.mark.parametrize("linked", ["output", "logits"])
    @pytest.mark.parametrize("flag", ["--out", "--reliability-out"])
    def test_output_linked_to_the_logits_is_usage_error(self, tmp_path, capsys, forbid_work, flag, linked):
        # the paths are compared once each is resolved, so a symlink on either side is caught
        path, _, _ = self._logits_csv(tmp_path)
        before = path.read_bytes()
        link = tmp_path / "link.csv"
        link.symlink_to(path)
        logits, output = (path, link) if linked == "output" else (link, path)
        assert_usage_error(["calib", "--logits", str(logits), flag, str(output)], capsys,
                           f"argument {flag}: {output} is also the --logits file")
        assert path.read_bytes() == before and link.is_symlink()

    def test_npz_input(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "logits.npz"
        np.savez(path, logits=rng.normal(0, 1, (30, 4)), labels=rng.integers(0, 4, 30))
        assert run(["calib", "--logits", str(path)]) == 0
        assert "ece" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_is_usage_error(self, tmp_path, capsys, bad):
        path, logits, labels = self._logits_csv(tmp_path)
        logits[7, 2] = bad
        np.savetxt(path, np.column_stack([logits, labels]), delimiter=",")
        assert_usage_error(["calib", "--logits", str(path), "--fit-temperature"], capsys,
                           f"{path}: all logits must be finite")

    def test_non_finite_npz_logit_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (30, 4))
        logits[0, 0] = np.nan
        path = tmp_path / "logits.npz"
        np.savez(path, logits=logits, labels=rng.integers(0, 4, 30))
        assert_usage_error(["calib", "--logits", str(path)], capsys, f"{path}: all logits must be finite")

    def test_complex_npz_logits_are_usage_error(self, tmp_path, capsys):
        # numpy cut them to their real parts with a ComplexWarning, and the report went on
        path = tmp_path / "logits.npz"
        np.savez(path, logits=np.arange(8).reshape(4, 2) + 1j, labels=np.array([0, 1, 0, 1]))
        with pytest.raises(SystemExit) as exc:
            run(["calib", "--logits", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: ") and captured.err.splitlines()[1:] == [
            f"gradient-decay: error: {path}: logits must have a bool, integer or float dtype, got complex128"]

    @pytest.mark.parametrize("fit", [[], ["--fit-temperature"]], ids=["report", "fit"])
    def test_npz_logits_near_the_float64_limit_warn_of_nothing(self, tmp_path, capsys, fit):
        # an exponent that overflowed to -inf, a 0 probability, printed a RuntimeWarning (four with the fit)
        path = tmp_path / "logits.npz"
        np.savez(path, logits=np.array([[1e308, -1e308], [0.0, 1.0]]), labels=np.array([0, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["calib", "--logits", str(path), *fit]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bad", [5, -1, 1.5])
    def test_label_outside_the_columns_is_usage_error(self, tmp_path, capsys, bad):
        path, logits, labels = self._logits_csv(tmp_path)
        labels = labels.astype(np.float64)
        labels[3] = bad
        np.savetxt(path, np.column_stack([logits, labels]), delimiter=",")
        message = {5: "labels must lie in [0, 5), got range [0, 5]",
                   -1: "labels must lie in [0, 5), got range [-1, 4]",
                   1.5: "labels must be whole numbers in the int64 range, got 1.5"}[bad]
        assert_usage_error(["calib", "--logits", str(path)], capsys, f"{path}: {message}")

    def test_single_class_fit_is_usage_error(self, tmp_path, capsys):
        path, logits, labels = self._logits_csv(tmp_path)
        np.savetxt(path, np.column_stack([logits, np.zeros_like(labels)]), delimiter=",")
        assert_usage_error(["calib", "--logits", str(path), "--fit-temperature"], capsys,
                           f"{path}: degenerate labels: need at least two classes present")

    def test_zero_bins_is_usage_error(self, tmp_path, capsys):
        path, _, _ = self._logits_csv(tmp_path)
        assert_usage_error(["calib", "--logits", str(path), "--bins", "0"], capsys,
                           "--bins must be at least 1, got 0")

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["calib", "--logits", str(tmp_path / "none.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", ["logits.csv", "logits.npz", "logits"])
    def test_directory_is_usage_error(self, tmp_path, capsys, forbid_work, name):
        # a CSV path used to end in an IsADirectoryError traceback with exit 1
        path = tmp_path / name
        path.mkdir()
        assert_usage_error(["calib", "--logits", str(path), "--fit-temperature"], capsys,
                           f"{path}: [Errno 21] Is a directory: '{path}'")

    def test_npz_archive_is_closed_on_every_exit(self, tmp_path, monkeypatch):
        loaded, load = [], np.load
        monkeypatch.setattr(np, "load", lambda *args, **kwargs: loaded.append(load(*args, **kwargs)) or loaded[-1])
        rng = np.random.default_rng(1)
        cases = {"good": (0, {"logits": rng.normal(0, 1, (30, 4)), "labels": rng.integers(0, 4, 30)}),
                 "rowless": (2, {"logits": np.zeros((0, 3)), "labels": np.zeros(0, dtype=np.int64)}),
                 "unlabeled": (2, {"logits": rng.normal(0, 1, (30, 4))})}
        for name, (code, arrays) in cases.items():
            path = tmp_path / f"{name}.npz"
            np.savez(path, **arrays)
            try:
                assert run(["calib", "--logits", str(path)]) == code
            except SystemExit as exc:
                assert exc.code == code
        assert len(loaded) == 3
        assert all(isinstance(data, np.lib.npyio.NpzFile) and data.zip is None for data in loaded)

    def test_npz_without_rows_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.npz"
        np.savez(path, logits=np.zeros((0, 3)), labels=np.zeros(0, dtype=np.int64))
        assert_usage_error(["calib", "--logits", str(path)], capsys, f"{path}: holds no logit rows")

    @pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comments_only"])
    def test_csv_without_rows_is_usage_error_without_a_warning(self, tmp_path, capsys, text):
        # numpy's loadtxt warns "input contained no data" with a source line on stderr
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            warnings.simplefilter("error", UserWarning)
            run(["calib", "--logits", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: holds no logit rows" in err
        assert "Warning" not in err and "Traceback" not in err


class TestWarmupDemoCommand:
    def test_table_contains_spec_rows(self, capsys):
        assert run(["warmup-demo", "--beta-initial", "0.1", "--beta-end", "1.0",
                    "--warmup-iters", "1000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,beta"
        assert "0,0.1" in out
        assert "500,0.55" in out
        assert "1000,1.0" in out

    def test_each_step_is_listed_once(self, capsys):
        # 5 points over 2 iterations round to steps 0, 0, 1, 2, 2: 0 and 2 were printed twice
        assert run(["warmup-demo", "--points", "5", "--warmup-iters", "2"]) == 0
        assert capsys.readouterr().out == "t,beta\n0,0.1\n1,0.55\n2,1.0\n"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\nbeta-initial = 0.2\nbeta_end = 2.0\nwarmup-iters = 10\n")
        assert run(["warmup-demo", "--config", str(cfg), "--beta-end", "4.0", "--points", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "0,0.2"     # from config
        assert out[3] == "10,4.0"    # flag wins over config

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            run(["warmup-demo", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_sweep_from_config_matches_flags_byte_for_byte(self, tmp_path):
        values = {"betas": "1,0.1", "beta_initial": "0.01", "beta_end": "0.1", "warmup_iters": "10",
                  "dataset": "blobs", "epochs": "3", "lr": "0.05",
                  "batch": "50", "blob_per_class": "20", "blob_classes": "4", "model": "8,4"}
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        flags = [tok for k, v in values.items() for tok in ("--" + k.replace("_", "-"), v)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["sweep"] + flags + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert "summary.csv" in names and "metrics_beta_warmup.csv" in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("command, line, message", [
        ("sweep", "betas = 1,1.0", "argument --betas: 1.0 is listed twice in '1,1.0'"),
        ("sweep", "dataset = blob", "argument --dataset: invalid choice: 'blob'"),
        ("sweep", "mom = 0.5", "unrecognized arguments: --mom=0.5"),
        ("calib", "fit_temperature = yes please",
         "argument --fit-temperature: expected true or false, got 'yes please'"),
        ("sweep", "config = other.cfg", "{cfg}:1: a config file cannot name another config file"),
        ("sweep", "just words", "{cfg}:1: expected 'key = value', got 'just words'"),
    ])
    def test_bad_config_line_is_usage_error(self, tmp_path, capsys, forbid_work, command, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        required = {"sweep": ["--out", str(tmp_path / "x")], "calib": ["--logits", str(tmp_path / "l.csv")]}
        assert_usage_error([command, "--config", str(cfg)] + required[command] + FAST_SWEEP * (command == "sweep"),
                           capsys, message.format(cfg=cfg))

    def test_flags_are_not_matched_by_prefix(self, tmp_path, capsys):
        assert_usage_error(["warmup-demo", "--points", "3", "--beta-init", "0.2"], capsys,
                           "unrecognized arguments: --beta-init 0.2")

    @pytest.mark.parametrize("value, fitted", [("true", True), ("false", False)])
    def test_fit_temperature_line_is_a_boolean(self, tmp_path, capsys, value, fitted):
        path, _, _ = TestCalibCommand._logits_csv(tmp_path)
        cfg = tmp_path / "calib.cfg"
        cfg.write_text(f"fit_temperature = {value}\n")
        assert run(["calib", "--config", str(cfg), "--logits", str(path)]) == 0
        assert ("tau_star" in json.loads(capsys.readouterr().out)) is fitted

    def test_bare_fit_temperature_flag_overrides_the_file(self, tmp_path, capsys):
        path, _, _ = TestCalibCommand._logits_csv(tmp_path)
        cfg = tmp_path / "calib.cfg"
        cfg.write_text("fit_temperature = false\n")
        assert run(["calib", "--config", str(cfg), "--logits", str(path), "--fit-temperature"]) == 0
        assert "tau_star" in json.loads(capsys.readouterr().out)

    def test_required_flags_may_come_from_the_file(self, tmp_path, capsys):
        path, _, _ = TestCalibCommand._logits_csv(tmp_path)
        out = tmp_path / "report.json"
        cfg = tmp_path / "calib.cfg"
        cfg.write_text(f"logits = {path}\nout = {out}\n")
        assert run(["calib", "--config", str(cfg)]) == 0
        assert set(json.loads(out.read_text())) == {"beta", "ece", "mce", "mean_conf", "interval_counts"}

        sweep_out = tmp_path / "sweep"
        cfg.write_text(f"out = {sweep_out}\nbetas = 1\n")
        assert run(["sweep", "--config", str(cfg)] + FAST_SWEEP) == 0
        assert (sweep_out / "summary.csv").exists()


class TestUsageErrorsBeforeWork:
    """Inputs that used to end in a traceback with exit 1 now exit 2 before any model trains."""

    @pytest.mark.parametrize("argv, message", [
        (["trace", "--groups", "0"], "--groups must lie between 1 and the 64 traced samples, got 0"),
        (["trace", "--groups", "1000"], "--groups must lie between 1 and the 64 traced samples, got 1000"),
        (["trace", "--beta", "nan"], "beta must be a positive finite real, got nan"),
        (["sweep", "--tau", "0"], "tau must be a positive finite real, got 0.0"),
        (["sweep", "--tau", "nan"], "tau must be a positive finite real, got nan"),
        # a reworded message keeps its case's old id
        pytest.param(["sweep", "--blob-sigma", "-1"], "sigma must be a positive finite real, got -1.0",
                     id="argv5-sigma must be positive, got -1.0"),
        pytest.param(["sweep", "--blob-classes", "1"], "classes must be an integer >= 2, got 1",
                     id="argv7-need at least 2 classes, got 1"),
        pytest.param(["sweep", "--blob-per-class", "0"], "n_per_class must be an integer >= 5, got 0",
                     id="argv8-n_per_class must be positive, got 0"),
        pytest.param(["sweep", "--blob-radius", "nan"], "radius must be a positive finite real, got nan",
                     id="argv9-radius must be positive, got nan"),
        pytest.param(["sweep", "--seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="argv10-seed must be non-negative, got -1"),
        pytest.param(["trace", "--seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="argv11-seed must be non-negative, got -1"),
        pytest.param(["sweep", "--blob-seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="argv12-seed must be non-negative, got -1"),
        pytest.param(["trace", "--blob-seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="argv13-seed must be non-negative, got -1"),
        pytest.param(["sweep", "--epochs", "0"], "epochs must be an integer >= 1, got 0",
                     id="argv14-epochs must be positive, got 0"),
        pytest.param(["trace", "--batch", "0"], "batch_size must be an integer >= 1, got 0",
                     id="argv15-batch_size must be positive, got 0"),
        pytest.param(["sweep", "--warmup-iters", "0", "--beta-initial", "0.1", "--beta-end", "1"],
                     "t_warm must be an integer >= 1, got 0", id="argv16-t_warm must be an integer >= 1, got 0"),
        # each run of a repeated beta would overwrite the other's files
        pytest.param(["sweep", "--betas", "1,1.0"], "1.0 is listed twice in '1,1.0'",
                     id="argv17-1.0 is listed twice in '1,1.0'"),
    ])
    def test_training_commands(self, tmp_path, capsys, forbid_work, argv, message):
        command, *flags = argv
        assert_usage_error([command, "--out", str(tmp_path / "x")] + FAST_SWEEP + flags, capsys,
                           flagged(flags[0], message))
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("model", ["0,10", "8,-1"])
    def test_layer_size_error_is_the_models(self, tmp_path, capsys, forbid_work, command, model):
        # --model checks its sizes by MlpModel.init's rule, so both give one message
        with pytest.raises(ValueError) as exc:
            MlpModel.init((2, *map(int, model.split(","))), seed=0)
        argv = [command, "--out", str(tmp_path / "x")] + FAST_SWEEP + ["--model", model]
        assert_usage_error(argv, capsys, f"argument --model: {exc.value}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("model", ["", ",", "8,x", "8.5"], ids=["empty", "comma", "8,x", "8.5"])
    def test_model_that_is_no_size_list_is_usage_error(self, tmp_path, capsys, forbid_work, model):
        assert_usage_error(["sweep", "--out", str(tmp_path / "x")] + FAST_SWEEP + ["--model", model], capsys,
                           f"argument --model: expected comma-separated layer sizes, got {model!r}")

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("per_class", ["1", "4"])
    def test_blobs_without_a_test_point_per_class(self, tmp_path, capsys, forbid_work, command, per_class):
        # every 5th point of a class is a test point: with fewer, the test split was empty and
        # train divided by its size, a ZeroDivisionError traceback with exit 1
        argv = [command, "--out", str(tmp_path / "x")] + FAST_SWEEP + ["--blob-per-class", per_class, "--batch", "4"]
        assert_usage_error(argv, capsys, f"argument --blob-per-class: n_per_class must be an integer >= 5, "
                                         f"got {per_class}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("sigma, radius", [("1e308", "1.0"), ("1e307", "1.79e308")])
    def test_blobs_beyond_the_float64_range(self, tmp_path, capsys, forbid_work, command, sigma, radius):
        # points that overflowed to inf gave a numpy RuntimeWarning, then a traceback with exit 1
        argv = [command, "--out", str(tmp_path / "x")] + FAST_SWEEP + ["--blob-sigma", sigma, "--blob-radius", radius]
        assert_usage_error(argv, capsys, f"argument --blob-sigma: sigma {float(sigma)!r} at radius {float(radius)!r} "
                                         f"puts blob points beyond the float64 range")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="argv0-seed must be non-negative, got -1"),  # a reworded message keeps its old id
        (["warmup-demo", "--warmup-iters", "0"], "t_warm must be an integer >= 1, got 0"),
        (["warmup-demo", "--beta-end", "nan"], "beta_end must be a positive finite real, got nan"),
    ])
    def test_other_commands(self, capsys, forbid_work, argv, message):
        assert assert_usage_error(argv, capsys, flagged(argv[1], message)) == ""

    @pytest.mark.parametrize("content", [b"garbage", b"", b"PK\x03\x04truncated"])
    def test_npz_that_is_not_an_archive(self, tmp_path, capsys, forbid_work, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        assert_usage_error(["calib", "--logits", str(path), "--fit-temperature"], capsys, f"{path}: ")

    @pytest.mark.parametrize("save", [lambda f: np.savez(f, x=np.zeros((3, 2))), lambda f: np.save(f, np.zeros(3))],
                             ids=["other_names", "npy_content"])
    def test_npz_without_the_named_arrays(self, tmp_path, capsys, save):
        path = tmp_path / "other.npz"
        with open(path, "wb") as f:
            save(f)
        assert_usage_error(["calib", "--logits", str(path)], capsys,
                           f"{path}: expected arrays named 'logits' and 'labels'")


class TestUnwritableOutputPaths:
    """An output path that cannot be written exits 2 naming its flag, before any data is read, creating nothing."""

    @pytest.mark.parametrize("argv, flag, message", [
        (["verify", "--trials", "1", "--betas", "1", "--out", "nodir/x.jsonl"], "--out",
         "cannot write nodir/x.jsonl: nodir is not a directory"),
        (["verify", "--out", "."], "--out", "cannot write .: it is a directory"),
        (["sweep", "--epochs", "1", "--out", "afile"], "--out", "cannot write afile: afile is not a directory"),
        (["sweep", "--out", "afile/sub"], "--out", "cannot write afile/sub: afile is not a directory"),
        (["trace", "--epochs", "1", "--out", "afile"], "--out", "cannot write afile: afile is not a directory"),
        (["calib", "--logits", "l.csv", "--fit-temperature", "--out", "nodir/c.json"], "--out",
         "cannot write nodir/c.json: nodir is not a directory"),
        (["calib", "--logits", "l.csv", "--reliability-out", "nodir/r.csv"], "--reliability-out",
         "cannot write nodir/r.csv: nodir is not a directory"),
        (["calib", "--logits", "l.csv", "--out", "c.json", "--reliability-out", "afile/r.csv"], "--reliability-out",
         "cannot write afile/r.csv: afile is not a directory"),
        # the reliability CSV would replace the JSON report
        (["calib", "--logits", "l.csv", "--out", "c.json", "--reliability-out", "c.json"], "--reliability-out",
         "c.json is also the --out file"),
        (["calib", "--logits", "l.csv", "--out", "c.json", "--reliability-out", "./c.json"], "--reliability-out",
         "./c.json is also the --out file"),
        # either report would replace the logits it was made from
        (["calib", "--logits", "afile", "--out", "afile"], "--out", "afile is also the --logits file"),
        (["calib", "--logits", "afile", "--reliability-out", "./afile"], "--reliability-out",
         "./afile is also the --logits file"),
    ], ids=["verify_missing_dir", "verify_dir", "sweep_file", "sweep_under_file", "trace_file",
            "calib_missing_dir", "calib_reliability_missing_dir", "calib_reliability_under_file",
            "calib_reliability_is_out", "calib_reliability_resolves_to_out",
            "calib_out_is_logits", "calib_reliability_resolves_to_logits"])
    def test_is_usage_error_before_work(self, tmp_path, capsys, monkeypatch, forbid_work, argv, flag, message):
        monkeypatch.chdir(tmp_path)
        for loader in ("_load_datasets", "_load_logits_file"):
            monkeypatch.setattr(cli, loader, no_work)
        (tmp_path / "afile").write_text("kept\n")
        assert assert_usage_error(argv, capsys, f"argument {flag}: {message}") == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestFailedWrites:
    """A write that fails after its path passed the checks exits 2 with one stderr line naming flag and path."""

    @staticmethod
    def assert_one_line(argv, capsys, flag, path):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            f"gradient-decay: error: argument {flag}: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, on which every write fails")
    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--trials", "3", "--betas", "1", "--out"], "--out"),
        (["calib", "--logits", "l.npz", "--out"], "--out"),
        (["calib", "--logits", "l.npz", "--reliability-out"], "--reliability-out"),
    ], ids=["verify", "calib", "calib_reliability"])
    def test_on_a_full_device(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        np.savez("l.npz", logits=rng.normal(0, 1, (30, 4)), labels=rng.integers(0, 4, 30))
        self.assert_one_line(argv + ["/dev/full"], capsys, flag, "/dev/full")

    @pytest.mark.parametrize("argv, fails_on, left", [
        (["sweep", "--betas", "1,0.1"], "reliability_beta_0.1.csv",
         ["conftable_beta_1.0.csv", "metrics_beta_0.1.csv", "metrics_beta_1.0.csv", "reliability_beta_1.0.csv"]),
        (["trace", "--beta", "1"], "trace.csv", ["metrics.csv"]),
    ], ids=["sweep", "trace"])
    def test_on_a_csv(self, tmp_path, capsys, monkeypatch, argv, fails_on, left):
        def open_or_fail(path, *args, **kwargs):
            if Path(path).name == fails_on:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_or_fail, raising=False)
        out = tmp_path / "out"
        self.assert_one_line(argv + FAST_SWEEP + ["--out", str(out)], capsys, "--out", out / fails_on)
        assert sorted(p.name for p in out.iterdir()) == left  # no summary.csv: it is written last


# One valid invocation per subcommand; each contract case replaces one of its
# flags with a bad value.  VALID_ZERO lists the flags for which 0 is allowed.
_FAST = {flag[2:]: value for flag, value in zip(FAST_SWEEP[::2], FAST_SWEEP[1::2])}
_BASE = {
    "verify": {},
    "sweep": {**_FAST, "betas": "1", "beta-initial": "0.01", "beta-end": "0.1", "warmup-iters": "20"},
    "trace": {**_FAST, "beta": "1", "groups": "4"},
    "calib": {"fit-temperature": "true"},
    "warmup-demo": {},
}
_TRAIN_FLAGS = ("tau", "lr", "momentum", "weight-decay", "epochs", "batch", "seed",
                "blob-classes", "blob-per-class", "blob-sigma", "blob-radius", "blob-seed",
                "dataset", "model")
_FLAGS = {
    "verify": ("betas", "trials", "seed"),
    "sweep": ("betas", "beta-initial", "beta-end", "warmup-iters", "bins") + _TRAIN_FLAGS,
    "trace": ("beta", "groups") + _TRAIN_FLAGS,
    "calib": ("bins", "beta", "fit-temperature"),
    "warmup-demo": ("beta-initial", "beta-end", "warmup-iters", "points"),
}
VALID_ZERO = {"lr", "momentum", "weight-decay", "seed", "blob-seed", "fit-temperature"}
BAD_VALUES = ("0", "-1", "-2.5", "nan", "inf", "-inf", "abc", "")
CONTRACT_CASES = [(command, flag, value) for command in sorted(_FLAGS) for flag in _FLAGS[command]
                  for value in BAD_VALUES if not (value == "0" and flag in VALID_ZERO)]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(0)
    np.savetxt(d / "logits.csv", np.column_stack([rng.normal(0, 2, (40, 3)), rng.integers(0, 3, 40)]),
               delimiter=",")
    return d


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CONTRACT_CASES), route=st.sampled_from(["--flag=value", "--flag value", "config"]))
def test_bad_value_is_usage_error_before_any_work(contract_dir, forbid_work, case, route):
    """Any flag of any subcommand, given a bad value as a flag or a config line, exits 2 before work."""
    command, flag, value = case
    args = dict(_BASE[command])
    args.pop(flag, None)
    argv = [command] + [tok for k, v in args.items() for tok in (f"--{k}", v)]
    argv += {"sweep": ["--out", str(contract_dir / "out")], "trace": ["--out", str(contract_dir / "out")],
             "calib": ["--logits", str(contract_dir / "logits.csv")]}.get(command, [])
    if route == "config":
        cfg = contract_dir / "bad.cfg"
        cfg.write_text(f"{flag.replace('-', '_')} = {value}\n")
        argv += ["--config", str(cfg)]
    elif route == "--flag value":
        argv += [f"--{flag}", value]
    else:
        argv += [f"--{flag}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(argv)
    assert exc.value.code == 2, (argv, err.getvalue())
    assert "error: " in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""
    assert not (contract_dir / "out").exists()


# options that take a path, whose bad values the contract above cannot draw from BAD_VALUES
_PATH_FLAGS = {"out", "mnist-dir", "logits", "reliability-out", "config"}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_contract_covers_every_value_flag(command):
    """A new flag joins _FLAGS, so the contract above draws bad values for it too."""
    options = {a.option_strings[0][2:] for a in subcommand_parsers()[command]._actions
               if a.option_strings and a.nargs != 0}
    assert set(_FLAGS[command]) == options - _PATH_FLAGS


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "step", "1e-4"), ("verify", "rel-tol", "1e-7"),
    ("sweep", "blob-dim", "3"), ("trace", "blob-dim", "3"),
])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_removed_flags_are_unrecognized(tmp_path, capsys, forbid_work, command, flag, value, route):
    """The finite-difference step and tolerance are constants of verify, and blobs are planar."""
    argv = [command] + (["--out", str(tmp_path / "out")] + FAST_SWEEP if command != "verify" else [])
    if route == "config":
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"{flag.replace('-', '_')} = {value}\n")
        argv += ["--config", str(cfg)]
        token = f"--{flag}={value}"
    else:
        argv += [f"--{flag}", value]
        token = f"--{flag} {value}"
    assert assert_usage_error(argv, capsys, f"unrecognized arguments: {token}") == ""
    assert not (tmp_path / "out").exists()
