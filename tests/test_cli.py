"""CLI behavior: exit codes, file schemas, reproducibility."""

import json

import numpy as np
import pytest

from gradient_decay.cli import main

FAST_SWEEP = [
    "--dataset", "blobs", "--epochs", "3", "--lr", "0.05", "--batch", "50",
    "--blob-per-class", "20", "--blob-classes", "4", "--model", "8,4",
]


def run(argv):
    return main(argv)


def assert_usage_error(argv, capsys, message):
    """argv exits 2 with `message` on stderr and no traceback."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " + message in err
    assert "Traceback" not in err


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
        (["--trials", "0"], "trials must be a positive integer, got 0"),
        (["--betas", "nan"], "--betas must all be positive finite reals"),
        (["--betas", "1,inf"], "--betas must all be positive finite reals"),
    ])
    def test_invalid_values_are_usage_errors(self, capsys, flags, message):
        assert_usage_error(["verify"] + flags, capsys, message)

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_overtight_tolerance_exits_one(self, capsys):
        assert run(["verify", "--trials", "10", "--betas", "1", "--rel-tol", "1e-14"]) == 1
        err = capsys.readouterr().err
        assert "fd_gradient_agreement" in err

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.jsonl"
        assert run(["verify", "--trials", "5", "--betas", "1", "--out", str(out)]) == 0
        assert out.exists()
        for line in out.read_text().strip().splitlines():
            assert set(json.loads(line)) == {"property", "beta", "tolerance", "worst_error", "pass"}


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


    def test_diverging_lr_is_one_line_and_exit_two(self, tmp_path, capsys):
        out = tmp_path / "trace"
        assert run(["trace", "--lr", "1e6", "--epochs", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "diverged:epoch=0,batch=5\n"


class TestCalibCommand:
    def _logits_csv(self, tmp_path):
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
                           f"{path}: logits must be finite")

    def test_non_finite_npz_logit_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (30, 4))
        logits[0, 0] = np.nan
        path = tmp_path / "logits.npz"
        np.savez(path, logits=logits, labels=rng.integers(0, 4, 30))
        assert_usage_error(["calib", "--logits", str(path)], capsys, f"{path}: logits must be finite")

    @pytest.mark.parametrize("bad", [5, -1, 1.5])
    def test_label_outside_the_columns_is_usage_error(self, tmp_path, capsys, bad):
        path, logits, labels = self._logits_csv(tmp_path)
        labels = labels.astype(np.float64)
        labels[3] = bad
        np.savetxt(path, np.column_stack([logits, labels]), delimiter=",")
        assert_usage_error(["calib", "--logits", str(path)], capsys,
                           f"{path}: labels must be whole numbers in [0, 5)")

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


class TestWarmupDemoCommand:
    def test_table_contains_spec_rows(self, capsys):
        assert run(["warmup-demo", "--beta-initial", "0.1", "--beta-end", "1.0",
                    "--warmup-iters", "1000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,beta"
        assert "0,0.1" in out
        assert "500,0.55" in out
        assert "1000,1.0" in out


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
