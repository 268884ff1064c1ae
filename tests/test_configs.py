"""Each configs/*.conf recipe runs through the CLI, with overrides after the file.

The recipes take minutes at their own epoch counts (and the MNIST one needs
the IDX files), so each runs here for 2 epochs into a temporary directory;
the MNIST recipe reads tiny IDX files with a batch that fits them.  A renamed
flag, a bad value or a wrong artifact name in a recipe fails here.
"""

from pathlib import Path

import pytest

from conftest import bench_module, subcommand_parsers
from gradient_decay.cli import _config_tokens, main
from test_cli import _write_mnist

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_SWEEP_FILES = ("metrics_beta_{}.csv", "reliability_beta_{}.csv", "conftable_beta_{}.csv")

# recipe -> (subcommand, artifacts it writes)
RECIPES = {
    "blobs_calibration.conf": ("sweep", {"summary.csv"} | {
        name.format(tag) for tag in ("0.1", "1.0", "5.0", "20.0") for name in _SWEEP_FILES}),
    "confidence_trace.conf": ("trace", {"metrics.csv", "trace.csv", "group_means.csv"}),
    "mnist_sweep.conf": ("sweep", {"summary.csv"} | {
        name.format(tag) for tag in ("1.0", "0.5", "0.1", "0.01", "0.001", "warmup") for name in _SWEEP_FILES}),
}


def test_every_recipe_is_listed():
    assert sorted(p.name for p in CONFIGS.glob("*.conf")) == sorted(RECIPES)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_runs(name, tmp_path, capsys):
    command, artifacts = RECIPES[name]
    out = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / name), "--epochs", "2", "--out", str(out)]
    if name.startswith("mnist"):
        (tmp_path / "mnist").mkdir()
        _write_mnist(tmp_path / "mnist")
        argv += ["--mnist-dir", str(tmp_path / "mnist"), "--batch", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert {p.name for p in out.iterdir()} == artifacts
    if command == "sweep":
        assert all(row.endswith(",ok") for row in (out / "summary.csv").read_text().splitlines()[1:])


def test_blobs_recipe_holds_the_arguments_of_the_benchmark_sweep():
    # bench/workloads.py copies the recipe's flags, so that editing one alone fails here
    sweep = subcommand_parsers()["sweep"]
    bench = vars(sweep.parse_args([*bench_module("workloads")._BLOBS_ARGS, "--out", "x"]))
    recipe = vars(sweep.parse_args(_config_tokens(str(CONFIGS / "blobs_calibration.conf"))))
    del bench["out"], recipe["out"]
    assert bench == recipe
