"""Command-line front end.

Subcommands: verify (analytic property suite), sweep (train one model per
beta and report accuracy/calibration), trace (per-sample confidence traces
with difficulty groups), calib (calibration report for stored logits) and
warmup-demo (print the warm-up schedule).

All outputs are timestamp-free CSV/JSON, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 property or assertion
failure, 2 usage error.

An optional --config FILE holds flat ``key = value`` lines (keys are the
long flag names); explicit flags override the file, which overrides the
built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from gradient_decay.calibration import (
    PredictionSet,
    bin_reliability,
    calibration_report,
    confidence_table,
    fit_temperature,
    write_reliability_csv,
)
from gradient_decay.datasets import BlobsConfig, load_mnist_idx, make_blobs, mnist_paths
from gradient_decay.loss import LossParams, beta_ce_batch  # noqa: F401  (bench/spans.py wraps this binding)
from gradient_decay.mlp import (
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    difficulty_groups,
    train,
    write_metrics_csv,
    write_trace_csv,
)
from gradient_decay.schedule import Granularity, WarmupSchedule
from gradient_decay.verify import DEFAULT_BETAS, FdConfig, verify_all

__all__ = ["main", "entry", "build_parser"]


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in str(text).split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated layer sizes, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"layer sizes must be positive, got {text!r}")
    return dims


_CONVERTERS = {
    "betas": _float_list,
    "model": _dims,
    "trials": int,
    "epochs": int,
    "batch": int,
    "seed": int,
    "bins": int,
    "warmup_iters": int,
    "points": int,
    "groups": int,
    "blob_classes": int,
    "blob_dim": int,
    "blob_per_class": int,
    "blob_seed": int,
    "step": float,
    "rel_tol": float,
    "beta": float,
    "beta_initial": float,
    "beta_end": float,
    "tau": float,
    "lr": float,
    "momentum": float,
    "weight_decay": float,
    "clip_norm": float,
    "blob_sigma": float,
    "blob_radius": float,
    "fit_temperature": lambda v: str(v).lower() in ("1", "true", "yes"),
}


def _load_config(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        values[key] = _CONVERTERS.get(key, str)(val)
    return values


def _resolve(args: argparse.Namespace, defaults: dict, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Built-in defaults <- config file <- explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            overrides = _load_config(config_path)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        unknown = set(overrides) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update(overrides)
    for key in defaults:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    for key, val in merged.items():
        setattr(args, key, val)
    return args


def _check_betas(args, parser) -> None:
    if not args.betas or not all(math.isfinite(b) and b > 0 for b in args.betas):
        parser.error("--betas must all be positive finite reals")


def _check_bins(args, parser) -> None:
    if args.bins < 1:
        parser.error(f"--bins must be at least 1, got {args.bins}")


def _beta_tag(beta) -> str:
    return "warmup" if beta == "warmup" else repr(float(beta))


# ---------------------------------------------------------------- datasets


_TRAIN_DEFAULTS = {
    "dataset": "blobs",
    "mnist_dir": "data/mnist",
    "model": (50, 20, 10),
    "tau": 1.0,
    "lr": 1e-3,
    "momentum": 0.9,
    "weight_decay": 1e-4,
    "epochs": 100,
    "batch": 100,
    "seed": 0,
    "clip_norm": None,
    "bins": 10,
    "blob_classes": 10,
    "blob_dim": 2,
    "blob_per_class": 100,
    "blob_sigma": 0.3,
    "blob_radius": 1.0,
    "blob_seed": None,
}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    S = argparse.SUPPRESS
    p.add_argument("--dataset", choices=("blobs", "mnist"), default=S)
    p.add_argument("--mnist-dir", default=S, help="directory holding the four MNIST IDX files")
    p.add_argument("--model", type=_dims, default=S, help='layer sizes after the input, e.g. "50,20,10"')
    p.add_argument("--tau", type=float, default=S)
    p.add_argument("--lr", type=float, default=S)
    p.add_argument("--momentum", type=float, default=S)
    p.add_argument("--weight-decay", type=float, default=S)
    p.add_argument("--epochs", type=int, default=S)
    p.add_argument("--batch", type=int, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--clip-norm", type=float, default=S)
    p.add_argument("--bins", type=int, default=S)
    p.add_argument("--blob-classes", type=int, default=S)
    p.add_argument("--blob-dim", type=int, default=S)
    p.add_argument("--blob-per-class", type=int, default=S)
    p.add_argument("--blob-sigma", type=float, default=S)
    p.add_argument("--blob-radius", type=float, default=S)
    p.add_argument("--blob-seed", type=int, default=S, help="dataset seed (defaults to --seed)")
    p.add_argument("--config", default=None, help="flat key = value defaults file")
    p.add_argument("--out", required=True, help="output directory")


def _load_datasets(args, parser):
    if args.dataset == "blobs":
        cfg = BlobsConfig(
            classes=args.blob_classes,
            dim=args.blob_dim,
            n_per_class=args.blob_per_class,
            sigma=args.blob_sigma,
            radius=args.blob_radius,
            seed=args.seed if args.blob_seed is None else args.blob_seed,
        )
        return make_blobs(cfg)
    try:
        ti, tl, vi, vl = mnist_paths(args.mnist_dir)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    return load_mnist_idx(ti, tl, "train"), load_mnist_idx(vi, vl, "test")


def _model_dims(args, train_set, parser) -> tuple[int, ...]:
    dims = (train_set.dim,) + tuple(args.model)
    classes = int(max(train_set.labels.max(), 0)) + 1
    if dims[-1] != classes:
        parser.error(f"model output size {dims[-1]} does not match {classes} classes")
    return dims


def _train_config(args, train_set, parser) -> TrainConfig:
    if args.batch > train_set.n:
        parser.error(f"--batch {args.batch} exceeds the {train_set.n} training samples")
    try:
        return TrainConfig(
            lr=args.lr,
            momentum=args.momentum,
            weight_decay=args.weight_decay,
            batch_size=args.batch,
            epochs=args.epochs,
            clip_norm=args.clip_norm,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _warmup_from_args(args) -> WarmupSchedule | None:
    given = [v is not None for v in (args.beta_initial, args.beta_end, args.warmup_iters)]
    if not any(given):
        return None
    if not all(given):
        raise ValueError("--beta-initial, --beta-end and --warmup-iters must be given together")
    gran = Granularity.PER_EPOCH if args.warmup_granularity == "epoch" else Granularity.PER_ITERATION
    return WarmupSchedule(args.beta_initial, args.beta_end, args.warmup_iters, gran)


# ---------------------------------------------------------------- commands


def cmd_verify(args, parser) -> int:
    _resolve(args, {
        "betas": list(DEFAULT_BETAS),
        "trials": 200,
        "step": 1e-5,
        "rel_tol": 1e-6,
        "seed": 20240811,
    }, parser)
    _check_betas(args, parser)
    try:
        fd = FdConfig(step=args.step, rel_tol=args.rel_tol, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    report = verify_all(fd, args.betas)
    text = report.to_json_lines() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not report.all_pass:
        failing = ", ".join(sorted({c.property for c in report.failures()}))
        print(f"FAILED properties: {failing}", file=sys.stderr)
        return 1
    return 0


def _evaluate_run(result, test_set, bins):
    """Summary metrics plus report objects for one trained model.

    Everything comes from the run's last-epoch evaluation, which saw the
    final parameters.
    """
    last = result.metrics[-1]
    pred = PredictionSet.from_logits(result.test_logits, test_set.labels)
    report = calibration_report(pred, bins=bins)
    return {
        "top1_acc": last.test_acc,
        "train_acc": last.train_acc,
        "ece": report.ece,
        "mce": report.mce,
        "mean_conf": float(pred.confidences.mean()),
        "report": report,
        "train_conf_table": confidence_table(result.train_p_true),
    }


def _diverged(exc: TrainingDiverged) -> str:
    return f"diverged:epoch={exc.epoch},batch={exc.batch}"


def _write_conftable_csv(path, counts) -> None:
    intervals = ["p<=0.2", "0.2<p<=0.4", "0.4<p<=0.6", "0.6<p<=0.8", "0.8<p<=1"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["interval", "count"])
        for name, count in zip(intervals, counts):
            w.writerow([name, int(count)])


def cmd_sweep(args, parser) -> int:
    defaults = dict(_TRAIN_DEFAULTS)
    defaults.update({
        "betas": [1.0],
        "beta_initial": None,
        "beta_end": None,
        "warmup_iters": None,
        "warmup_granularity": "iteration",
    })
    _resolve(args, defaults, parser)
    _check_betas(args, parser)
    _check_bins(args, parser)
    try:
        warmup = _warmup_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))

    train_set, test_set = _load_datasets(args, parser)
    dims = _model_dims(args, train_set, parser)
    cfg = _train_config(args, train_set, parser)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs: list[tuple[object, LossParams, WarmupSchedule | None]] = [
        (b, LossParams(beta=b, tau=args.tau), None) for b in args.betas
    ]
    if warmup is not None:
        runs.append(("warmup", LossParams(beta=warmup.beta_initial, tau=args.tau), warmup))

    rows = []
    for beta_key, params, sched in runs:
        tag = _beta_tag(beta_key)
        model = MlpModel.init(dims, seed=args.seed)
        try:
            result = train(model, train_set, cfg, params,
                           warmup=sched, test_set=test_set, trace=False)
        except TrainingDiverged as exc:
            rows.append([tag, "", "", "", "", "", _diverged(exc)])
            continue
        ev = _evaluate_run(result, test_set, args.bins)
        write_metrics_csv(out / f"metrics_beta_{tag}.csv", result.metrics)
        write_reliability_csv(out / f"reliability_beta_{tag}.csv", list(ev["report"].bins))
        _write_conftable_csv(out / f"conftable_beta_{tag}.csv", ev["train_conf_table"])
        rows.append([tag, repr(ev["top1_acc"]), repr(ev["train_acc"]),
                     repr(ev["ece"]), repr(ev["mce"]), repr(ev["mean_conf"]), "ok"])

    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["beta", "top1_acc", "train_acc", "ece", "mce", "mean_conf", "status"])
        w.writerows(rows)
    return 0


def cmd_trace(args, parser) -> int:
    defaults = dict(_TRAIN_DEFAULTS)
    defaults.update({"beta": 1.0, "groups": 5})
    _resolve(args, defaults, parser)
    train_set, test_set = _load_datasets(args, parser)
    dims = _model_dims(args, train_set, parser)
    cfg = _train_config(args, train_set, parser)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = MlpModel.init(dims, seed=args.seed)
    params = LossParams(beta=args.beta, tau=args.tau)
    try:
        result = train(model, train_set, cfg, params, test_set=test_set, trace=True)
    except TrainingDiverged as exc:
        print(_diverged(exc), file=sys.stderr)
        return 2
    groups = difficulty_groups(result.traces, k=args.groups)

    write_metrics_csv(out / "metrics.csv", result.metrics)
    write_trace_csv(out / "trace.csv", result.traces)
    with open(out / "group_means.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "group", "mean_conf"])
        for epoch in range(result.traces.epochs):
            for g in range(args.groups):
                w.writerow([epoch, g + 1, repr(float(groups.group_means[g, epoch]))])
    return 0


def _load_logits_file(path, parser):
    """(logits, int64 labels) from a CSV or .npz file; a usage error if either is unusable."""
    p = Path(path)
    if not p.exists():
        parser.error(f"logits file not found: {p}")
    if p.suffix == ".npz":
        data = np.load(p)
        if "logits" not in data or "labels" not in data:
            parser.error(f"{p}: expected arrays named 'logits' and 'labels'")
        logits, labels = np.asarray(data["logits"], dtype=np.float64), np.asarray(data["labels"])
    else:
        try:
            raw = np.loadtxt(p, delimiter=",", ndmin=2)
        except ValueError as exc:
            parser.error(f"{p}: {exc}")
        if raw.shape[1] < 3:
            parser.error(f"{p}: need at least two logit columns plus a label column")
        logits, labels = raw[:, :-1], raw[:, -1]
    if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2 or labels.shape != logits.shape[:1]:
        parser.error(f"{p}: need a non-empty (n, m) logit matrix, m >= 2, and one label per row")
    if not np.all(np.isfinite(logits)):
        parser.error(f"{p}: logits must be finite")
    m = logits.shape[1]
    if not np.all((labels >= 0) & (labels < m) & (labels == np.floor(labels))):
        parser.error(f"{p}: labels must be whole numbers in [0, {m})")
    return logits, labels.astype(np.int64)


def cmd_calib(args, parser) -> int:
    _resolve(args, {
        "bins": 10,
        "beta": None,
        "fit_temperature": False,
    }, parser)
    _check_bins(args, parser)
    logits, labels = _load_logits_file(args.logits, parser)
    pred = PredictionSet.from_logits(logits, labels)
    report = calibration_report(pred, bins=args.bins)
    payload = {
        "beta": args.beta,
        "ece": report.ece,
        "mce": report.mce,
        "mean_conf": float(pred.confidences.mean()),
        "interval_counts": list(report.interval_counts),
    }
    if args.fit_temperature:
        try:
            tau = fit_temperature(logits, labels)
        except ValueError as exc:  # one row, or a single class present
            parser.error(f"{args.logits}: {exc}")
        scaled = PredictionSet.from_logits(logits, labels, tau=tau)
        scaled_report = calibration_report(scaled, bins=args.bins)
        payload["tau_star"] = tau
        payload["ece_scaled"] = scaled_report.ece
        payload["mce_scaled"] = scaled_report.mce
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.reliability_out:
        write_reliability_csv(args.reliability_out, bin_reliability(pred, args.bins))
    return 0


def cmd_warmup_demo(args, parser) -> int:
    _resolve(args, {
        "beta_initial": 0.1,
        "beta_end": 1.0,
        "warmup_iters": 1000,
        "points": 11,
    }, parser)
    if args.points < 2:
        parser.error("--points must be at least 2")
    sched = WarmupSchedule(args.beta_initial, args.beta_end, args.warmup_iters)
    print("t,beta")
    for i in range(args.points):
        t = round(i * args.warmup_iters / (args.points - 1))
        print(f"{t},{sched.beta_at(t)!r}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradient-decay",
        description="Gradient-decay softmax: verification and desk-scale experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("verify", help="run the analytic property suite")
    p.add_argument("--betas", type=_float_list, default=S)
    p.add_argument("--trials", type=int, default=S)
    p.add_argument("--step", type=float, default=S)
    p.add_argument("--rel-tol", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--out", default=None, help="write the JSON-lines report here instead of stdout")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="train one model per beta, report accuracy and calibration")
    p.add_argument("--betas", type=_float_list, default=S)
    p.add_argument("--beta-initial", type=float, default=S)
    p.add_argument("--beta-end", type=float, default=S)
    p.add_argument("--warmup-iters", type=int, default=S)
    p.add_argument("--warmup-granularity", choices=("iteration", "epoch"), default=S)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="record per-sample confidence traces and difficulty groups")
    p.add_argument("--beta", type=float, default=S)
    p.add_argument("--groups", type=int, default=S)
    _add_train_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("calib", help="calibration report for a stored logits file")
    p.add_argument("--logits", required=True, help="CSV (logit columns + final label column) or .npz")
    p.add_argument("--bins", type=int, default=S)
    p.add_argument("--beta", type=float, default=S, help="annotate the report with this beta")
    p.add_argument("--fit-temperature", action="store_true", default=S)
    p.add_argument("--out", default=None)
    p.add_argument("--reliability-out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("warmup-demo", help="print the t -> beta warm-up table")
    p.add_argument("--beta-initial", type=float, default=S)
    p.add_argument("--beta-end", type=float, default=S)
    p.add_argument("--warmup-iters", type=int, default=S)
    p.add_argument("--points", type=int, default=S)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_warmup_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


def entry() -> None:
    sys.exit(main())
