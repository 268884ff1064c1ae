"""Command-line front end.

Subcommands: verify (analytic property suite), sweep (train one model per
beta and report accuracy/calibration), trace (per-sample confidence traces
with difficulty groups), calib (calibration report for stored logits) and
warmup-demo (print the warm-up schedule).

All outputs are timestamp-free CSV/JSON, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 property or assertion
failure, 2 usage error.

An optional --config FILE holds flat ``key = value`` lines ('#' starts a
comment).  A line ``key = value`` is exactly the flag ``--key=value`` (a
``_`` in the key reads as ``-``), parsed by the same parser as the command
line, so it gets the same type and choice checks; explicit flags win over
the file.  Flags, and so config keys, must name an option in full: they are
not matched by prefix.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import csv
import gc
import json
import math
import re
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np

from gradient_decay.calibration import (
    THRESHOLDS,
    PredictionSet,
    bin_reliability,  # noqa: F401  (bench/spans.py wraps this binding)
    calibration_report,
    confidence_table,
    fit_temperature,
)
from gradient_decay.datasets import BlobsConfig, IdxFormatError, load_mnist_idx, make_blobs, mnist_paths
from gradient_decay.loss import (
    LossParams,
    beta_ce_batch,  # noqa: F401  (bench/spans.py wraps this binding)
    check_int,
)
from gradient_decay.mlp import (
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    check_fits,
    difficulty_groups,
    train,
)
from gradient_decay.schedule import WarmupSchedule
from gradient_decay.verify import DEFAULT_BETAS, FdConfig, verify_all

__all__ = ["main", "entry", "build_parser"]

# CPython's Py_FinalizeEx runs atexit hooks before _PyGC_CollectIfEnabled and finalize_modules, so
# on every way out of a process that imported the CLI, shutdown's collections skip the frozen objects
# of numpy, argparse and this package instead of freeing their cycles; the OS takes that memory back.
atexit.register(gc.freeze)

# confidence_table's interval labels: p<=t1, t1<p<=t2, ..., tk<p<=1 for THRESHOLDS t1..tk
_INTERVALS = [f"p<={THRESHOLDS[0]}"] + [f"{lo}<p<={hi}" for lo, hi in zip(THRESHOLDS, THRESHOLDS[1:] + (1,))]


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")
    for i, v in enumerate(values):
        if v in values[:i]:  # a run per value would repeat, and its files overwrite each other
            raise argparse.ArgumentTypeError(f"{v!r} is listed twice in {text!r}")
    return values


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in str(text).split(",") if v.strip() != "")
    except ValueError:
        dims = ()
    if not dims:
        raise argparse.ArgumentTypeError(f"expected comma-separated layer sizes, got {text!r}")
    try:
        for d in dims:
            check_int("layer size", d, 1)  # MlpModel.init's rule and message
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return dims


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _config_tokens(path: str) -> list[str]:
    """Each ``key = value`` line as the flag token ``--key=value``; '#' starts a comment."""
    tokens = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if not eq or not key:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: a config file cannot name another config file")
        tokens.append(f"--{key}={val.strip()}")
    return tokens


def _build(parser, make, flags=None, **fields):
    """make(**fields), with a ValueError turned into a usage error naming the flag.

    The first field the message names stands for its flag: ``--`` plus the
    field name with ``-`` for ``_``, unless ``flags`` maps it to another.
    """
    try:
        return make(**fields)
    except ValueError as exc:
        msg = str(exc)
        named = re.search(r"\b(" + "|".join(fields) + r")\b", msg)
        if named:
            field = named.group(1)
            msg = f"argument {(flags or {}).get(field, '--' + field.replace('_', '-'))}: {msg}"
        parser.error(msg)


def _check_bins(args, parser) -> None:
    if args.bins < 1:
        parser.error(f"--bins must be at least 1, got {args.bins}")


def _check_out(parser, flag, path, directory=False) -> None:
    """Before any work, a usage error naming flag unless path can be written.

    A file needs its parent to be a directory.  A directory is made with its
    parents, so the nearest of it and them that exists must be a directory.
    """
    p = Path(path)
    where = next(d for d in (p, *p.parents) if d.exists()) if directory else p.parent
    if not where.is_dir():
        parser.error(f"argument {flag}: cannot write {p}: {where} is not a directory")
    if not directory and p.is_dir():
        parser.error(f"argument {flag}: cannot write {p}: it is a directory")


def _beta_tag(beta) -> str:
    return "warmup" if beta == "warmup" else repr(float(beta))


# ---------------------------------------------------------------- artifacts
#
# Every file and report the commands produce is written here.  A cell that
# is not already a string or an integer is converted explicitly (repr of a
# float), because csv.writer writes str() of anything else.  A write that fails
# after _check_out exits 2 naming its flag and path, keeping what it had written.


@contextlib.contextmanager
def _writing(flag, path):
    try:
        yield
    except OSError as exc:
        print(f"gradient-decay: error: argument {flag}: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _write_csv(path, header, rows, flag="--out") -> None:
    """header then rows, in the csv module's default dialect: every row ends in CRLF."""
    with _writing(flag, path), open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _emit(text: str, out) -> None:
    """text to the file out, or to stdout without one."""
    if out:
        with _writing("--out", out):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_metrics(path, metrics) -> None:
    _write_csv(path, ["epoch", "beta", "train_loss", "train_acc", "test_acc", "mean_conf"],
               ([m.epoch, repr(m.beta), repr(m.train_loss), repr(m.train_acc), repr(m.test_acc), repr(m.mean_conf)]
                for m in metrics))


def _write_reliability(path, bins, flag="--out") -> None:
    _write_csv(path, ["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"],
               ([repr(b.lo), repr(b.hi), b.count, repr(b.mean_conf), repr(b.accuracy)] for b in bins), flag)


# ---------------------------------------------------------------- datasets


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=("blobs", "mnist"), default="blobs")
    p.add_argument("--mnist-dir", default="data/mnist", help="directory holding the four MNIST IDX files")
    p.add_argument("--model", type=_dims, default=(50, 20, 10),
                   help='layer sizes after the input, e.g. "50,20,10"')
    p.add_argument("--tau", type=float, default=LossParams.tau)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blob-classes", type=int, default=BlobsConfig.classes)
    p.add_argument("--blob-per-class", type=int, default=BlobsConfig.n_per_class,
                   help="points per class, at least 5: every 5th is a test point")
    p.add_argument("--blob-sigma", type=float, default=BlobsConfig.sigma)
    p.add_argument("--blob-radius", type=float, default=BlobsConfig.radius)
    p.add_argument("--blob-seed", type=int, help="dataset seed (defaults to --seed)")
    p.add_argument("--out", required=True, help="output directory")


def _load_datasets(args, parser):
    """(train set, test set, layer sizes) with a model shape that fits both sets, or a usage error."""
    if args.dataset == "blobs":
        seed_flag = "--seed" if args.blob_seed is None else "--blob-seed"
        train_set, test_set = _build(
            parser,
            lambda **fields: make_blobs(BlobsConfig(**fields)),
            {"classes": "--blob-classes", "n_per_class": "--blob-per-class",
             "sigma": "--blob-sigma", "radius": "--blob-radius", "seed": seed_flag},
            classes=args.blob_classes,
            n_per_class=args.blob_per_class,
            sigma=args.blob_sigma,
            radius=args.blob_radius,
            seed=args.seed if args.blob_seed is None else args.blob_seed,
        )
        test_files = "the blobs test split"
    else:
        try:
            ti, tl, vi, vl = mnist_paths(args.mnist_dir)
            train_set, test_set = load_mnist_idx(ti, tl, "train"), load_mnist_idx(vi, vl, "test")
        except (OSError, IdxFormatError) as exc:  # each names its file: missing, a directory, unreadable, malformed
            parser.error(str(exc))
        for images, data, what in ((ti, train_set, "training"), (vi, test_set, "test")):
            if data.n == 0:
                parser.error(f"{images} holds no {what} images")
        test_files = f"{vi}, {vl}"
    dims = (train_set.dim,) + tuple(args.model)
    if dims[-1] != train_set.num_classes:
        parser.error(f"model output size {dims[-1]} does not match {train_set.num_classes} classes")
    try:
        check_fits(dims, test_set)
    except ValueError as exc:
        parser.error(f"{test_files}: {exc}")
    return train_set, test_set, dims


def _train_config(args, train_set, parser) -> TrainConfig:
    if args.batch > train_set.n:
        parser.error(f"--batch {args.batch} exceeds the {train_set.n} training samples")
    return _build(
        parser,
        TrainConfig,
        {"batch_size": "--batch"},
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
    )


def _warmup(args, parser) -> WarmupSchedule:
    return _build(parser, WarmupSchedule, {"t_warm": "--warmup-iters"}, beta_initial=args.beta_initial,
                  beta_end=args.beta_end, t_warm=args.warmup_iters)


def _warmup_from_args(args, parser) -> WarmupSchedule | None:
    given = [v is not None for v in (args.beta_initial, args.beta_end, args.warmup_iters)]
    if not any(given):
        return None
    if not all(given):
        parser.error("--beta-initial, --beta-end and --warmup-iters must be given together")
    return _warmup(args, parser)


# ---------------------------------------------------------------- commands


def cmd_verify(args, parser) -> int:
    for b in args.betas:
        _build(parser, LossParams, {"beta": "--betas"}, beta=b)
    fd = _build(parser, FdConfig, trials=args.trials, seed=args.seed)
    if args.out:
        _check_out(parser, "--out", args.out)
    report = verify_all(fd, args.betas)
    # a non-finite error is written as null: JSON has no NaN or Infinity
    _emit("".join(json.dumps({"property": c.property, "beta": c.beta, "tolerance": c.tolerance,
                              "worst_error": c.worst_error if math.isfinite(c.worst_error) else None,
                              "pass": c.passed}) + "\n" for c in report.checks),
          args.out)
    if not report.all_pass:
        failing = ", ".join(sorted({c.property for c in report.failures()}))
        print(f"FAILED properties: {failing}", file=sys.stderr)
        return 1
    return 0


def _diverged(exc: TrainingDiverged) -> str:
    return f"diverged:epoch={exc.epoch},batch={exc.batch}"


def cmd_sweep(args, parser) -> int:
    _check_bins(args, parser)
    warmup = _warmup_from_args(args, parser)
    runs: list[tuple[object, LossParams, WarmupSchedule | None]] = [
        (b, _build(parser, LossParams, {"beta": "--betas"}, beta=b, tau=args.tau), None) for b in args.betas
    ]
    if warmup is not None:
        runs.append(("warmup", LossParams(beta=warmup.beta_initial, tau=args.tau), warmup))
    _check_out(parser, "--out", args.out, directory=True)
    train_set, test_set, dims = _load_datasets(args, parser)
    cfg = _train_config(args, train_set, parser)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

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
        # the last epoch's evaluation saw the final parameters; the calibration is that of softmax(z/tau)
        last = result.metrics[-1]
        report = calibration_report(PredictionSet.from_logits(result.test_logits, test_set.labels, tau=args.tau),
                                    bins=args.bins)
        _write_metrics(out / f"metrics_beta_{tag}.csv", result.metrics)
        _write_reliability(out / f"reliability_beta_{tag}.csv", report.bins)
        _write_csv(out / f"conftable_beta_{tag}.csv", ["interval", "count"],
                   ([name, int(count)] for name, count in zip(_INTERVALS, confidence_table(result.train_p_true))))
        rows.append([tag, repr(last.test_acc), repr(last.train_acc),
                     repr(report.ece), repr(report.mce), repr(report.mean_conf), "ok"])

    _write_csv(out / "summary.csv", ["beta", "top1_acc", "train_acc", "ece", "mce", "mean_conf", "status"], rows)
    return 0


def cmd_trace(args, parser) -> int:
    params = _build(parser, LossParams, beta=args.beta, tau=args.tau)
    _check_out(parser, "--out", args.out, directory=True)
    train_set, test_set, dims = _load_datasets(args, parser)
    if not 1 <= args.groups <= train_set.n:
        parser.error(f"--groups must lie between 1 and the {train_set.n} traced samples, got {args.groups}")
    cfg = _train_config(args, train_set, parser)

    model = MlpModel.init(dims, seed=args.seed)
    try:
        result = train(model, train_set, cfg, params, test_set=test_set, trace=True)
    except TrainingDiverged as exc:
        print(_diverged(exc), file=sys.stderr)
        return 2
    traces = result.traces
    groups = difficulty_groups(traces, k=args.groups)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # only once there is something to write

    _write_metrics(out / "metrics.csv", result.metrics)
    _write_csv(out / "trace.csv", ["epoch", "sample_id", "p_true", "group"],
               ([epoch, j, repr(float(p)), int(groups.assignment[j])]
                for epoch, row in enumerate(traces) for j, p in enumerate(row)))
    _write_csv(out / "group_means.csv", ["epoch", "group", "mean_conf"],
               ([epoch, g + 1, repr(float(groups.group_means[g, epoch]))]
                for epoch in range(len(traces)) for g in range(args.groups)))
    return 0


def _load_logits_file(path, parser):
    """(logits, labels, their PredictionSet) from a CSV or .npz file; a usage error if either is unusable."""
    p = Path(path)
    if not p.exists():
        parser.error(f"logits file not found: {p}")
    if p.suffix == ".npz":
        try:
            # np.load(p) would open the file itself and leak it when the archive is malformed
            with open(p, "rb") as f:
                data = np.load(f)  # allow_pickle stays off: pickled content is a ValueError
                if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy file behind an .npz name
                    parser.error(f"{p}: expected arrays named 'logits' and 'labels'")
                with data:
                    logits, labels = data["logits"], data["labels"]
        except KeyError:  # not a member of the archive
            parser.error(f"{p}: expected arrays named 'logits' and 'labels'")
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            parser.error(f"{p}: {exc}")
    else:
        try:
            with warnings.catch_warnings():  # a file without data rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                raw = np.loadtxt(p, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            parser.error(f"{p}: {exc}")
        if raw.shape[0] and raw.shape[1] < 3:
            parser.error(f"{p}: need at least two logit columns plus a label column")
        logits, labels = raw[:, :-1], raw[:, -1]
    if logits.ndim == 2 and logits.shape[0] == 0:
        parser.error(f"{p}: holds no logit rows")
    if labels.dtype.kind == "f":  # a CSV column, or float labels saved to .npz
        with np.errstate(invalid="ignore"):  # nan, inf and huge values do not survive the cast
            whole = labels.astype(np.int64)
        bad = labels[whole != labels]
        if bad.size:
            parser.error(f"{p}: labels must be whole numbers in the int64 range, got {float(bad[0])!r}")
        labels = whole
    try:
        return logits, labels, PredictionSet.from_logits(logits, labels)
    except ValueError as exc:  # check_labeled_logits
        parser.error(f"{p}: {exc}")


def cmd_calib(args, parser) -> int:
    _check_bins(args, parser)
    if args.beta is not None:
        _build(parser, LossParams, beta=args.beta)
    for flag, path in (("--out", args.out), ("--reliability-out", args.reliability_out)):
        if path:
            _check_out(parser, flag, path)
            if Path(path).resolve() == Path(args.logits).resolve():
                parser.error(f"argument {flag}: {path} is also the --logits file")
    if args.out and args.reliability_out and Path(args.out).resolve() == Path(args.reliability_out).resolve():
        parser.error(f"argument --reliability-out: {args.reliability_out} is also the --out file")
    logits, labels, pred = _load_logits_file(args.logits, parser)
    report = calibration_report(pred, bins=args.bins)
    payload = {
        "beta": args.beta,
        "ece": report.ece,
        "mce": report.mce,
        "mean_conf": report.mean_conf,
        "interval_counts": list(report.interval_counts),
    }
    del pred  # its probabilities need not live through the fit
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
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if args.reliability_out:
        _write_reliability(args.reliability_out, report.bins, "--reliability-out")
    return 0


def cmd_warmup_demo(args, parser) -> int:
    if args.points < 2:
        parser.error("--points must be at least 2")
    sched = _warmup(args, parser)
    print("t,beta")
    for i in range(args.points):
        t = round(i * args.warmup_iters / (args.points - 1))
        print(f"{t},{sched.beta_at(t)!r}")
    return 0


# ---------------------------------------------------------------- parser


def _config_parser() -> argparse.ArgumentParser:
    """Finds --config in argv; each subcommand inherits the option for its help."""
    p = argparse.ArgumentParser(prog="gradient-decay", add_help=False, allow_abbrev=False)
    p.add_argument("--config", help="file of 'key = value' lines, each read as the flag --key=value")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradient-decay",
        description="Gradient-decay softmax: verification and desk-scale experiments",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = _config_parser()

    def command(name, help):
        return sub.add_parser(name, help=help, parents=[config], allow_abbrev=False)

    p = command("verify", "run the analytic property suite")
    p.add_argument("--betas", type=_float_list, default=list(DEFAULT_BETAS))
    p.add_argument("--trials", type=int, default=FdConfig.trials)
    p.add_argument("--seed", type=int, default=FdConfig.seed)
    p.add_argument("--out", help="write the JSON-lines report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = command("sweep", "train one model per beta, report accuracy and calibration")
    p.add_argument("--betas", type=_float_list, default=[1.0])
    p.add_argument("--beta-initial", type=float)
    p.add_argument("--beta-end", type=float)
    p.add_argument("--warmup-iters", type=int)
    p.add_argument("--bins", type=int, default=10)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = command("trace", "record per-sample confidence traces and difficulty groups")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--groups", type=int, default=5)
    _add_train_flags(p)
    p.set_defaults(func=cmd_trace)

    p = command("calib", "calibration report for a stored logits file")
    p.add_argument("--logits", required=True, help="CSV (logit columns + final label column) or .npz")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--beta", type=float, help="annotate the report with this beta")
    p.add_argument("--fit-temperature", type=_bool, nargs="?", const=True, default=False)
    p.add_argument("--out")
    p.add_argument("--reliability-out")
    p.set_defaults(func=cmd_calib)

    p = command("warmup-demo", "print the t -> beta warm-up table")
    p.add_argument("--beta-initial", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=1.0)
    p.add_argument("--warmup-iters", type=int, default=1000)
    p.add_argument("--points", type=int, default=11)
    p.set_defaults(func=cmd_warmup_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    known, rest = _config_parser().parse_known_args(argv)
    if known.config is not None:
        try:
            rest[1:1] = _config_tokens(known.config)  # after the subcommand, so explicit flags win
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    args = parser.parse_args(rest)
    return args.func(args, parser)


def entry() -> None:
    sys.exit(main())
