"""Outside-in tracing: wrap the program's public functions where they are called.

``cli`` and ``mlp`` bind names with ``from ... import``, so a wrapper must
replace the name in the calling module (``gradient_decay.mlp.beta_ce_batch``,
``gradient_decay.cli.train``), or the attribute on the class for methods
(``MlpModel.forward``).  Spans {name, start, end, parent, run} stay in memory
and are written out when the process ends; ``layer_metrics`` derives busy and
self time from them in the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


def patch(target: str, make) -> None:
    """Replace ``module:attr`` or ``module:Class.attr`` with ``make(original)``."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def mark_first_call(target: str, marks: dict) -> None:
    """Record in ``marks["first_work"]`` the clock at the first call of target."""

    def make(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks.setdefault("first_work", clock())
            return fn(*args, **kwargs)

        return marked

    patch(target, make)


# ---------------------------------------------------------------- counters


def _count_train(counters, args, kwargs):
    # train(model, train_set, cfg, loss, warmup=None, test_set=None, trace=True)
    model, train_set, cfg = args[:3]
    test_set = kwargs.get("test_set", args[5] if len(args) > 5 else None)
    dims = model.layer_dims
    macs = [fan_in * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    # per trained row: forward, weight gradients, and deltas below the top layer
    train_flop = 2 * (2 * sum(macs) + sum(macs[1:]))
    eval_rows = train_set.n + (test_set.n if test_set is not None else 0)
    counters["mlp.train.steps"] += cfg.epochs * math.ceil(train_set.n / cfg.batch_size)
    counters["mlp.train.rows"] += cfg.epochs * train_set.n
    counters["mlp.train.flop"] += cfg.epochs * (train_set.n * train_flop + eval_rows * 2 * sum(macs))


def _count_forward_rows(counters, args, kwargs):
    shape = np.shape(args[1])  # forward(self, x)
    counters["mlp.forward.rows"] += shape[0] if len(shape) == 2 else 1


def _count_batch_rows(counters, args, kwargs):
    counters["loss.beta_ce_batch.rows"] += np.shape(args[0])[0]


def _count_idx_bytes(counters, args, kwargs):
    counters["datasets.load_mnist_idx.bytes_in"] += os.path.getsize(args[0]) + os.path.getsize(args[1])


def _count_properties(counters, report):
    counters["verify.properties"] += len(report.checks)
    counters["verify.properties_failed"] += len(report.failures())


# (binding, span name, counter before the call, counter on the result)
TARGETS = (
    ("gradient_decay.cli:main", "cli.main", None, None),
    ("gradient_decay.cli:train", "mlp.train", _count_train, None),
    ("gradient_decay.mlp:MlpModel.forward", "mlp.forward", _count_forward_rows, None),
    ("gradient_decay.mlp:MlpModel.init", "mlp.init", None, None),
    ("gradient_decay.mlp:beta_ce_batch", "loss.beta_ce_batch", _count_batch_rows, None),
    ("gradient_decay.cli:beta_ce_batch", "loss.beta_ce_batch", _count_batch_rows, None),
    ("gradient_decay.verify:beta_ce_eval", "loss.beta_ce_eval", None, None),
    ("gradient_decay.verify:beta_ce_loss", "loss.beta_ce_loss", None, None),
    ("gradient_decay.verify:gradient_magnitude", "loss.curvature", None, None),
    ("gradient_decay.verify:magnitude_derivatives", "loss.curvature", None, None),
    ("gradient_decay.verify:logit_curvature", "loss.curvature", None, None),
    ("gradient_decay.cli:verify_all", "verify.verify_all", None, _count_properties),
    ("gradient_decay.verify:central_diff_grad", "verify.central_diff_grad", None, None),
    ("gradient_decay.verify:grid_scan_extremum", "verify.grid_scan_extremum", None, None),
    ("gradient_decay.schedule:WarmupSchedule.beta_at", "schedule.beta_at", None, None),
    ("gradient_decay.cli:load_mnist_idx", "datasets.load_mnist_idx", _count_idx_bytes, None),
    ("gradient_decay.cli:make_blobs", "datasets.make_blobs", None, None),
    ("gradient_decay.cli:fit_temperature", "calibration.fit_temperature", None, None),
    ("gradient_decay.cli:calibration_report", "calibration.calibration_report", None, None),
    ("gradient_decay.calibration:PredictionSet.from_logits", "calibration.from_logits", None, None),
    ("gradient_decay.calibration:bin_reliability", "calibration.bin_reliability", None, None),
    ("gradient_decay.cli:bin_reliability", "calibration.bin_reliability", None, None),
)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, counters, run_id = self.spans, self._stack, self.counters, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name, start, end, parent, run_id)
            if after is not None:
                after(counters, result)
            return result

        return traced

    def install(self) -> None:
        for target, name, before, after in TARGETS:
            patch(target, lambda fn, name=name, before=before, after=after: self.wrap(name, fn, before, after))

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters}, f)


# ---------------------------------------------------------------- derivation


class TraceError(ValueError):
    """A span lies outside its parent: the trace is not a tree."""


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    busy_s is the total time inside a layer's spans; self_s subtracts the time
    covered by traced spans nested directly inside them.  Counts are exact.
    """
    spans, counters = trace["spans"], Counter(trace["counters"])
    busy: defaultdict = defaultdict(float)
    nested: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    batch_us = []
    for name, start, end, parent, _run in spans:
        busy[name] += end - start
        calls[name] += 1
        if name == "loss.beta_ce_batch":
            batch_us.append((end - start) * 1e6)
        if parent >= 0:
            p_name, p_start, p_end = spans[parent][:3]
            if not (p_start <= start and end <= p_end):
                raise TraceError(f"{name} span is not inside its parent {p_name}")
            nested[p_name] += end - start
    self_s = {name: busy[name] - nested[name] for name in busy}

    steps = counters["mlp.train.steps"]
    gflop = counters["mlp.train.flop"] / 1e9
    batch = np.percentile(batch_us, [50, 99]) if batch_us else (0.0, 0.0)
    trained = counters["mlp.train.rows"]
    return {
        "mlp.train.calls": calls["mlp.train"],
        "mlp.train.steps": steps,
        "mlp.train.busy_s": busy["mlp.train"],
        "mlp.train.self_s": self_s.get("mlp.train", 0.0),
        "mlp.train.step_us_self": self_s["mlp.train"] / steps * 1e6 if steps else 0.0,
        "mlp.train.gflop": gflop,
        "mlp.train.gflop_per_s": gflop / busy["mlp.train"] if calls["mlp.train"] else 0.0,
        "mlp.forward.calls": calls["mlp.forward"],
        "mlp.forward.rows": counters["mlp.forward.rows"],
        "mlp.forward.busy_s": busy["mlp.forward"],
        "loss.beta_ce_batch.calls": calls["loss.beta_ce_batch"],
        "loss.beta_ce_batch.rows": counters["loss.beta_ce_batch.rows"],
        "loss.beta_ce_batch.busy_s": busy["loss.beta_ce_batch"],
        "loss.beta_ce_batch.call_us_p50": float(batch[0]),
        "loss.beta_ce_batch.call_us_p99": float(batch[1]),
        "loss.beta_ce_batch.rows_per_trained_row": (
            counters["loss.beta_ce_batch.rows"] / trained if trained else 0.0
        ),
        "loss.beta_ce_eval.calls": calls["loss.beta_ce_eval"],
        "loss.beta_ce_eval.busy_s": busy["loss.beta_ce_eval"],
        "loss.beta_ce_loss.calls": calls["loss.beta_ce_loss"],
        "loss.beta_ce_loss.busy_s": busy["loss.beta_ce_loss"],
        "loss.curvature.busy_s": busy["loss.curvature"],
        "verify.verify_all.busy_s": busy["verify.verify_all"],
        "verify.verify_all.self_s": self_s.get("verify.verify_all", 0.0),
        "verify.central_diff_grad.calls": calls["verify.central_diff_grad"],
        "verify.central_diff_grad.busy_s": busy["verify.central_diff_grad"],
        "verify.central_diff_grad.self_s": self_s.get("verify.central_diff_grad", 0.0),
        "verify.grid_scan_extremum.busy_s": busy["verify.grid_scan_extremum"],
        "verify.properties": counters["verify.properties"],
        "verify.properties_failed": counters["verify.properties_failed"],
        "schedule.beta_at.calls": calls["schedule.beta_at"],
        "schedule.beta_at.busy_s": busy["schedule.beta_at"],
        "datasets.load_mnist_idx.busy_s": busy["datasets.load_mnist_idx"],
        "datasets.load_mnist_idx.bytes_in": counters["datasets.load_mnist_idx.bytes_in"],
        "datasets.make_blobs.busy_s": busy["datasets.make_blobs"],
        "mlp.init.busy_s": busy["mlp.init"],
        "calibration.fit_temperature.busy_s": busy["calibration.fit_temperature"],
        "calibration.calibration_report.calls": calls["calibration.calibration_report"],
        "calibration.calibration_report.busy_s": busy["calibration.calibration_report"],
        "calibration.from_logits.busy_s": busy["calibration.from_logits"],
        "calibration.bin_reliability.calls": calls["calibration.bin_reliability"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
