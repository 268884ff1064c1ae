"""From-scratch MLP trainer with manual backpropagation.

Rectifier hidden layers, identity output layer, mini-batch gradient descent
with momentum, weight decay and optional global gradient-norm clipping.
A single run is fully deterministic given its config: initialization and
shuffling derive from the seed alone, so two identical runs produce
bitwise-identical metric streams.

The trainer records the true-class probability of every (traced) training
sample after each epoch; difficulty_groups splits those traces into
quantile groups by early-training confidence, hardest group first.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import LossParams, batch_p_true, beta_ce_batch, check_int, check_positive_real
from gradient_decay.schedule import Granularity, WarmupSchedule
from gradient_decay.datasets import Dataset

__all__ = [
    "MlpModel",
    "TrainConfig",
    "EpochMetrics",
    "SampleTraces",
    "DifficultyGroups",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "check_fits",
    "difficulty_groups",
    "clip_global_norm",
    "write_metrics_csv",
    "write_trace_csv",
]

# trace every sample by default up to this dataset size
TRACE_LIMIT = 100_000


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch and batch index."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


@dataclass
class MlpModel:
    """Affine-rectifier chain; the final layer is affine only."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]   # (fan_out,) per layer

    @classmethod
    def init(cls, layer_dims, seed: int) -> "MlpModel":
        """He-normal weights (std sqrt(2/fan_in)), zero biases, seeded."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims needs at least (input, output) positive sizes, got {dims}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases)

    def forward(self, x, acts=None) -> np.ndarray:
        """Logits for a single sample (dim,) or a batch (n, dim).

        acts, when given, holds one output array per layer (shape
        x.shape[:-1] + (fan_out,)); each layer's post-activation output is
        written into it, and the last one, the logits, is returned.
        """
        a = np.asarray(x, dtype=np.float64)
        expect = self.layer_dims[0]
        if a.shape[-1] != expect:
            raise ValueError(f"input dimension {a.shape[-1]} does not match model ({expect})")
        if acts is None:
            acts = [np.empty(a.shape[:-1] + (d,)) for d in self.layer_dims[1:]]
        hidden = len(self.weights) - 1
        for layer, (W, b, out) in enumerate(zip(self.weights, self.biases, acts)):
            np.matmul(a, W, out=out)
            np.add(out, b, out=out)
            if layer < hidden:
                np.maximum(out, 0.0, out=out)
            a = out
        return a


@dataclass
class _Rows:
    """Per-row buffers of one batch: inputs, labels, activations, deltas, masks."""

    rows: int
    x: np.ndarray
    y: np.ndarray
    acts: list[np.ndarray]    # post-activation output of each layer
    deltas: list[np.ndarray]  # backprop delta at each hidden layer
    masks: list[np.ndarray]   # rectifier masks of the hidden layers

    @classmethod
    def alloc(cls, dims, rows: int) -> "_Rows":
        return cls(
            rows,
            np.empty((rows, dims[0])),
            np.empty(rows, dtype=np.int64),
            [np.empty((rows, d)) for d in dims[1:]],
            [np.empty((rows, d)) for d in dims[1:-1]],
            [np.empty((rows, d), dtype=bool) for d in dims[1:-1]],
        )

    def head(self, rows: int) -> "_Rows":
        """The same buffers cut to their first rows (for a ragged last batch)."""
        return _Rows(rows, self.x[:rows], self.y[:rows], [a[:rows] for a in self.acts],
                     [d[:rows] for d in self.deltas], [k[:rows] for k in self.masks])


def _gradients(model: MlpModel, batch: _Rows, grads, params: LossParams) -> float:
    """Mean loss over the batch; writes the gradients of that mean into grads.

    grads lists the weight gradients, then the bias gradients, parallel to
    model.weights + model.biases.  batch.x and batch.y must be filled.
    """
    logits = model.forward(batch.x, batch.acts)
    be = beta_ce_batch(logits, batch.y, params)
    delta = be.grads
    delta /= batch.rows
    layers = len(model.weights)
    for layer in range(layers - 1, -1, -1):
        below = batch.x if layer == 0 else batch.acts[layer - 1]
        np.matmul(below.T, delta, out=grads[layer])
        np.sum(delta, axis=0, out=grads[layers + layer])
        if layer > 0:
            nxt, mask = batch.deltas[layer - 1], batch.masks[layer - 1]
            np.matmul(delta, model.weights[layer].T, out=nxt)
            np.greater(below, 0.0, out=mask)
            np.multiply(nxt, mask, out=nxt)
            delta = nxt
    return float(be.losses.mean())


def backward(model: MlpModel, x, c: int, params: LossParams):
    """Parameter gradients of the loss for one sample.

    Returns (weight_grads, bias_grads), lists parallel to the model layers.
    """
    batch = _Rows.alloc(model.layer_dims, 1)
    batch.x[0] = np.asarray(x, dtype=np.float64).reshape(-1)
    batch.y[0] = c
    grads = [np.empty_like(p) for p in model.weights + model.biases]
    _gradients(model, batch, grads, params)
    layers = len(model.weights)
    return grads[:layers], grads[layers:]


def clip_global_norm(grads_w, grads_b, clip_norm: float):
    """Scale all gradients in place so their joint 2-norm is at most clip_norm.

    Returns (grads_w, grads_b, norm before clipping).
    """
    sq = sum(float((g**2).sum()) for g in grads_w) + sum(float((g**2).sum()) for g in grads_b)
    norm = math.sqrt(sq)
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in (*grads_w, *grads_b):
            g *= scale
    return grads_w, grads_b, norm


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 100
    epochs: int = 1
    clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be a non-negative finite real, got {self.lr!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be a non-negative finite real, got {self.weight_decay!r}")
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        if self.clip_norm is not None:
            check_positive_real("clip_norm", self.clip_norm)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    beta: float
    train_loss: float
    train_acc: float
    test_acc: float
    mean_conf: float


@dataclass
class SampleTraces:
    """p_true of each traced sample after every epoch."""

    p_true: np.ndarray      # (epochs, n_traced)
    sample_ids: np.ndarray  # (n_traced,)
    groups: np.ndarray | None = None  # 1 = hardest .. k = easiest

    @property
    def epochs(self) -> int:
        return self.p_true.shape[0]


@dataclass
class TrainResult:
    model: MlpModel
    metrics: list[EpochMetrics]
    traces: SampleTraces | None
    train_p_true: np.ndarray        # (n,) clamped p_true of every training sample after the last epoch
    test_logits: np.ndarray | None  # (n_test, m) after the last epoch; None without a test set


@dataclass(frozen=True)
class DifficultyGroups:
    assignment: np.ndarray   # (n,) group index in [1, k]
    group_means: np.ndarray  # (k, epochs) mean p_true per group per epoch


def check_fits(layer_dims, data: Dataset) -> None:
    """Features and labels of data must fit the input and output sizes in layer_dims."""
    if data.dim != layer_dims[0]:
        raise ValueError(f"{data.split} features have dimension {data.dim}, "
                         f"the model takes {layer_dims[0]}")
    outputs = layer_dims[-1]
    if data.n and data.labels.max() >= outputs:
        raise ValueError(f"{data.split} label {int(data.labels.max())} is outside "
                         f"the model's {outputs} outputs")


def train(
    model: MlpModel,
    train_set: Dataset,
    cfg: TrainConfig,
    loss: LossParams,
    warmup: WarmupSchedule | None = None,
    test_set: Dataset | None = None,
    trace: bool = True,
) -> TrainResult:
    """Mini-batch gradient descent with momentum.

    Update rule: v <- momentum*v + g, param <- param - lr*(v + weight_decay*param),
    with g optionally clipped to a global norm first.  When a warm-up schedule
    is given it overrides loss.beta per iteration (or per epoch).

    Every array the run writes (batch, activations, deltas, gradients,
    momentum, update temporaries and the evaluation activations) is
    allocated once before the first step; the steps then work in place, in
    the same order of operations as an allocating loop, so the results are
    bitwise identical to it.
    """
    n = train_set.n
    if n == 0:
        raise ValueError("training set is empty")
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    check_fits(model.layer_dims, train_set)
    if test_set is not None:
        check_fits(model.layer_dims, test_set)

    X, y = train_set.features, train_set.labels
    rng = np.random.default_rng(cfg.seed)
    params = model.weights + model.biases  # the model's own arrays, updated in place
    grads = [np.empty_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    tmp = [np.empty_like(p) for p in params]
    layers = len(model.weights)
    full = _Rows.alloc(model.layer_dims, cfg.batch_size)
    ragged = full.head(n % cfg.batch_size)
    train_acts = [np.empty((n, d)) for d in model.layer_dims[1:]]
    test_acts = None if test_set is None else [np.empty((test_set.n, d)) for d in model.layer_dims[1:]]

    if trace and n > TRACE_LIMIT:
        traced_ids = np.linspace(0, n - 1, TRACE_LIMIT).astype(np.int64)
    else:
        traced_ids = np.arange(n, dtype=np.int64)
    trace_mat = np.zeros((cfg.epochs, traced_ids.size)) if trace else None

    metrics: list[EpochMetrics] = []
    step = 0
    beta_now = loss.beta
    # a diverging run overflows on its way to non-finite logits; TrainingDiverged reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                batch = full if idx.size == cfg.batch_size else ragged
                # perm holds valid indices; "clip" lets take write straight into out
                np.take(X, idx, axis=0, out=batch.x, mode="clip")
                np.take(y, idx, out=batch.y, mode="clip")
                if warmup is not None:
                    t = step if warmup.granularity is Granularity.PER_ITERATION else epoch
                    beta_now = warmup.beta_at(t)
                    step_loss = LossParams(beta=beta_now, tau=loss.tau)
                else:
                    step_loss = loss
                try:
                    batch_loss = _gradients(model, batch, grads, step_loss)
                except ValueError as exc:
                    # exploded parameters produce non-finite logits one step later
                    raise TrainingDiverged(epoch, start // cfg.batch_size) from exc
                if not math.isfinite(batch_loss):
                    raise TrainingDiverged(epoch, start // cfg.batch_size)
                loss_sum += batch_loss * idx.size
                if cfg.clip_norm is not None:
                    clip_global_norm(grads[:layers], grads[layers:], cfg.clip_norm)
                for p, g, v, t in zip(params, grads, vel, tmp):
                    np.multiply(v, cfg.momentum, out=v)
                    np.add(v, g, out=v)
                    np.multiply(p, cfg.weight_decay, out=t)
                    np.add(v, t, out=t)
                    np.multiply(t, cfg.lr, out=t)
                    np.subtract(p, t, out=p)
                step += 1

            train_logits = model.forward(X, train_acts)
            try:
                p_true = batch_p_true(train_logits, y, loss)  # depends on tau, not on beta
            except ValueError as exc:
                raise TrainingDiverged(epoch, (n - 1) // cfg.batch_size) from exc
            train_acc = float((train_logits.argmax(axis=1) == y).mean())
            mean_conf = float(p_true.mean())
            if trace_mat is not None:
                trace_mat[epoch] = p_true[traced_ids]
            if test_set is not None:
                test_logits = model.forward(test_set.features, test_acts)
                test_acc = float((test_logits.argmax(axis=1) == test_set.labels).mean())
            else:
                test_logits = None
                test_acc = float("nan")
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    beta=beta_now,
                    train_loss=loss_sum / n,
                    train_acc=train_acc,
                    test_acc=test_acc,
                    mean_conf=mean_conf,
                )
            )

    traces = SampleTraces(trace_mat, traced_ids) if trace_mat is not None else None
    return TrainResult(model=model, metrics=metrics, traces=traces,
                       train_p_true=p_true, test_logits=test_logits)


def difficulty_groups(traces: SampleTraces, k: int = 5) -> DifficultyGroups:
    """Quantile groups by mean confidence over the first 20% of epochs.

    Group 1 collects the lowest-confidence ("hard") samples, group k the
    easiest; ties break by sample id.  Also fills traces.groups.
    """
    check_int("k", k, 1)
    n = traces.sample_ids.size
    if n < k:
        raise ValueError(f"need at least {k} traced samples, got {n}")
    early = max(1, math.ceil(0.2 * traces.epochs))
    score = traces.p_true[:early].mean(axis=0)
    order = np.lexsort((traces.sample_ids, score))
    assignment = np.zeros(n, dtype=np.int64)
    group_means = np.zeros((k, traces.epochs))
    for j, chunk in enumerate(np.array_split(order, k)):
        assignment[chunk] = j + 1
        group_means[j] = traces.p_true[:, chunk].mean(axis=1)
    traces.groups = assignment
    return DifficultyGroups(assignment=assignment, group_means=group_means)


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    """epoch, beta, train_loss, train_acc, test_acc, mean_conf per row."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "beta", "train_loss", "train_acc", "test_acc", "mean_conf"])
        for m in metrics:
            w.writerow([m.epoch, repr(m.beta), repr(m.train_loss), repr(m.train_acc),
                        repr(m.test_acc), repr(m.mean_conf)])


def write_trace_csv(path, traces: SampleTraces) -> None:
    """epoch, sample_id, p_true, group per row (group blank if unassigned)."""
    groups = traces.groups
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "sample_id", "p_true", "group"])
        for epoch in range(traces.epochs):
            for j, sid in enumerate(traces.sample_ids):
                w.writerow([epoch, sid, repr(float(traces.p_true[epoch, j])),
                            "" if groups is None else int(groups[j])])
