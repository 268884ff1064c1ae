"""From-scratch MLP trainer with manual backpropagation.

Rectifier hidden layers, identity output layer, mini-batch gradient descent
with momentum and weight decay.
A single run is fully deterministic given its config: initialization and
shuffling derive from the seed alone, so two identical runs produce
bitwise-identical metric streams.

difficulty_groups splits the p_true traces that train's observer sees, one
row per epoch, into quantile groups by early confidence, hardest group first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import LossParams, batch_p_true, beta_ce_batch, check_int, check_real_in
from gradient_decay.schedule import WarmupSchedule
from gradient_decay.datasets import Dataset, decode

__all__ = [
    "MlpModel",
    "TrainConfig",
    "EpochMetrics",
    "DifficultyGroups",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "check_fits",
    "difficulty_groups",
]

# rows of coded inputs decoded at a time for layer 1 of a forward pass (3.2 MB at
# 784 inputs)
_BLOCK_ROWS = 512


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch and batch index."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


@dataclass(eq=False)
class MlpModel:
    """Affine-rectifier chain; the final layer is affine only."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]   # (fan_out,) per layer

    @classmethod
    def init(cls, layer_dims, seed: int) -> "MlpModel":
        """He-normal weights (std sqrt(2/fan_in)), zero biases, seeded."""
        dims = tuple(layer_dims)
        if len(dims) < 2:
            raise ValueError(f"layer_dims needs at least (input, output) sizes, got {dims}")
        for d in dims:
            check_int("layer size", d, 1)
        dims = tuple(int(d) for d in dims)  # numpy integers pass the check; the model keeps plain ints
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases)

    def forward(self, x, acts=None) -> np.ndarray:
        """Logits for the batch x, an (n, dim) matrix; a single sample is a one-row matrix.

        acts, when given, holds one (n, fan_out) output array per layer;
        each layer's post-activation output is written into it, and the
        last one, the logits, is returned.

        Unless x is float64, datasets.decode turns it into inputs: uint8
        pixel codes (a Dataset's raw) become codes / 255.  Coded rows are
        decoded for layer 1 only, min(n, _BLOCK_ROWS) rows at a time through
        one small buffer, so no (n, dim) float64 matrix is made; the later
        layers are whole-matrix products.  A coded forward is deterministic;
        with one OpenBLAS 0.3.31 thread (Haswell) it was bitwise the forward of
        decode(x) at 784-50-20-10 and 784-{100,128,200,256,1000}-10, not at
        784-300-100-10 or 784-500-10, so elsewhere it may differ in the last bits.
        """
        x = np.asarray(x)
        expect = self.layer_dims[0]
        if x.ndim != 2 or x.shape[1] != expect:
            raise ValueError(f"inputs must be an (n, {expect}) matrix, got shape {x.shape}")
        if acts is None:
            acts = [np.empty((x.shape[0], d)) for d in self.layer_dims[1:]]
        hidden = len(self.weights) - 1
        a = x
        for layer, (W, b, out) in enumerate(zip(self.weights, self.biases, acts)):
            if a.dtype == np.float64:
                np.matmul(a, W, out=out)
            else:
                _decoded_matmul(a, W, out)
            np.add(out, b, out=out)
            if layer < hidden:
                np.maximum(out, 0.0, out=out)
            a = out
        return a


def _decoded_matmul(codes: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """out = decode(codes) @ W, min(n, _BLOCK_ROWS) rows of codes at a time."""
    n = codes.shape[0]
    rows = min(n, _BLOCK_ROWS)
    buf = np.empty((rows, codes.shape[1]))
    for lo in range(0, n, max(rows, 1)):  # an empty batch has no block
        lo = min(lo, n - rows)  # a short last block could take another BLAS path
        np.matmul(decode(codes[lo : lo + rows], out=buf), W, out=out[lo : lo + rows])


def _flat_copy(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """A flat float64 vector holding the values of arrays, and views of it shaped like them."""
    flat = np.empty(sum(a.size for a in arrays))
    views, at = [], 0
    for a in arrays:
        view = flat[at : at + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        at += a.size
    return flat, views


@dataclass(eq=False)
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
        np.add.reduce(delta, axis=0, out=grads[layers + layer])
        if layer > 0:
            nxt, mask = batch.deltas[layer - 1], batch.masks[layer - 1]
            np.matmul(delta, model.weights[layer].T, out=nxt)
            np.greater(below, 0.0, out=mask)
            np.multiply(nxt, mask, out=nxt)
            delta = nxt
    return float(np.add.reduce(be.losses)) / batch.rows


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 100
    epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_real_in("lr", self.lr, 0, math.inf)
        check_real_in("momentum", self.momentum, 0, 1)
        check_real_in("weight_decay", self.weight_decay, 0, math.inf)
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    beta: float
    train_loss: float
    train_acc: float
    test_acc: float
    mean_conf: float


@dataclass(eq=False)
class TrainResult:
    metrics: list[EpochMetrics]
    train_p_true: np.ndarray  # (n,) clamped p_true of every training sample after the last epoch
    test_logits: np.ndarray   # (n_test, m) after the last epoch


@dataclass(frozen=True, eq=False)
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
    *,
    test_set: Dataset,
    observe=None,
) -> TrainResult:
    """Mini-batch gradient descent with momentum; every epoch ends with an evaluation on test_set.

    Update rule: v <- momentum*v + g, param <- param - lr*(v + weight_decay*param).
    A warm-up schedule, when given, overrides loss.beta at every optimizer iteration.
    After each epoch that completes, observe(metrics, p_true), when given, gets that
    epoch's EpochMetrics and a fresh (n,) array of every training sample's p_true that
    train never writes again; it runs outside the errstate that hides the epoch's overflows.

    Every array the run writes (batch, activations, deltas, gradients,
    momentum, update temporaries and the evaluation activations) is
    allocated once before the first step; the steps then work in place, in
    the same order of operations as an allocating loop, so the results are
    bitwise identical to it.  Parameters, gradients, momentum and update
    temporaries are four flat vectors, so an update is six numpy calls;
    model.weights and model.biases are re-pointed to views of the flat
    parameters, holding the same values.

    A dataset of uint8 codes is decoded where it is read: each batch's rows
    are gathered as stored and decoded into the batch (float64 features by a
    copy that changes no bit), and each evaluation
    decodes layer 1's input a block at a time into a buffer of its own
    (MlpModel.forward), so the run never holds the (n, dim) float64 features.
    """
    n = train_set.n
    if n == 0:
        raise ValueError("training set is empty")
    if test_set.n == 0:
        raise ValueError("test set is empty")
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    check_fits(model.layer_dims, train_set)
    check_fits(model.layer_dims, test_set)

    X, y = train_set.raw, train_set.labels
    rng = np.random.default_rng(cfg.seed)
    layers = len(model.weights)
    theta, params = _flat_copy(model.weights + model.biases)
    model.weights[:], model.biases[:] = params[:layers], params[layers:]  # updated in place from here
    grad, grads = _flat_copy(params)  # every step overwrites them
    vel, tmp = np.zeros_like(theta), np.empty_like(theta)
    full = _Rows.alloc(model.layer_dims, cfg.batch_size)
    stage = np.empty((cfg.batch_size, train_set.dim), X.dtype)  # each batch's rows, before decoding
    ragged = full.head(n % cfg.batch_size)
    train_acts = [np.empty((n, d)) for d in model.layer_dims[1:]]
    test_acts = [np.empty((test_set.n, d)) for d in model.layer_dims[1:]]

    metrics: list[EpochMetrics] = []
    step = 0
    beta_now = loss.beta
    for epoch in range(cfg.epochs):
        # a diverging run overflows on its way to non-finite logits; TrainingDiverged reports it
        with np.errstate(over="ignore", invalid="ignore"):
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                batch = full if idx.size == cfg.batch_size else ragged
                # perm holds valid indices; "clip" lets take write straight into out
                decode(X.take(idx, axis=0, out=stage[: idx.size], mode="clip"), out=batch.x)
                y.take(idx, out=batch.y, mode="clip")
                if warmup is not None:
                    beta_now = warmup.beta_at(step)
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
                np.multiply(vel, cfg.momentum, out=vel)
                np.add(vel, grad, out=vel)
                np.multiply(theta, cfg.weight_decay, out=tmp)
                np.add(vel, tmp, out=tmp)
                np.multiply(tmp, cfg.lr, out=tmp)
                np.subtract(theta, tmp, out=theta)
                step += 1

            train_logits = model.forward(X, train_acts)
            try:
                p_true = batch_p_true(train_logits, y, loss)  # depends on tau, not on beta
            except ValueError as exc:
                raise TrainingDiverged(epoch, (n - 1) // cfg.batch_size) from exc
            # int: a numpy count over n would make the metric a np.float64, whose repr differs
            train_acc = int(np.count_nonzero(train_logits.argmax(axis=1) == y)) / n
            mean_conf = float(np.add.reduce(p_true)) / n
            test_logits = model.forward(test_set.raw, test_acts)
            test_acc = int(np.count_nonzero(test_logits.argmax(axis=1) == test_set.labels)) / test_set.n
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
        if observe is not None:
            observe(metrics[-1], p_true)

    return TrainResult(metrics=metrics, train_p_true=p_true, test_logits=test_logits)


def difficulty_groups(traces: np.ndarray, k: int = 5) -> DifficultyGroups:
    """Quantile groups of the (epochs, n) traces by mean confidence over the first 20% of epochs.

    Group 1 collects the lowest-confidence ("hard") samples, group k the
    easiest; ties break by sample index.
    """
    check_int("k", k, 1)
    if traces.ndim != 2 or traces.shape[0] < 1:
        raise ValueError(f"traces must be an (epochs, n) matrix with at least one epoch, got shape {traces.shape}")
    epochs, n = traces.shape
    if n < k:
        raise ValueError(f"need at least {k} traced samples, got {n}")
    early = max(1, math.ceil(0.2 * epochs))
    score = traces[:early].mean(axis=0)
    order = np.argsort(score, kind="stable")
    assignment = np.zeros(n, dtype=np.int64)
    group_means = np.zeros((k, epochs))
    for j, chunk in enumerate(np.array_split(order, k)):
        assignment[chunk] = j + 1
        group_means[j] = traces[:, chunk].mean(axis=1)
    return DifficultyGroups(assignment=assignment, group_means=group_means)
