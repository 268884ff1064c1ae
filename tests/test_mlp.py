"""Trainer tests: forward/backward correctness, update rule, determinism."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import gradient_decay.mlp as mlp
from gradient_decay.datasets import (
    BlobsConfig,
    Dataset,
    decode,
    load_mnist_idx,
    make_blobs,
    write_idx_images,
    write_idx_labels,
)
from gradient_decay.loss import LossParams, batch_losses, beta_ce_batch
from gradient_decay.mlp import (
    _BLOCK_ROWS,
    DifficultyGroups,
    EpochMetrics,
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    difficulty_groups,
    train,
)
from gradient_decay.schedule import WarmupSchedule


def _hand_built_222():
    model = MlpModel.init((2, 2, 2), seed=0)
    model.weights[0][:] = [[1.0, -1.0], [2.0, 0.5]]
    model.biases[0][:] = [0.5, -1.0]
    model.weights[1][:] = [[1.0, 2.0], [-1.0, 1.0]]
    model.biases[1][:] = [0.0, 1.0]
    return model


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel.init((3, 4, 2), seed=0)
        for W in model.weights:
            W[:] = 0.0
        assert np.all(model.forward(np.array([[1.0, -2.0, 3.0]])) == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel.init((3, 3), seed=0)
        model.weights[0][:] = np.eye(3)
        model.biases[0][:] = 0.0
        x = np.array([[0.3, -1.2, 2.0]])
        assert np.array_equal(model.forward(x), x)

    def test_hand_computed_golden(self):
        # x=[1,2]: hidden pre-activation [5.5, -1] -> relu [5.5, 0] -> logits [5.5, 12]
        model = _hand_built_222()
        assert np.allclose(model.forward(np.array([[1.0, 2.0]])), [[5.5, 12.0]], atol=1e-15)

    def test_batch_matches_single(self):
        model = MlpModel.init((4, 8, 3), seed=5)
        X = np.random.default_rng(0).uniform(-1, 1, (6, 4))
        batch = model.forward(X)
        for k in range(6):
            assert np.allclose(batch[k : k + 1], model.forward(X[k : k + 1]), atol=1e-12)

    # a bare (dim,) sample is not a batch: a single sample is a one-row matrix
    @pytest.mark.parametrize("shape", [(1, 4), (3,), (1, 1, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_dimension_mismatch(self, shape, dtype):
        model = MlpModel.init((3, 2), seed=0)
        with pytest.raises(ValueError, match=re.escape(f"inputs must be an (n, 3) matrix, got shape {shape}")):
            model.forward(np.zeros(shape, dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_an_empty_batch_gives_empty_logits(self, dtype):
        model = MlpModel.init((784, 16, 10), seed=0)
        assert model.forward(np.zeros((0, 784), dtype)).shape == (0, 10)

    @pytest.mark.parametrize("dims", [(), (4,)])
    def test_init_needs_input_and_output_sizes(self, dims):
        with pytest.raises(ValueError, match="at least \\(input, output\\) sizes"):
            MlpModel.init(dims, seed=0)

    def test_init_keeps_numpy_sizes_as_ints(self):
        model = MlpModel.init((np.int64(3), np.int32(2)), seed=0)
        assert model.layer_dims == (3, 2) and all(type(d) is int for d in model.layer_dims)


def _reference_ce_backprop(model, x, c):
    """Independent classic softmax cross-entropy backprop (p - onehot)."""
    acts = [np.asarray(x, dtype=float)]
    h = acts[0]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
        acts.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    d = p.copy()
    d[c] -= 1.0
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        gw[layer] = np.outer(acts[layer], d)
        gb[layer] = d.copy()
        if layer > 0:
            d = (model.weights[layer] @ d) * (acts[layer] > 0.0)
    return gw, gb


def backward(model, x, c, params):
    """(weight grads, bias grads) of one sample's loss: mlp._gradients on a one-row batch."""
    batch = mlp._Rows.alloc(model.layer_dims, 1)
    batch.x[0] = x
    batch.y[0] = c
    grads = [np.empty_like(p) for p in model.weights + model.biases]
    mlp._gradients(model, batch, grads, params)
    layers = len(model.weights)
    return grads[:layers], grads[layers:]


def _fd_param_grads(model, x, c, params, h=1e-6):
    def current_loss():
        return batch_losses(model.forward(x[None]), np.array([c]), params)[0]

    gws, gbs = [], []
    for arr_list, out in ((model.weights, gws), (model.biases, gbs)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                fp = current_loss()
                arr[idx] = orig - h
                fm = current_loss()
                arr[idx] = orig
                g[idx] = (fp - fm) / (2 * h)
            out.append(g)
    return gws, gbs


class TestBackward:
    def test_zero_input_kills_first_layer_weight_grads(self):
        model = MlpModel.init((3, 4, 2), seed=1)
        gw, gb = backward(model, np.zeros(3), 0, LossParams(beta=0.5))
        assert np.all(gw[0] == 0.0)
        assert np.any(gb[0] != 0.0) or np.any(gb[1] != 0.0)

    def test_beta_one_matches_independent_ce_backprop(self):
        model = _hand_built_222()
        x = np.array([1.0, 2.0])
        gw, gb = backward(model, x, 0, LossParams(beta=1.0))
        ref_w, ref_b = _reference_ce_backprop(model, x, 0)
        for a, b in zip(gw, ref_w):
            assert np.allclose(a, b, atol=1e-12)
        for a, b in zip(gb, ref_b):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_matches_finite_differences(self, beta):
        rng = np.random.default_rng(42)
        model = MlpModel.init((3, 4, 3), seed=9)
        params = LossParams(beta=beta)
        for _ in range(3):
            x = rng.uniform(-1.5, 1.5, 3)
            c = int(rng.integers(3))
            gw, gb = backward(model, x, c, params)
            fw, fb = _fd_param_grads(model, x, c, params)
            for a, f in zip(gw + gb, fw + fb):
                assert np.allclose(a, f, rtol=1e-5, atol=1e-7)


def _tiny_blobs(seed=0, sigma=0.05, classes=4, n_per_class=40):
    return make_blobs(BlobsConfig(classes=classes, n_per_class=n_per_class,
                                  sigma=sigma, radius=1.0, seed=seed))


def _reference_forward(model, X):
    """Allocating forward pass, one temporary per operation."""
    acts = [X]
    a = X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ W + b, 0.0)
        acts.append(a)
    return a @ model.weights[-1] + model.biases[-1], acts


def _reference_grads(model, X, y, params):
    """Mean batch loss and its parameter gradients, written as a plain allocating loop."""
    logits, acts = _reference_forward(model, X)
    be = beta_ce_batch(logits, y, params)
    delta = be.grads / X.shape[0]
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        gw[layer] = acts[layer].T @ delta
        gb[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
    return float(be.losses.mean()), gw, gb


def _reference_train(model, train_set, cfg, loss, warmup=None, *, test_set):
    """The trainer as a plain loop that allocates every temporary.

    Returns (metrics, (epochs, n) p_true of every sample after each epoch,
    last train p_true, last test logits); the model is updated in place.
    """
    n = train_set.n
    X, y = decode(train_set.raw), train_set.labels
    rng = np.random.default_rng(cfg.seed)
    vel_w = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    metrics, traces = [], []
    step = 0
    beta_now = loss.beta
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if warmup is not None:
                beta_now = warmup.beta_at(step)
                params = LossParams(beta=beta_now, tau=loss.tau)
            else:
                params = loss
            try:
                batch_loss, gw, gb = _reference_grads(model, X[idx], y[idx], params)
            except ValueError as exc:
                raise TrainingDiverged(epoch, start // cfg.batch_size) from exc
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, start // cfg.batch_size)
            loss_sum += batch_loss * idx.size
            for layer in range(len(model.weights)):
                vel_w[layer] = cfg.momentum * vel_w[layer] + gw[layer]
                vel_b[layer] = cfg.momentum * vel_b[layer] + gb[layer]
                model.weights[layer] -= cfg.lr * (vel_w[layer] + cfg.weight_decay * model.weights[layer])
                model.biases[layer] -= cfg.lr * (vel_b[layer] + cfg.weight_decay * model.biases[layer])
            step += 1
        train_logits, _ = _reference_forward(model, X)
        try:
            be = beta_ce_batch(train_logits, y, LossParams(beta=beta_now, tau=loss.tau))
        except ValueError as exc:
            raise TrainingDiverged(epoch, (n - 1) // cfg.batch_size) from exc
        traces.append(be.p_true)
        test_logits, _ = _reference_forward(model, decode(test_set.raw))
        test_acc = float((test_logits.argmax(axis=1) == test_set.labels).mean())
        metrics.append(EpochMetrics(epoch, beta_now, loss_sum / n,
                                    float((train_logits.argmax(axis=1) == y).mean()),
                                    test_acc, float(be.p_true.mean())))
    return metrics, np.array(traces), traces[-1], test_logits


def _recorder():
    """An observer for train, and the EpochMetrics and p_true rows it is given, in call order."""
    seen, rows = [], []

    def observe(metrics, p_true):
        seen.append(metrics)
        rows.append(p_true)  # kept as given: train never writes it again

    return observe, seen, rows


# (dims, config, warm-up); 128 training rows, so every batch size below leaves a ragged last batch
_BITWISE_CASES = {
    "momentum_decay": ((2, 8, 4), TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3,
                                              batch_size=48, epochs=4, seed=3), None),
    "two_hidden_layers": ((2, 16, 8, 4), TrainConfig(lr=0.1, momentum=0.5, weight_decay=1e-2,
                                                     batch_size=30, epochs=3, seed=5), None),
    "warmup_per_iteration": ((2, 8, 4), TrainConfig(lr=0.05, momentum=0.9, batch_size=40,
                                                    epochs=3, seed=2),
                             WarmupSchedule(0.01, 1.0, 7)),
}


class TestTrainMatchesReference:
    """train must equal the plain allocating loop bitwise, in every feature."""

    @pytest.mark.parametrize("case", sorted(_BITWISE_CASES))
    @pytest.mark.parametrize("observed", [False, True], ids=["no_observer", "recording_observer"])
    def test_bitwise_equal(self, case, observed):
        dims, cfg, warmup = _BITWISE_CASES[case]
        train_set, test_set = _tiny_blobs(sigma=0.3)
        assert train_set.n % cfg.batch_size != 0
        loss = LossParams(beta=0.3, tau=0.8)
        model = MlpModel.init(dims, seed=cfg.seed)
        twin = MlpModel.init(dims, seed=cfg.seed)
        observe, seen, rows = _recorder()
        res = train(model, train_set, cfg, loss, warmup=warmup, test_set=test_set,
                    observe=observe if observed else None)
        metrics, traces, p_true, test_logits = _reference_train(
            twin, train_set, cfg, loss, warmup=warmup, test_set=test_set)
        for got, want in zip(model.weights + model.biases, twin.weights + twin.biases):
            assert np.array_equal(got, want)
        assert res.metrics == metrics
        assert np.array_equal(res.train_p_true, p_true)
        assert np.array_equal(res.test_logits, test_logits)
        if observed:
            assert np.stack(rows).tobytes() == traces.tobytes()
            # the observer gets the very records the result holds, one per epoch, in order
            assert len(seen) == len(res.metrics) == cfg.epochs
            assert all(got is want for got, want in zip(seen, res.metrics))

    def test_divergence_at_the_same_step(self):
        train_set, test_set = _tiny_blobs(sigma=0.3)  # diverges in epoch 4, in the ragged batch
        cfg = TrainConfig(lr=1e12, momentum=0.9, epochs=5, batch_size=48, seed=0)
        caught = []
        for run in (train, _reference_train):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TrainingDiverged) as exc:
                    run(MlpModel.init((2, 8, 4), seed=0), train_set, cfg, LossParams(beta=1.0),
                        test_set=test_set)
            caught.append((exc.value.epoch, exc.value.batch))
        assert caught[0] == caught[1]

    def test_last_epoch_arrays_equal_a_fresh_forward(self):
        train_set, test_set = _tiny_blobs(sigma=0.3)
        model = MlpModel.init((2, 16, 8, 4), seed=6)
        sched = WarmupSchedule(0.1, 2.0, 5)
        res = train(model, train_set, TrainConfig(lr=0.05, momentum=0.9, batch_size=48, epochs=3, seed=6),
                    LossParams(beta=1.0), warmup=sched, test_set=test_set)
        final = LossParams(beta=res.metrics[-1].beta)
        fresh = beta_ce_batch(model.forward(decode(train_set.raw)), train_set.labels, final)
        assert np.array_equal(res.train_p_true, fresh.p_true)
        assert np.array_equal(res.test_logits, model.forward(decode(test_set.raw)))

    def test_backward_matches_reference_gradients(self):
        model = MlpModel.init((3, 5, 4, 3), seed=2)
        x = np.array([0.4, -1.1, 0.9])
        gw, gb = backward(model, x, 2, LossParams(beta=0.2))
        _, rw, rb = _reference_grads(model, x.reshape(1, -1), np.array([2]), LossParams(beta=0.2))
        for got, want in zip(gw + gb, rw + rb):
            assert np.array_equal(got, want)


class TestTrain:
    def test_zero_lr_leaves_model_unchanged(self):
        train_set, test_set = _tiny_blobs()
        model = MlpModel.init((2, 8, 4), seed=3)
        w_before = [W.copy() for W in model.weights]
        init_acc = float((model.forward(decode(train_set.raw)).argmax(axis=1) == train_set.labels).mean())
        res = train(model, train_set, TrainConfig(lr=0.0, epochs=1, batch_size=32, seed=0),
                    LossParams(beta=1.0), test_set=test_set)
        for W, W0 in zip(model.weights, w_before):
            assert np.array_equal(W, W0)
        assert res.metrics[0].train_acc == init_acc

    def test_plain_gd_step_matches_hand_update(self):
        # momentum=0, weight_decay=0: one full-batch step is param -= lr * grad
        train_set, test_set = _tiny_blobs(n_per_class=10)
        model = MlpModel.init((2, 4, 4), seed=8)
        params = LossParams(beta=0.7)
        w0 = [W.copy() for W in model.weights]
        b0 = [b.copy() for b in model.biases]
        # mean per-sample gradient over the batch
        n = train_set.n
        mean_gw = [np.zeros_like(W) for W in model.weights]
        mean_gb = [np.zeros_like(b) for b in model.biases]
        for i in range(n):
            gw, gb = backward(model, decode(train_set.raw)[i], int(train_set.labels[i]), params)
            for layer in range(len(mean_gw)):
                mean_gw[layer] += gw[layer] / n
                mean_gb[layer] += gb[layer] / n
        train(model, train_set, TrainConfig(lr=0.1, epochs=1, batch_size=n, seed=0),
              params, test_set=test_set)
        for layer in range(len(w0)):
            assert np.allclose(model.weights[layer], w0[layer] - 0.1 * mean_gw[layer], atol=1e-12)
            assert np.allclose(model.biases[layer], b0[layer] - 0.1 * mean_gb[layer], atol=1e-12)

    def test_momentum_and_decay_update_rule(self):
        # two full-batch steps, hand-stepped: v = mu*v + g; p -= lr*(v + wd*p)
        train_set, test_set = _tiny_blobs(n_per_class=5, classes=3)
        params = LossParams(beta=1.0)
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=0.01,
                          epochs=2, batch_size=train_set.n, seed=0)
        model = MlpModel.init((2, 3, 3), seed=4)
        twin = MlpModel.init((2, 3, 3), seed=4)

        vel_w = [np.zeros_like(W) for W in twin.weights]
        vel_b = [np.zeros_like(b) for b in twin.biases]
        for _ in range(2):
            _, gw, gb = _reference_grads(twin, decode(train_set.raw), train_set.labels, params)
            for L in range(len(twin.weights)):
                vel_w[L] = 0.9 * vel_w[L] + gw[L]
                vel_b[L] = 0.9 * vel_b[L] + gb[L]
                twin.weights[L] -= 0.05 * (vel_w[L] + 0.01 * twin.weights[L])
                twin.biases[L] -= 0.05 * (vel_b[L] + 0.01 * twin.biases[L])
        train(model, train_set, cfg, params, test_set=test_set)
        for L in range(len(model.weights)):
            assert np.allclose(model.weights[L], twin.weights[L], atol=1e-12)
            assert np.allclose(model.biases[L], twin.biases[L], atol=1e-12)

    def test_deterministic_metrics(self):
        train_set, test_set = _tiny_blobs(sigma=0.3)
        cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=20, seed=77)
        (observe_a, _, rows_a), (observe_b, _, rows_b) = _recorder(), _recorder()
        a = train(MlpModel.init((2, 8, 4), seed=77), train_set, cfg, LossParams(beta=0.5), test_set=test_set,
                  observe=observe_a)
        b = train(MlpModel.init((2, 8, 4), seed=77), train_set, cfg, LossParams(beta=0.5), test_set=test_set,
                  observe=observe_b)
        assert a.metrics == b.metrics
        assert np.stack(rows_a).tobytes() == np.stack(rows_b).tobytes()

    def test_separable_blobs_reach_high_accuracy(self):
        train_set, test_set = _tiny_blobs(sigma=0.02, classes=2, n_per_class=50)
        model = MlpModel.init((2, 8, 2), seed=0)
        res = train(model, train_set, TrainConfig(lr=0.1, momentum=0.9, epochs=30, batch_size=20, seed=0),
                    LossParams(beta=1.0), test_set=test_set)
        assert res.metrics[-1].train_acc == 1.0
        assert res.metrics[-1].test_acc == 1.0

    def test_well_separated_blobs_beta_one_50_epochs(self):
        train_set, test_set = _tiny_blobs(sigma=0.05, classes=4, n_per_class=40)
        model = MlpModel.init((2, 16, 4), seed=1)
        res = train(model, train_set, TrainConfig(lr=0.1, momentum=0.9, epochs=50, batch_size=16, seed=1),
                    LossParams(beta=1.0), test_set=test_set)
        assert res.metrics[-1].train_acc >= 0.99

    def test_divergence_reports_epoch_and_batch(self):
        train_set, test_set = _tiny_blobs()
        model = MlpModel.init((2, 8, 4), seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as exc:
                train(model, train_set, TrainConfig(lr=1e12, epochs=5, batch_size=32, seed=0),
                      LossParams(beta=1.0), test_set=test_set)
        assert exc.value.epoch >= 0 and exc.value.batch >= 0

    def test_a_diverged_run_observes_only_the_epochs_it_completed(self):
        train_set, test_set = _tiny_blobs(sigma=0.3)  # diverges in epoch 4, in the ragged batch
        observe, seen, rows = _recorder()
        with pytest.raises(TrainingDiverged) as exc:
            train(MlpModel.init((2, 8, 4), seed=0), train_set,
                  TrainConfig(lr=1e12, momentum=0.9, epochs=5, batch_size=48, seed=0),
                  LossParams(beta=1.0), test_set=test_set, observe=observe)
        assert exc.value.epoch == 4
        assert [m.epoch for m in seen] == [0, 1, 2, 3] and len(rows) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_observer_runs_outside_the_epochs_errstate(self):
        # train hides the overflows of a diverging epoch; an observer's own overflow must still warn
        train_set, test_set = _tiny_blobs()
        with pytest.raises(RuntimeWarning, match="overflow"):
            train(MlpModel.init((2, 8, 4), seed=0), train_set, TrainConfig(lr=0.05, batch_size=32),
                  LossParams(beta=1.0), test_set=test_set, observe=lambda metrics, p_true: np.exp(np.float64(1000)))

    def test_non_finite_logits_diverge_at_the_step_they_appear(self):
        # a linear model at lr 1e300: the third batch's logits are no longer finite,
        # and the logit check in beta_ce_batch is what reports it
        train_set, test_set = make_blobs(BlobsConfig(classes=10, n_per_class=50, sigma=0.3, radius=1.0, seed=42))
        for beta in (0.1, 1.0, 20.0):
            with pytest.raises(TrainingDiverged) as exc:
                train(MlpModel.init((2, 10), seed=7), train_set,
                      TrainConfig(lr=1e300, momentum=0.9, weight_decay=1e-4, seed=7),
                      LossParams(beta=beta), test_set=test_set)
            assert (exc.value.epoch, exc.value.batch) == (0, 2)
            assert str(exc.value.__cause__) == "all logits must be finite"

    def test_one_beta_ce_batch_call_per_step(self, monkeypatch):
        # bench/spans.py times the loss by wrapping gradient_decay.mlp:beta_ce_batch;
        # a trainer that went around that binding would drop the loss from every sweep's spans
        calls = []

        def counted(Z, y, p):
            calls.append(Z.shape[0])
            return beta_ce_batch(Z, y, p)

        monkeypatch.setattr(mlp, "beta_ce_batch", counted)
        train_set, test_set = _tiny_blobs(sigma=0.3)  # 128 rows: batches of 48, 48 and 32
        train(MlpModel.init((2, 8, 4), seed=0), train_set,
              TrainConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=48, seed=0),
              LossParams(beta=0.5), test_set=test_set)
        assert calls == [48, 48, 32] * 3

    def test_metrics_are_python_floats(self):
        # the CSV writers print repr(), and a numpy float64 would print as np.float64(...)
        train_set, test_set = _tiny_blobs(sigma=0.3)
        res = train(MlpModel.init((2, 8, 4), seed=0), train_set,
                    TrainConfig(lr=0.05, momentum=0.9, epochs=2, batch_size=48, seed=0),
                    LossParams(beta=0.5), test_set=test_set)
        for m in res.metrics:
            for field in ("train_loss", "train_acc", "test_acc", "mean_conf"):
                assert type(getattr(m, field)) is float, field

    def test_parameters_stay_finite(self):
        train_set, test_set = _tiny_blobs(sigma=0.3)
        model = MlpModel.init((2, 8, 4), seed=0)
        train(model, train_set, TrainConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=20, seed=0),
              LossParams(beta=0.1), test_set=test_set)
        for W in model.weights:
            assert np.isfinite(W).all()

    def test_warmup_per_iteration_reaches_end_value(self):
        train_set, test_set = _tiny_blobs()
        steps_per_epoch = train_set.n // 40
        sched = WarmupSchedule(0.1, 2.0, steps_per_epoch)  # warm for exactly one epoch
        model = MlpModel.init((2, 8, 4), seed=0)
        res = train(model, train_set, TrainConfig(lr=0.01, epochs=3, batch_size=40, seed=0),
                    LossParams(beta=1.0), warmup=sched, test_set=test_set)
        assert res.metrics[-1].beta == 2.0

    def test_traces_shape_and_range(self):
        train_set, test_set = _tiny_blobs()
        model = MlpModel.init((2, 8, 4), seed=0)
        observe, _, rows = _recorder()
        train(model, train_set, TrainConfig(lr=0.05, epochs=3, batch_size=32, seed=0),
              LossParams(beta=1.0), test_set=test_set, observe=observe)
        traces = np.stack(rows)
        assert traces.shape == (3, train_set.n)
        assert traces.dtype == np.float64
        assert np.all((traces >= 0.0) & (traces <= 1.0))

    def test_trace_rows_are_every_samples_p_true_after_each_epoch(self):
        # the observer's row e is bitwise the train_p_true of the same run stopped after epoch e
        train_set, test_set = _tiny_blobs()
        params = LossParams(beta=1.0)
        observe, _, traces = _recorder()
        train(MlpModel.init((2, 8, 4), seed=0), train_set, TrainConfig(lr=0.05, epochs=3, batch_size=32),
              params, test_set=test_set, observe=observe)
        for epoch in range(3):
            short = train(MlpModel.init((2, 8, 4), seed=0), train_set,
                          TrainConfig(lr=0.05, epochs=epoch + 1, batch_size=32), params, test_set=test_set)
            assert traces[epoch].tobytes() == short.train_p_true.tobytes()

    def test_labels_beyond_the_output_layer_rejected_before_training(self):
        train_set, test_set = _tiny_blobs(classes=4)
        model = MlpModel.init((2, 8, 3), seed=0)
        with pytest.raises(ValueError, match="outside the model's 3 outputs"):
            train(model, train_set, TrainConfig(lr=0.1, batch_size=32), LossParams(beta=1.0), test_set=test_set)
        model = MlpModel.init((2, 8, 4), seed=0)
        wide = Dataset(decode(test_set.raw), np.full(test_set.n, 4), "test")
        with pytest.raises(ValueError, match="test label 4"):
            train(model, train_set, TrainConfig(lr=0.1, batch_size=32), LossParams(beta=1.0), test_set=wide)

    @pytest.mark.parametrize("which", ["training", "test"])
    def test_empty_sets_rejected_before_training(self, which):
        # an empty test set used to train every epoch, then divide by its zero size
        train_set, test_set = _tiny_blobs()
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), "train" if which == "training" else "test")
        sets = (empty, test_set) if which == "training" else (train_set, empty)
        model = MlpModel.init((2, 8, 4), seed=0)
        with pytest.raises(ValueError, match=f"{which} set is empty"):
            train(model, sets[0], TrainConfig(lr=0.1, batch_size=32), LossParams(beta=1.0), test_set=sets[1])

    @pytest.mark.parametrize("bad", [
        pytest.param({"lr": -0.1}, id="lr=-0.1"),
        pytest.param({"lr": float("inf")}, id="lr=inf"),
        pytest.param({"lr": float("nan")}, id="lr=nan"),
        pytest.param({"momentum": 1.0}, id="momentum=1.0"),
        pytest.param({"weight_decay": float("inf")}, id="weight_decay=inf"),
        pytest.param({"batch_size": 0}, id="batch_size=0"),
        pytest.param({"epochs": 0}, id="epochs=0"),
        pytest.param({"seed": -1}, id="seed=-1"),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**{"lr": 0.1, **bad})

    @pytest.mark.parametrize("rows", [32, 160], ids=["batch", "dataset"])
    def test_a_per_row_beta_is_rejected_before_the_first_step(self, rows):
        # the kernel's length check is a ValueError too, which train would report as TrainingDiverged(0, 0)
        train_set, test_set = _tiny_blobs()
        model = MlpModel.init((2, 8, 4), seed=0)
        before = [w.copy() for w in model.weights]
        with pytest.raises(ValueError, match="beta must be one real for train"):
            train(model, train_set, TrainConfig(lr=0.1, batch_size=32), LossParams(beta=np.ones(rows)),
                  test_set=test_set)
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, before))

    def test_batch_size_validation(self):
        train_set, test_set = _tiny_blobs(n_per_class=5)
        model = MlpModel.init((2, 4, 4), seed=0)
        with pytest.raises(ValueError):
            train(model, train_set, TrainConfig(lr=0.1, batch_size=10_000), LossParams(beta=1.0), test_set=test_set)

    def test_test_set_is_a_required_keyword(self):
        # every run ends each epoch with a test evaluation; there is no test-less run
        train_set, test_set = _tiny_blobs()
        cfg, params = TrainConfig(lr=0.1, batch_size=32), LossParams(beta=1.0)
        with pytest.raises(TypeError, match="test_set"):
            train(MlpModel.init((2, 8, 4), seed=0), train_set, cfg, params)
        with pytest.raises(TypeError):
            train(MlpModel.init((2, 8, 4), seed=0), train_set, cfg, params, None, test_set)


def _idx_pair(tmp_path, prefix, n, seed):
    """A 28x28 IDX image/label pair of n rows: class prototypes plus noise, ten classes."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    prototypes = rng.integers(0, 256, (10, 784))
    images = np.clip(prototypes[labels] * rng.uniform(0.2, 1.0, (n, 1)) + rng.normal(0, 60, (n, 784)), 0, 255)
    ip, lp = tmp_path / f"{prefix}-images-idx3-ubyte", tmp_path / f"{prefix}-labels-idx1-ubyte"
    write_idx_images(ip, images.astype(np.uint8).reshape(n, 28, 28))
    write_idx_labels(lp, labels)
    return ip, lp


class TestCodedInputs:
    """uint8 codes decoded per batch and per block give the run of their float64 decode."""

    @pytest.mark.parametrize("rows", [_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 7, 3 * _BLOCK_ROWS - 100])
    def test_blocked_forward_equals_the_decoded_forward(self, rows):
        codes = np.random.default_rng(rows).integers(0, 256, (rows, 784), dtype=np.uint8)
        model = MlpModel.init((784, 50, 20, 10), seed=1)
        want = model.forward(decode(codes))
        assert want.tobytes() == model.forward(codes.astype(np.float64) / 255.0).tobytes()
        assert model.forward(codes).tobytes() == want.tobytes()
        acts = [np.empty((rows, d)) for d in (50, 20, 10)]
        assert model.forward(codes, acts) is acts[-1] and acts[-1].tobytes() == want.tobytes()

    def test_short_coded_inputs_are_one_block(self):
        codes = np.random.default_rng(0).integers(0, 256, (7, 784), dtype=np.uint8)
        model = MlpModel.init((784, 16, 10), seed=2)
        assert model.forward(codes).tobytes() == model.forward(codes / 255.0).tobytes()
        assert model.forward(codes[3:4]).tobytes() == model.forward(codes[3:4] / 255.0).tobytes()

    def test_uint8_run_is_bitwise_its_float64_twin(self, tmp_path):
        n_train, n_test = 2 * _BLOCK_ROWS + 10, _BLOCK_ROWS + 20  # a short last eval block each
        train_set = load_mnist_idx(*_idx_pair(tmp_path, "train", n_train, 0), "train")
        test_set = load_mnist_idx(*_idx_pair(tmp_path, "t10k", n_test, 1), "test")
        assert train_set.raw.dtype == np.uint8 and test_set.raw.dtype == np.uint8
        twins = [Dataset(decode(d.raw), d.labels, d.split) for d in (train_set, test_set)]
        assert twins[0].raw.dtype == np.float64
        cfg = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, batch_size=64, epochs=3, seed=4)
        assert n_train % cfg.batch_size != 0
        sched = WarmupSchedule(0.05, 1.0, 40)
        runs = []
        for train_data, test_data in ((train_set, test_set), twins):
            model = MlpModel.init((784, 32, 16, 10), seed=4)
            observe, _, rows = _recorder()
            res = train(model, train_data, cfg, LossParams(beta=1.0), warmup=sched, test_set=test_data,
                        observe=observe)
            runs.append((model, res, rows))
        (model, res, rows), (twin, want, want_rows) = runs
        assert res.metrics == want.metrics
        assert res.test_logits.tobytes() == want.test_logits.tobytes()
        assert res.train_p_true.tobytes() == want.train_p_true.tobytes()
        assert np.stack(rows).tobytes() == np.stack(want_rows).tobytes()
        for got, ref in zip(model.weights + model.biases, twin.weights + twin.biases):
            assert got.tobytes() == ref.tobytes()

    def test_no_float64_feature_matrix_is_allocated(self, tmp_path):
        n, dim = 4000, 784
        paths = _idx_pair(tmp_path, "train", n, 3)
        model = MlpModel.init((dim, 16, 10), seed=0)
        tracemalloc.start()
        try:
            train_set = load_mnist_idx(*paths)
            train(model, train_set, TrainConfig(lr=0.01, batch_size=100, epochs=1), LossParams(beta=1.0),
                  test_set=train_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file's bytes (n * dim), one decode block and the (n, 26) activations stay far below
        assert peak < n * dim * 8


class TestDifficultyGroups:
    def _const_traces(self, values, epochs=10):
        return np.tile(np.asarray(values, dtype=float), (epochs, 1))

    def test_single_group_is_global_mean(self):
        traces = self._const_traces([0.1, 0.5, 0.9])
        g = difficulty_groups(traces, k=1)
        assert np.allclose(g.group_means[0], traces.mean(axis=1))
        assert np.all(g.assignment == 1)

    def test_ordered_constant_traces_identity_ranking(self):
        traces = self._const_traces([0.5, 0.1, 0.9, 0.3, 0.7])
        g = difficulty_groups(traces, k=5)
        # sample ranked by confidence: 0.1 < 0.3 < 0.5 < 0.7 < 0.9
        assert list(g.assignment) == [3, 1, 5, 2, 4]

    def test_ties_break_by_sample_id(self):
        traces = self._const_traces([0.5, 0.5, 0.5, 0.5])
        g = difficulty_groups(traces, k=2)
        assert list(g.assignment) == [1, 1, 2, 2]

    def test_order_is_by_score_then_sample_index(self):
        # ties (-0.0 with 0.0 among them) break by index, and NaN scores sort last
        rng = np.random.default_rng(3)
        for _ in range(50):
            traces = rng.choice([-0.0, 0.0, 0.25, 0.5, np.nan], size=(1, 30))
            g = difficulty_groups(traces, k=30)
            order = np.lexsort((np.arange(30), traces[0]))
            assert g.assignment[order].tolist() == list(range(1, 31))

    def test_group_means_shape(self):
        rng = np.random.default_rng(0)
        traces = rng.uniform(0, 1, (8, 20))
        g = difficulty_groups(traces, k=5)
        assert g.group_means.shape == (5, 8)
        counts = np.bincount(g.assignment)[1:]
        assert np.all(counts == 4)

    def test_too_few_samples(self):
        traces = self._const_traces([0.1, 0.9])
        with pytest.raises(ValueError):
            difficulty_groups(traces, k=5)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4), (0, 6)], ids=["one_d", "three_d", "no_epochs"])
    def test_traces_must_be_an_epochs_by_samples_matrix(self, shape):
        message = f"traces must be an (epochs, n) matrix with at least one epoch, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            difficulty_groups(np.zeros(shape), k=1)

    @pytest.mark.parametrize("epochs, early", [(1, 1), (4, 1), (5, 1), (6, 2), (10, 2), (11, 3)])
    def test_score_is_the_mean_over_the_first_fifth_of_epochs(self, epochs, early):
        # every epoch after the window reverses the window's ranking, so one of them in the score would show
        rng = np.random.default_rng(epochs)
        traces = np.empty((epochs, 12))
        traces[:early] = rng.uniform(0.0, 1.0, (early, 12))
        score = traces[:early].mean(axis=0)
        traces[early:] = -1e6 * score
        g = difficulty_groups(traces, k=12)
        assert g.assignment[np.argsort(score)].tolist() == list(range(1, 13))

    @staticmethod
    def _lexsort_groups(traces, k):
        """The groups as built on np.lexsort((sample index, score)) before traces were a plain matrix."""
        epochs, n = traces.shape
        early = max(1, math.ceil(0.2 * epochs))
        order = np.lexsort((np.arange(n), traces[:early].mean(axis=0)))
        assignment = np.zeros(n, dtype=np.int64)
        group_means = np.zeros((k, epochs))
        for j, chunk in enumerate(np.array_split(order, k)):
            assignment[chunk] = j + 1
            group_means[j] = traces[:, chunk].mean(axis=1)
        return assignment, group_means

    @pytest.mark.parametrize("values, shape, k", [
        (None, (10, 40), 5),
        ([0.5], (5, 12), 4),
        ([-0.0, 0.0], (1, 30), 7),
        ([np.nan, 0.2, 0.7], (3, 30), 6),
        ([-np.inf, 0.5, 1.0], (2, 25), 5),
        ([0.0, 0.5, 1.0], (10, 50), 10),
        (None, (4, 23), 5),
        ([0.25, 0.75, np.nan, -0.0], (3, 17), 17),
    ], ids=["distinct", "all_tied", "signed_zeros", "nan", "minus_infinity", "ties_across_epochs",
            "ragged_groups", "one_sample_per_group"])
    def test_groups_are_bitwise_the_lexsort_groups(self, values, shape, k):
        rng = np.random.default_rng(shape[1])
        traces = rng.uniform(0.0, 1.0, shape) if values is None else rng.choice(values, size=shape)
        assignment, group_means = self._lexsort_groups(traces, k)
        g = difficulty_groups(traces, k)
        assert g.assignment.tolist() == assignment.tolist()
        assert g.group_means.tobytes() == group_means.tobytes()

