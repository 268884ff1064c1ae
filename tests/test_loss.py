"""Unit and property tests for the gradient-decay loss core."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradient_decay.calibration import PredictionSet
from gradient_decay.loss import (
    LossParams,
    batch_losses,
    batch_p_true,
    beta_ce_batch,
    class_max,
    curvature,
    gradient_magnitude,
    inflection_point,
    local_lipschitz_bound,
    logit_curvature,
    magnitude_derivatives,
    suggested_learning_rate,
)
from gradient_decay.verify import _SCAN_BLOCK, _draw_trials, _grid_block

UNIFORM10 = (np.zeros(10), 0)


@st.composite
def labeled_logits(draw, lo=-30.0, hi=30.0, max_m=16):
    """(z, c): the logits of one sample and its true class."""
    m = draw(st.integers(2, max_m))
    z = draw(
        st.lists(st.floats(lo, hi, allow_nan=False), min_size=m, max_size=m)
    )
    c = draw(st.integers(0, m - 1))
    return np.asarray(z), c


def row_loss(x, p):
    """The loss of one sample (z, c): batch_losses on a one-row matrix."""
    z, c = x
    return float(batch_losses(np.asarray(z)[None], np.array([c]), p)[0])


def row_eval(x, p):
    """beta_ce_batch on a one-row matrix, the one sample (z, c)."""
    z, c = x
    return beta_ce_batch(np.asarray(z)[None], np.array([c]), p)


betas = st.one_of(
    st.sampled_from([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]),
    st.floats(0.01, 100.0),
)


class TestBetaCeLoss:
    def test_uniform_logits_values(self):
        # J at uniform logits is log(m - 1 + beta)
        assert row_loss(UNIFORM10, LossParams(beta=1.0)) == pytest.approx(
            2.302585092994046, rel=1e-12
        )
        assert row_loss(UNIFORM10, LossParams(beta=0.1)) == pytest.approx(
            2.2082744135228043, rel=1e-12
        )
        assert row_loss(UNIFORM10, LossParams(beta=5.0)) == pytest.approx(
            2.6390573296152584, rel=1e-12
        )

    @given(labeled_logits(), betas, st.floats(-50, 50))
    @settings(max_examples=200)
    def test_shift_invariance(self, x, beta, k):
        p = LossParams(beta=beta)
        a = row_loss(x, p)
        b = row_loss((x[0] + k, x[1]), p)
        assert abs(a - b) < 1e-10

    @given(labeled_logits(), betas)
    @settings(max_examples=200)
    def test_loss_above_log_beta(self, x, beta):
        j = row_loss(x, LossParams(beta=beta))
        assert j >= math.log(beta) - 1e-12
        if beta >= 1.0:
            assert j >= 0.0

    @given(labeled_logits(lo=-10.0, hi=10.0), betas)
    @settings(max_examples=200)
    def test_loss_strictly_above_log_beta_on_moderate_logits(self, x, beta):
        assert row_loss(x, LossParams(beta=beta)) > math.log(beta)

    def test_beta_one_is_standard_cross_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.uniform(-8, 8, int(rng.integers(2, 12)))
            c = int(rng.integers(z.size))
            j = row_loss((z, c), LossParams(beta=1.0))
            ref = math.log(np.exp(z - z.max()).sum()) + z.max() - z[c]
            assert j == pytest.approx(ref, abs=1e-12)


class TestBetaCeEval:
    def test_uniform_logits_standard_ce(self):
        grad = row_eval(UNIFORM10, LossParams(beta=1.0)).grads[0]
        assert grad[0] == pytest.approx(-0.9, abs=1e-15)
        assert np.allclose(grad[1:], 0.1, atol=1e-15)

    def test_uniform_logits_small_beta(self):
        # denominators 1 + (beta-1) * 0.1 = 0.91 and 1.4
        grad = row_eval(UNIFORM10, LossParams(beta=0.1)).grads[0]
        assert grad[0] == pytest.approx(-0.989010989010989, rel=1e-12)
        assert np.allclose(grad[1:], 0.10989010989010989, rtol=1e-12)

    def test_uniform_logits_large_beta(self):
        grad = row_eval(UNIFORM10, LossParams(beta=5.0)).grads[0]
        assert grad[0] == pytest.approx(-0.6428571428571429, rel=1e-12)
        assert np.allclose(grad[1:], 0.07142857142857144, rtol=1e-12)

    @given(labeled_logits(), betas)
    @settings(max_examples=300)
    def test_eval_invariants(self, x, beta):
        be, c = row_eval(x, LossParams(beta=beta)), x[1]
        grad = be.grads[0]
        assert abs(be.probs[0].sum() - 1.0) < 1e-12
        assert 0.0 < be.p_true[0] < 1.0
        assert grad[c] <= 0.0
        others = np.delete(grad, c)
        assert np.all(others >= 0.0)
        assert abs(grad.sum()) < 1e-12
        assert abs(abs(grad[c]) - others.sum()) < 1e-12
        assert be.losses[0] >= math.log(beta) - 1e-12

    @given(labeled_logits(max_m=8), betas, st.floats(0.05, 5.0))
    @settings(max_examples=150)
    def test_temperature_chain_rule(self, x, beta, tau):
        # grad at temperature tau equals grad of the tau=1 loss at z/tau, scaled by 1/tau
        grad = row_eval(x, LossParams(beta=beta, tau=tau)).grads
        ref = row_eval((x[0] / tau, x[1]), LossParams(beta=beta)).grads
        assert np.allclose(grad, ref / tau, rtol=1e-9, atol=1e-12)

    def test_saturated_probability_is_clamped(self):
        be = row_eval((np.array([200.0, -200.0]), 0), LossParams(beta=1.0))
        assert be.p_true[0] == 1.0 - 1e-12
        assert np.isfinite(be.grads).all()

    @pytest.mark.parametrize("z, c", [([0.0, 1.0], 1), ([-1e308, 2.0, -3.0], 1), ([5.0, -5.0], 0)])
    def test_tiny_temperature_gives_finite_probabilities_and_gradient(self, z, c):
        # z/tau overflows; shifting by z/tau's maximum used to give inf - inf = NaN.  (With c
        # not the argmax, the loss and gradient are of order 1/tau and overflow for real.)
        x, p = (np.array(z), c), LossParams(beta=0.5, tau=1e-320)
        with np.errstate(over="ignore"):
            be = row_eval(x, p)
            assert be.losses[0] == row_loss(x, p)
            assert np.array_equal(PredictionSet.from_logits(np.array(z)[None], [c], p.tau).probs[0], be.probs[0])
        assert np.isfinite(be.grads).all() and np.isfinite(be.losses).all()
        assert np.array_equal(be.probs[0], np.eye(len(z))[int(np.argmax(z))])


class TestBatchEval:
    def test_matches_per_sample(self):
        # every field of every row is bitwise the one-row call on that sample, at any tau
        rng = np.random.default_rng(3)
        Z = rng.uniform(-6, 6, (40, 7))
        y = rng.integers(0, 7, 40)
        for params in (LossParams(beta=0.1), LossParams(beta=5.0, tau=0.5), LossParams(beta=1.0)):
            be = beta_ce_batch(Z, y, params)
            for k in range(Z.shape[0]):
                one = row_eval((Z[k], int(y[k])), params)
                assert be.losses[k] == one.losses[0]
                assert np.array_equal(be.grads[k], one.grads[0])
                assert np.array_equal(be.probs[k], one.probs[0])
                assert be.p_true[k] == one.p_true[0]

    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    def test_stacked_rows_are_bitwise_the_one_row_calls(self, offset, tau):
        # verify stacks its trials per logit width into one kernel call; its
        # report stays byte-identical only if no row depends on the others
        rng = np.random.default_rng(8)
        for m in range(2, 21):
            Z = offset + rng.uniform(-5.0, 5.0, (12, m))
            y = rng.integers(0, m, 12)
            for beta in (0.01, 1.0, 20.0):
                params = LossParams(beta=beta, tau=tau)
                be, losses = beta_ce_batch(Z, y, params), batch_losses(Z, y, params)
                for k in range(len(Z)):
                    one = beta_ce_batch(Z[k:k + 1], y[k:k + 1], params)
                    for field in ("losses", "grads", "probs", "p_true"):
                        assert np.array_equal(getattr(be, field)[k], getattr(one, field)[0]), (m, beta, k, field)
                    assert losses[k] == batch_losses(Z[k:k + 1], y[k:k + 1], params)[0]

    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_per_row_beta_rows_are_bitwise_the_scalar_beta_calls(self, offset, tau):
        # verify tiles each width group's stack once per beta into one call with a
        # per-row beta; its report stays byte-identical only if each block of rows
        # has the bits of the scalar-beta call on it
        betas = [0.001, 0.01, 1.0, 5.0, 1000.0]
        for Z, c in _draw_trials(np.random.default_rng(11), 120):
            Z = Z + offset
            k = len(Z)
            tiled, labels = np.tile(Z, (len(betas), 1)), np.tile(c, len(betas))
            params = LossParams(beta=np.repeat(betas, k), tau=tau)
            be = beta_ce_batch(tiled, labels, params)
            losses, p_true = batch_losses(tiled, labels, params), batch_p_true(tiled, labels, params)
            for i, beta in enumerate(betas):
                block = slice(i * k, (i + 1) * k)
                one = beta_ce_batch(Z, c, LossParams(beta=beta, tau=tau))
                for field in ("losses", "grads", "probs", "p_true"):
                    assert getattr(be, field)[block].tobytes() == getattr(one, field).tobytes(), (Z.shape, beta, field)
                assert losses[block].tobytes() == batch_losses(Z, c, LossParams(beta=beta, tau=tau)).tobytes()
                assert p_true[block].tobytes() == batch_p_true(Z, c, LossParams(beta=beta, tau=tau)).tobytes()

    @pytest.mark.parametrize("kernel", [beta_ce_batch, batch_p_true, batch_losses])
    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_a_beta_array_of_the_wrong_length_names_beta(self, kernel, length):
        # not numpy's broadcast error: a one-entry array would even broadcast silently
        with pytest.raises(ValueError, match="beta must be one real or hold one entry per logit row"):
            kernel(np.zeros((4, 3)), np.zeros(4, dtype=int), LossParams(beta=np.ones(length)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            beta_ce_batch(np.zeros((4, 1)), np.zeros(4, dtype=int), LossParams(beta=1.0))
        with pytest.raises(ValueError):
            beta_ce_batch(np.zeros((4, 3)), np.zeros(5, dtype=int), LossParams(beta=1.0))

    @pytest.mark.parametrize("kernel", [beta_ce_batch, batch_p_true, batch_losses])
    @pytest.mark.parametrize("labels", [[-1], [3], [0.0], [True]])
    def test_labels_must_be_integers_inside_the_columns(self, kernel, labels):
        # -1 used to wrap to the last class, 0.0 to raise a bare IndexError
        with pytest.raises(ValueError, match="labels must"):
            kernel(np.zeros((1, 3)), np.array(labels), LossParams(beta=1.0))

    def test_p_true_kernel_is_bitwise_the_batch_column(self):
        rng = np.random.default_rng(4)
        Z = rng.uniform(-30, 30, (50, 6))
        y = rng.integers(0, 6, 50).astype(np.uint8)
        for params in (LossParams(beta=0.1), LossParams(beta=5.0, tau=0.5), LossParams(beta=1.0)):
            assert np.array_equal(batch_p_true(Z, y, params), beta_ce_batch(Z, y, params).p_true)

    def test_losses_kernel_is_bitwise_the_batch_column(self):
        rng = np.random.default_rng(5)
        Z = rng.uniform(-30, 30, (50, 6))
        y = rng.integers(0, 6, 50)
        for params in (LossParams(beta=0.1), LossParams(beta=5.0, tau=0.5), LossParams(beta=1.0)):
            assert np.array_equal(batch_losses(Z, y, params), beta_ce_batch(Z, y, params).losses)

    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    def test_losses_rows_are_bitwise_the_scalar_loss(self, offset, tau):
        # verify's finite differences stack every perturbed row into one
        # batch_losses call; its report stays byte-identical only if each row
        # is the float64 value of the one-row call on it, for logits near 0
        # ("max") and near 1000, where exp() of an unshifted logit overflows
        # ("large"), alike.
        rng = np.random.default_rng(6)
        for m in range(2, 21):
            z = offset + rng.uniform(-5.0, 5.0, m)
            perturbed = np.tile(z, (2 * m, 1))
            perturbed[np.arange(m), np.arange(m)] += 1e-5
            perturbed[m + np.arange(m), np.arange(m)] -= 1e-5
            Z = np.vstack([perturbed, offset + rng.uniform(-5.0, 5.0, (8, m))])
            y = rng.integers(0, m, Z.shape[0])
            for beta in (0.01, 0.37, 1.0, 20.0):
                params = LossParams(beta=beta, tau=tau)
                losses = batch_losses(Z, y, params)
                for k in range(Z.shape[0]):
                    assert losses[k] == row_loss((Z[k], int(y[k])), params)

    @pytest.mark.parametrize("kernel", [beta_ce_batch, batch_p_true, batch_losses])
    def test_range_checks_shared(self, kernel):
        with pytest.raises(ValueError, match="finite"):
            kernel(np.array([[np.inf, 0.0]]), np.array([0]), LossParams(beta=1.0))

    @pytest.mark.parametrize("m", [2, 3])
    def test_extreme_logits_keep_the_denominator_in_range(self, m):
        # Subtracting the row maximum leaves one exp(0) = 1 in every row, so the
        # loss denominator lies in [min(beta, 1), m + beta], up to rounding, whatever the logits:
        # the loss is never NaN and never below log(min(beta, 1)).
        big = np.finfo(np.float64).max
        vals = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, big, -big, 700.0, -745.0, 1e-300]
        Z = np.repeat(np.array(list(itertools.product(vals, repeat=m))), m, axis=0)
        y = np.tile(np.arange(m), len(Z) // m)
        # big - (-big) is inf before the division by tau; at tau 5e-324 the
        # gradients' denominator tau * (1 + (beta-1) p_c) underflows, so only
        # the losses and p_true are checked here
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for beta in (5e-324, 1e-8, 0.5, 1.0, 20.0, 1e300, big):
                for tau in (5e-324, 1e-300, 0.01, 1.0, 1e300):
                    params = LossParams(beta=beta, tau=tau)
                    losses = batch_losses(Z, y, params)
                    assert not np.isnan(losses).any()
                    assert np.all(losses >= math.log(min(beta, 1.0)) - 1e-12)
                    assert np.array_equal(beta_ce_batch(Z, y, params).losses, losses)
                    p_true = batch_p_true(Z, y, params)
                    assert np.all((p_true >= 1e-12) & (p_true <= 1.0 - 1e-12))
                    for k in range(0, len(Z), 97):
                        assert row_loss((Z[k], int(y[k])), params) == losses[k]


def _row_max_batch(Z, y, p):
    """beta_ce_batch with the row maximum taken by Z.max(axis=1) and np.clip, as an allocating reference."""
    rows = np.arange(Z.shape[0])
    W = (Z - Z.max(axis=1, keepdims=True)) / p.tau
    E = np.exp(W)
    sums = E.sum(axis=1)
    ec = E[rows, y]
    losses = np.log(sums - ec + p.beta * ec) - W[rows, y]
    probs = E / sums[:, None]
    pc_raw = probs[rows, y]
    pc = np.clip(pc_raw, 1e-12, 1.0 - 1e-12)
    denom = p.tau * (1.0 + (p.beta - 1.0) * pc)
    grads = probs / denom[:, None]
    grads[rows, y] = -(1.0 - pc_raw) / denom
    return losses, grads, probs, pc


def _zero_tie_rows(m):
    """Rows whose maximum is a tie of -0.0 and +0.0, in every sign pattern over the first six
    columns, the rest -1; then each row reversed, so the zeros also sit at the end."""
    rows = []
    for k in range(2, min(m, 6) + 1):
        for signs in itertools.product((0.0, -0.0), repeat=k):
            row = np.full(m, -1.0)
            row[:k] = signs
            rows.append(row)
    rows = np.array(rows)
    return np.vstack([rows, rows[:, ::-1]])


class TestClassMax:
    @pytest.mark.parametrize("m", range(2, 21))
    def test_bitwise_the_row_max(self, m):
        rng = np.random.default_rng(20240811 + m)
        for n in (1, 4095, 4096, 4097, 60000):
            Z = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, (n, 1))
            assert class_max(Z).tobytes() == Z.max(axis=1).tobytes(), n
        assert class_max(np.asfortranarray(Z)).tobytes() == Z.max(axis=1).tobytes()
        assert class_max(Z[::3, ::-1]).tobytes() == Z[::3, ::-1].max(axis=1).tobytes()

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    @pytest.mark.parametrize("m", [2, 3, 9, 10, 17])
    def test_beta_ce_batch_keeps_its_bits_on_zero_ties(self, m, tau):
        Z = _zero_tie_rows(m)
        y = np.arange(len(Z)) % m
        for beta in (0.1, 1.0, 20.0):
            params = LossParams(beta=beta, tau=tau)
            be = beta_ce_batch(Z, y, params)
            losses, grads, probs, pc = _row_max_batch(Z, y, params)
            assert be.losses.tobytes() == losses.tobytes()
            assert be.grads.tobytes() == grads.tobytes()
            assert be.probs.tobytes() == probs.tobytes()
            assert be.p_true.tobytes() == pc.tobytes()
            assert batch_p_true(Z, y, params).tobytes() == pc.tobytes()
            assert batch_losses(Z, y, params).tobytes() == losses.tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_beta_ce_batch_keeps_the_bits_of_the_row_max_kernel(self, offset, tau):
        rng = np.random.default_rng(11)
        for m in (2, 7, 10, 20):
            Z = offset + rng.uniform(-8.0, 8.0, (400, m))
            y = rng.integers(0, m, 400)
            for beta, layout in itertools.product((0.01, 1.0, 20.0), (np.ascontiguousarray, np.asfortranarray)):
                be = beta_ce_batch(layout(Z), y, LossParams(beta=beta, tau=tau))
                want = _row_max_batch(layout(Z), y, LossParams(beta=beta, tau=tau))
                for got, ref in zip((be.losses, be.grads, be.probs, be.p_true), want):
                    assert got.tobytes() == ref.tobytes(), (m, beta, layout)

    @pytest.mark.parametrize("kernel", [beta_ce_batch, batch_p_true])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, kernel, bad):
        Z = np.zeros((5, 4))
        Z[3, 2] = bad
        with pytest.raises(ValueError, match="^all logits must be finite$"):
            kernel(Z, np.zeros(5, dtype=np.int64), LossParams(beta=1.0))


class TestGradientMagnitude:
    def test_point_values(self):
        assert gradient_magnitude(0.5, 1.0) == 0.5
        assert gradient_magnitude(0.5, 0.1) == pytest.approx(0.9090909090909091, rel=1e-12)
        assert gradient_magnitude(0.5, 5.0) == pytest.approx(0.16666666666666666, rel=1e-12)

    def test_extreme_beta_limits(self):
        assert gradient_magnitude(0.5, 1e-8) >= 1.0 - 1e-7
        assert gradient_magnitude(0.5, 1e8) <= 1e-7

    @given(betas)
    def test_strictly_decreasing_and_bounded(self, beta):
        p = np.linspace(1e-6, 1 - 1e-6, 2000)
        g = gradient_magnitude(p, beta)
        assert np.all(np.diff(g) < 0)
        assert np.all((g > 0) & (g < 1))

    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.1, 1.0, 5.0, 20.0, 1000.0])
    def test_is_the_true_class_gradient_that_training_computes(self, beta):
        # at tau=1 no drawn p_c reaches the P_CLAMP floor, so the kernel's -grads[c] is G to the bit;
        # at tau != 1 the two differ by up to P_CLAMP / min(1, beta) where the floor binds
        for Z, c in _draw_trials(np.random.default_rng(0), 200):
            be = beta_ce_batch(Z, c, LossParams(beta=beta))
            G = -be.grads[np.arange(len(c)), c]
            assert G.tobytes() == gradient_magnitude(be.p_true, beta).tobytes()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gradient_magnitude(0.0, 1.0)
        with pytest.raises(ValueError):
            gradient_magnitude(1.0, 1.0)
        with pytest.raises(ValueError):
            gradient_magnitude(0.5, 0.0)


class TestMagnitudeDerivatives:
    def test_beta_one_collapses(self):
        for p in (0.1, 0.5, 0.9):
            dg, d2g = magnitude_derivatives(p, 1.0)
            assert dg == -1.0
            assert d2g == 0.0

    def test_point_values(self):
        dg, d2g = magnitude_derivatives(0.5, 0.1)
        assert dg == pytest.approx(-0.33057851239669417, rel=1e-12)
        assert d2g == pytest.approx(-1.0818933132982718, rel=1e-12)
        dg, d2g = magnitude_derivatives(0.5, 5.0)
        assert dg == pytest.approx(-0.5555555555555556, rel=1e-12)
        assert d2g == pytest.approx(1.4814814814814814, rel=1e-12)

    def test_first_derivative_matches_finite_differences(self):
        h = 1e-6
        for beta in (0.05, 0.7, 3.0, 12.0):
            for p in (0.05, 0.3, 0.7, 0.95):
                fd = (gradient_magnitude(p + h, beta) - gradient_magnitude(p - h, beta)) / (2 * h)
                assert magnitude_derivatives(p, beta)[0] == pytest.approx(fd, rel=1e-7)

    def test_second_derivative_matches_finite_differences(self):
        h = 1e-5
        for beta in (0.05, 0.7, 3.0, 12.0):
            for p in (0.2, 0.5, 0.8):
                fd = (
                    gradient_magnitude(p + h, beta)
                    - 2 * gradient_magnitude(p, beta)
                    + gradient_magnitude(p - h, beta)
                ) / h**2
                assert magnitude_derivatives(p, beta)[1] == pytest.approx(fd, rel=1e-4)

    @given(betas)
    def test_sign_structure(self, beta):
        p = np.linspace(1e-4, 1 - 1e-4, 1000)
        dg, d2g = magnitude_derivatives(p, beta)
        assert np.all(dg < 0)
        if beta > 1:
            assert np.all(d2g > 0)
        elif beta < 1:
            assert np.all(d2g < 0)
        else:
            assert np.all(d2g == 0)


    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_scalar_gets_the_bits_of_the_array_element(self, beta):
        # an array's d**3 takes numpy's SIMD pow and a scalar's d**2 C pow; both
        # miss the exact product for some inputs, so the powers are products
        p = np.random.default_rng(20240811).uniform(0.0, 1.0, 20_000)
        xs = p.tolist()
        d = [1.0 + (beta - 1.0) * x for x in xs]
        assert beta == 1.0 or any(math.pow(v, 2.0) != v * v for v in d)
        dg, d2g = magnitude_derivatives(p, beta)
        scalar = np.array([magnitude_derivatives(x, beta) for x in xs])
        assert scalar[:, 0].tobytes() == dg.tobytes()
        assert scalar[:, 1].tobytes() == d2g.tobytes()


class TestLogitCurvature:
    def test_point_values(self):
        d2, d3 = logit_curvature(0.5, 1.0)
        assert d2 == 0.25 and d3 == 0.0
        d2, d3 = logit_curvature(0.25, 3.0)
        assert d2 == pytest.approx(0.25, rel=1e-12) and d3 == pytest.approx(0.0, abs=1e-15)
        d2, d3 = logit_curvature(0.1, 1.0)
        assert d2 == pytest.approx(0.09, rel=1e-12)
        assert d3 == pytest.approx(0.072, rel=1e-12)

    @given(betas)
    def test_curvature_positive_and_sign_of_third(self, beta):
        p = np.linspace(1e-4, 1 - 1e-4, 1000)
        d2, d3 = logit_curvature(p, beta)
        assert np.all(d2 > 0)
        star = inflection_point(beta)
        assert np.all(d3[p < star - 1e-9] > 0)
        assert np.all(d3[p > star + 1e-9] < 0)


class TestCurvature:
    @given(betas)
    @settings(max_examples=50)
    def test_is_bitwise_the_first_element_of_logit_curvature(self, beta):
        p = np.linspace(1e-6, 1 - 1e-6, 10_001)
        assert np.array_equal(curvature(p, beta), logit_curvature(p, beta)[0])
        for q in p[::500]:
            assert curvature(float(q), beta) == logit_curvature(float(q), beta)[0]

    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_scalar_gets_the_bits_of_the_array_element(self, beta):
        # verify calls the closed forms on arrays; a scalar call must give the same bits,
        # also where C pow's square of the denominator misses the exact one
        p = np.random.default_rng(20240811).uniform(0.0, 1.0, 20_000)
        xs = p.tolist()
        d = [1.0 + (beta - 1.0) * x for x in xs]
        # at beta = 1 the denominator is exactly 1, elsewhere ~1 input in 1000 squares differently
        assert beta == 1.0 or any(math.pow(v, 2.0) != v * v for v in d)
        d2, d3 = logit_curvature(p, beta)
        assert np.array([curvature(x, beta) for x in xs]).tobytes() == curvature(p, beta).tobytes()
        scalar = np.array([logit_curvature(x, beta) for x in xs])
        assert scalar[:, 0].tobytes() == d2.tobytes()
        assert scalar[:, 1].tobytes() == d3.tobytes()

    def test_block_call_is_allocation_lean(self):
        # one grid-scan block: d2J and its denominator plus one temporary at a time
        block = _grid_block(1e-6, 1 - 1e-6, 1_000_000, 0, _SCAN_BLOCK)
        tracemalloc.start()
        try:
            curvature(block, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block.nbytes + 4096

    def test_never_writes_into_the_callers_array(self):
        block = _grid_block(1e-6, 1 - 1e-6, 1_000_000, 0, _SCAN_BLOCK)
        block.flags.writeable = False
        before = block.tobytes()
        curvature(block, 5.0)
        logit_curvature(block, 5.0)
        assert block.tobytes() == before

    def test_domain(self):
        for beta in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="beta"):
                curvature(0.5, beta)

    @pytest.mark.parametrize("kernel", [gradient_magnitude, magnitude_derivatives, curvature, logit_curvature])
    @pytest.mark.parametrize("p", [
        0.0, 1.0, math.nan, math.inf, -math.inf, -0.0,
        np.array([0.5, np.nan]), np.array([np.nan, 0.5]), np.array([[0.5, 0.2], [0.7, math.inf]]),
        np.array([[0.5], [-math.inf]]), np.array([0.3, 1.0, 0.6]), np.full(3, np.nan),
    ])
    def test_every_kernel_rejects_p_outside_the_open_interval(self, kernel, p):
        with pytest.raises(ValueError, match=r"^p_c must lie strictly inside \(0, 1\)$"):
            kernel(p, 2.0)

    @pytest.mark.parametrize("kernel", [gradient_magnitude, magnitude_derivatives, curvature, logit_curvature])
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_every_kernel_accepts_an_empty_p(self, kernel, shape):
        out = kernel(np.empty(shape), 2.0)
        assert all(a.shape == shape for a in (out if isinstance(out, tuple) else (out,)))


class TestInflectionPoint:
    def test_values(self):
        assert inflection_point(1.0) == 0.5
        assert inflection_point(0.01) == pytest.approx(0.9900990099009901, rel=1e-12)
        assert inflection_point(1e6) == pytest.approx(9.99999000001e-07, rel=1e-12)

    def test_curvature_peaks_there_at_one_quarter(self):
        for beta in (0.1, 1.0, 3.0, 10.0):
            star = inflection_point(beta)
            assert logit_curvature(star, beta)[0] == pytest.approx(0.25, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            inflection_point(-1.0)


class TestLocalLipschitzBound:
    def test_half_interval_closed_forms(self):
        assert local_lipschitz_bound(0.1, 0.0, 0.5) == pytest.approx(0.1 / 1.21, rel=1e-12)
        assert local_lipschitz_bound(2.0, 0.0, 0.5) == 0.25
        # small-beta branch equals beta/(beta+1)^2 exactly in float64
        for b in (0.01, 0.1, 0.5, 0.99):
            assert local_lipschitz_bound(b, 0.0, 0.5) == b / (b + 1.0) ** 2
        for b in (1.0, 2.0, 7.0):
            assert local_lipschitz_bound(b, 0.0, 0.5) == 0.25

    def test_interval_excluding_peak_uses_boundary(self):
        # peak for beta=0.1 sits at 1/1.1 ~ 0.909, outside [0, 0.01]
        assert local_lipschitz_bound(0.1, 0.0, 0.01) == pytest.approx(
            0.0010080634896714221, rel=1e-12
        )

    def test_matches_grid_maximum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            beta = float(rng.uniform(0.02, 30.0))
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 1e-3:
                continue
            bound = local_lipschitz_bound(beta, lo, hi)
            grid = np.linspace(lo + 1e-12, hi - 1e-12, 20_001)
            dense = (beta * grid * (1 - grid) / (1 + (beta - 1) * grid) ** 2).max()
            assert bound >= dense - 1e-9
            assert bound == pytest.approx(dense, abs=1e-6)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            local_lipschitz_bound(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            local_lipschitz_bound(1.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            local_lipschitz_bound(1.0, 0.2, 1.1)


class TestSuggestedLearningRate:
    def test_values(self):
        assert suggested_learning_rate(1.0, 0.0, 0.5) == 4.0
        assert suggested_learning_rate(0.1, 0.0, 0.5) == pytest.approx(12.1, rel=1e-12)
        assert suggested_learning_rate(5.0, 0.0, 0.5) == 4.0

    @given(betas)
    def test_descent_condition(self, beta):
        eta = suggested_learning_rate(beta, 0.0, 0.5)
        L = local_lipschitz_bound(beta, 0.0, 0.5)
        assert 0.5 * L * eta**2 - eta < 0.0
        assert 0.5 * L * (1.999 * eta) ** 2 - 1.999 * eta < 0.0


class TestParamValidation:
    def test_loss_params(self):
        with pytest.raises(ValueError):
            LossParams(beta=0.0)
        with pytest.raises(ValueError):
            LossParams(beta=-3.0)
        with pytest.raises(ValueError):
            LossParams(beta=1.0, tau=0.0)
        with pytest.raises(ValueError):
            LossParams(beta=math.inf)

    @pytest.mark.parametrize("entry", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_a_beta_array_needs_positive_finite_entries(self, entry):
        with pytest.raises(ValueError, match=r"beta entries must be positive finite reals, got .* at index 1"):
            LossParams(beta=np.array([1.0, entry, 3.0]))

    @pytest.mark.parametrize("beta", [np.array([True, True]), np.ones((2, 2)), np.array([]),
                                      np.array([1 + 0j]), np.array(["1"]), np.array(2.0)],
                             ids=["bool", "2-d", "empty", "complex", "str", "0-d"])
    def test_a_beta_array_must_be_a_non_empty_real_vector(self, beta):
        with pytest.raises(ValueError, match="beta as an array must be non-empty, 1-d"):
            LossParams(beta=beta)

    def test_a_beta_array_is_a_read_only_float64_copy(self):
        given = np.array([1, 2, 3], dtype=np.int32)
        params = LossParams(beta=given)
        given[0] = 7
        assert params.beta.dtype == np.float64 and params.beta.tolist() == [1.0, 2.0, 3.0]
        assert not params.beta.flags.writeable
        floats = np.array([0.5, 2.0])
        assert LossParams(beta=floats).beta is not floats

    def test_labeled_logits(self):
        # one sample: a one-row logit matrix and its label
        with pytest.raises(ValueError, match="logits must have a bool, integer or float dtype, got complex128"):
            row_eval((np.array([1.0, 2.0 + 1j]), 0), LossParams(beta=1.0))  # not cut to its real parts
        with pytest.raises(ValueError, match="m >= 2"):
            row_eval((np.array([1.0]), 0), LossParams(beta=1.0))
        with pytest.raises(ValueError, match="finite"):
            row_eval((np.array([1.0, np.nan]), 0), LossParams(beta=1.0))
        with pytest.raises(ValueError, match="labels must lie in"):
            row_eval((np.array([1.0, 2.0]), 2), LossParams(beta=1.0))
        with pytest.raises(ValueError, match="labels must lie in"):
            row_eval((np.array([1.0, 2.0]), -1), LossParams(beta=1.0))

    @pytest.mark.parametrize("c", [1.7, 1.0, True, np.bool_(True), np.float64(1.0), "1", None],
                             ids=["1.7", "1.0", "True", "np.True_", "np.float64", "str", "None"])
    def test_class_index_must_be_an_integer(self, c):
        # a float or bool class index is not truncated or cast to class 1
        with pytest.raises(ValueError, match="labels must have an integer dtype"):
            row_eval((np.array([0.0, 1.0, 2.0]), c), LossParams(beta=1.0))

    @pytest.mark.parametrize("c", [1, np.int64(1), np.uint8(1), np.int32(1)],
                             ids=["int", "np.int64", "np.uint8", "np.int32"])
    def test_integer_class_index_becomes_an_int(self, c):
        # any integer dtype selects class 1, with the bits of a Python int label
        be = row_eval((np.array([0.0, 1.0, 2.0]), c), LossParams(beta=0.5))
        ref = row_eval((np.array([0.0, 1.0, 2.0]), 1), LossParams(beta=0.5))
        for field in ("losses", "grads", "probs", "p_true"):
            assert getattr(be, field).tobytes() == getattr(ref, field).tobytes()
        assert be.p_true[0] == be.probs[0, 1]
