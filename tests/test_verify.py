"""Tests for the finite-difference / grid-scan verification machinery."""

import json

import numpy as np
import pytest

import gradient_decay.loss
import gradient_decay.verify
from gradient_decay.loss import (
    LabeledLogits,
    LossParams,
    batch_losses,
    beta_ce_loss,
    logit_curvature,
)
from gradient_decay.verify import (
    DEFAULT_BETAS,
    FdConfig,
    central_diff_grad,
    grid_scan_extremum,
    verify_all,
)


def old_central_diff_grad(f, z, step: float) -> np.ndarray:
    """The per-coordinate central_diff_grad that verify used before it differenced row batches."""
    z = np.asarray(z, dtype=np.float64)
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    g = np.empty_like(z)
    for i in range(z.size):
        zp = z.copy()
        zp[i] += step
        zm = z.copy()
        zm[i] -= step
        fp, fm = f(zp), f(zm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation while differencing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g


class TestCentralDiffGrad:
    def test_sum_of_squares(self):
        g = central_diff_grad(lambda Z: (Z**2).sum(axis=1), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        g = central_diff_grad(lambda Z: np.full(len(Z), 3.5), np.array([0.3, -1.2, 4.0]), 1e-5)
        assert np.all(np.abs(g) < 1e-10)

    def test_matches_analytic_beta_gradient(self):
        params = LossParams(beta=0.1)
        z = np.zeros(10)
        fd = central_diff_grad(lambda Z: batch_losses(Z, np.zeros(len(Z), dtype=int), params), z, 1e-5)
        assert fd[0] == pytest.approx(-0.989010989010989, rel=1e-6)
        assert np.allclose(fd[1:], 0.10989010989010989, rtol=1e-6)

    def test_reports_offending_coordinate(self):
        def f(Z):
            return np.where(Z[:, 1] > 0.5, np.nan, Z.sum(axis=1))

        with pytest.raises(ValueError, match="coordinate 1"):
            central_diff_grad(f, np.array([0.0, 0.5]), 1e-2)

    def test_reference_is_independent_of_analytic_gradients(self, monkeypatch):
        # Perturbing the analytic derivative path must not move the
        # finite-difference reference at all: it comes from loss values only.
        params = LossParams(beta=0.37)
        z = np.array([0.4, -1.1, 2.2, 0.0])
        f = lambda Z: batch_losses(Z, np.full(len(Z), 2), params)
        before = central_diff_grad(f, z, 1e-5)
        before_verify = gradient_decay.verify._fd_loss_grad(z, 2, params, 1e-5)

        def bomb(*a, **k):
            raise AssertionError("analytic derivative path was consulted")

        for module in (gradient_decay.loss, gradient_decay.verify):
            for name in ("beta_ce_batch", "beta_ce_eval", "magnitude_derivatives"):
                monkeypatch.setattr(module, name, bomb, raising=False)
        after = central_diff_grad(f, z, 1e-5)
        assert np.array_equal(before, after)
        assert np.array_equal(before_verify, gradient_decay.verify._fd_loss_grad(z, 2, params, 1e-5))
        assert np.array_equal(before, before_verify)

    def test_calls_f_once_on_all_perturbed_rows(self):
        calls = []

        def f(Z):
            calls.append(Z.copy())
            return Z.sum(axis=1)

        z = np.array([0.1, -0.2, 0.3])
        central_diff_grad(f, z, 1e-3)
        assert len(calls) == 1
        expected = np.array([z + d for d in (1e-3 * np.eye(3))] + [z - d for d in (1e-3 * np.eye(3))])
        assert np.array_equal(calls[0], expected)

    def test_f_must_return_one_value_per_row(self):
        with pytest.raises(ValueError, match="one value per row"):
            central_diff_grad(lambda Z: 1.0, np.array([0.0, 1.0]), 1e-3)

    @pytest.mark.parametrize("m", [2, 7, 20])
    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    def test_bitwise_equal_to_the_per_coordinate_loop(self, m, offset):
        # logits near 0 ("max") and near 1000 ("large"): both paths subtract the row maximum
        rng = np.random.default_rng(m)
        z = offset + rng.uniform(-5.0, 5.0, m)
        for tau in (1.0, 0.1, 0.01):
            params = LossParams(beta=0.37, tau=tau)
            new = central_diff_grad(lambda Z: batch_losses(Z, np.full(len(Z), 1), params), z, 1e-5)
            old = old_central_diff_grad(lambda zz: beta_ce_loss(LabeledLogits(zz, 1), params), z, 1e-5)
            assert np.array_equal(new, old)


class TestGridScanExtremum:
    def test_parabola(self):
        arg, val = grid_scan_extremum(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 100_001)
        assert arg == pytest.approx(0.3, abs=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_curvature_peak_beta_one(self):
        arg, val = grid_scan_extremum(
            lambda p: logit_curvature(p, 1.0)[0], 1e-6, 1 - 1e-6, 1_000_000
        )
        assert arg == pytest.approx(0.5, abs=1e-5)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_curvature_peak_beta_ten(self):
        arg, val = grid_scan_extremum(
            lambda p: logit_curvature(p, 10.0)[0], 1e-6, 1 - 1e-6, 1_000_000
        )
        assert arg == pytest.approx(1.0 / 11.0, abs=1e-5)
        assert val == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("g, error", [
        (lambda x: -abs(float(x) - 0.25), TypeError),  # float() of the grid array raises
        (lambda x: logit_curvature(x, 1.0)[0], ValueError),  # the grid's 0 is outside (0, 1)
        (lambda x: x[:-1], ValueError),
        (lambda x: np.ones(()), ValueError),
    ], ids=["scalar_only", "raises_value_error", "one_value_short", "one_value_in_all"])
    def test_function_must_evaluate_the_grid(self, g, error):
        # the error comes back after one call, not after a per-point retry
        calls = []

        def counted(x):
            calls.append(x)
            return g(x)

        with pytest.raises(error):
            grid_scan_extremum(counted, 0.0, 1.0, 101)
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_scan_extremum(lambda x: x, 1.0, 0.0, 100)
        with pytest.raises(ValueError):
            grid_scan_extremum(lambda x: x, 0.0, 1.0, 2)


class TestVerifyAll:
    def test_default_suite_passes(self):
        report = verify_all(FdConfig(trials=50), DEFAULT_BETAS)
        assert report.all_pass, report.failures()

    def test_beta_one_single_trial(self):
        report = verify_all(FdConfig(trials=1), [1.0])
        assert report.all_pass

    def test_negative_beta_is_a_precondition_error(self):
        with pytest.raises(ValueError):
            verify_all(FdConfig(), [-1.0])

    def test_report_matches_the_per_coordinate_reference(self, monkeypatch):
        # The row-batched finite differences must reproduce the report of the
        # per-coordinate loop over scalar beta_ce_loss calls line for line.
        fd = FdConfig(trials=50)
        batched = verify_all(fd).to_json_lines()

        def per_coordinate(z, c, params, step):
            return old_central_diff_grad(lambda zz: beta_ce_loss(LabeledLogits(zz, c), params), z, step)

        monkeypatch.setattr(gradient_decay.verify, "_fd_loss_grad", per_coordinate)
        assert verify_all(fd).to_json_lines() == batched

    def test_deterministic_given_seed(self):
        a = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        b = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        assert a == b

    def test_overtight_tolerance_reports_failures_instead_of_raising(self):
        report = verify_all(FdConfig(trials=20, rel_tol=1e-14), [1.0])
        failing = {c.property for c in report.failures()}
        assert "fd_gradient_agreement" in failing
        assert not report.all_pass

    def test_json_lines_schema(self):
        report = verify_all(FdConfig(trials=5), [1.0])
        lines = report.to_json_lines().splitlines()
        assert len(lines) == len(report.checks)
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"property", "beta", "tolerance", "worst_error", "pass"}

    def test_fd_config_validation(self):
        with pytest.raises(ValueError):
            FdConfig(step=0.0)
        with pytest.raises(ValueError):
            FdConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            FdConfig(trials=0)
        with pytest.raises(ValueError):
            FdConfig(step=float("inf"))
        with pytest.raises(ValueError):
            FdConfig(rel_tol=float("inf"))
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            FdConfig(seed=-1)
