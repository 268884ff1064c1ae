"""Tests for the finite-difference / grid-scan verification machinery."""

import json

import numpy as np
import pytest

import gradient_decay.loss
from gradient_decay.loss import LabeledLogits, LossParams, beta_ce_loss, logit_curvature
from gradient_decay.verify import (
    DEFAULT_BETAS,
    FdConfig,
    central_diff_grad,
    grid_scan_extremum,
    verify_all,
)


class TestCentralDiffGrad:
    def test_sum_of_squares(self):
        g = central_diff_grad(lambda z: float((z**2).sum()), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        g = central_diff_grad(lambda z: 3.5, np.array([0.3, -1.2, 4.0]), 1e-5)
        assert np.all(np.abs(g) < 1e-10)

    def test_matches_analytic_beta_gradient(self):
        params = LossParams(beta=0.1)
        z = np.zeros(10)
        fd = central_diff_grad(lambda zz: beta_ce_loss(LabeledLogits(zz, 0), params), z, 1e-5)
        assert fd[0] == pytest.approx(-0.989010989010989, rel=1e-6)
        assert np.allclose(fd[1:], 0.10989010989010989, rtol=1e-6)

    def test_reports_offending_coordinate(self):
        def f(z):
            return float("nan") if z[1] > 0.5 else float(z.sum())

        with pytest.raises(ValueError, match="coordinate 1"):
            central_diff_grad(f, np.array([0.0, 0.5]), 1e-2)

    def test_reference_is_independent_of_analytic_gradients(self, monkeypatch):
        # Perturbing the analytic derivative path must not move the
        # finite-difference reference at all.
        params = LossParams(beta=0.37)
        z = np.array([0.4, -1.1, 2.2, 0.0])
        f = lambda zz: beta_ce_loss(LabeledLogits(zz, 2), params)
        before = central_diff_grad(f, z, 1e-5)

        def bomb(*a, **k):
            raise AssertionError("analytic derivative path was consulted")

        monkeypatch.setattr(gradient_decay.loss, "beta_ce_eval", bomb)
        monkeypatch.setattr(gradient_decay.loss, "magnitude_derivatives", bomb)
        after = central_diff_grad(f, z, 1e-5)
        assert np.array_equal(before, after)


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

    def test_scalar_only_function_falls_back(self):
        arg, _ = grid_scan_extremum(lambda x: -abs(float(x) - 0.25), 0.0, 1.0, 101)
        assert arg == pytest.approx(0.25, abs=1e-2)

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
        with pytest.raises(ValueError, match="seed must be non-negative"):
            FdConfig(seed=-1)
