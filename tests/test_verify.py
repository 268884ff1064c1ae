"""Tests for the finite-difference / grid-scan verification machinery."""

import json

import numpy as np
import pytest

import gradient_decay.loss
import gradient_decay.verify
from gradient_decay.cli import main
from gradient_decay.loss import (
    LabeledLogits,
    LossParams,
    batch_losses,
    beta_ce_eval,
    beta_ce_loss,
    curvature,
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


def old_derivative_consistency(fd: FdConfig, beta: float) -> tuple[float, float]:
    """verify's d2J/d3J checks as they ran before the trials were stacked by width: one trial at a time."""
    rng = np.random.default_rng(fd.seed)
    params, h = LossParams(beta=beta), fd.step
    worst2 = worst3 = 0.0
    for _ in range(fd.trials):
        m = int(rng.integers(2, 21))
        z = rng.uniform(-5.0, 5.0, m)
        c = int(rng.integers(0, m))

        def at(t):
            z2 = z.copy()
            z2[c] = t
            return z2

        def p_true(z2):
            return float(np.exp(z2[c] - z2.max()) / np.exp(z2 - z2.max()).sum())

        fd2 = (beta_ce_eval(LabeledLogits(at(z[c] + h), c), params).grad[c]
               - beta_ce_eval(LabeledLogits(at(z[c] - h), c), params).grad[c]) / (2.0 * h)
        fd3 = (float(curvature(p_true(at(z[c] + h)), beta)) - float(curvature(p_true(at(z[c] - h)), beta))) / (2.0 * h)
        d2, d3 = logit_curvature(p_true(z), beta)
        worst2 = max(worst2, abs(float(d2) - fd2) / max(1.0, abs(fd2)))
        worst3 = max(worst3, abs(float(d3) - fd3) / max(1.0, abs(fd3)))
    return worst2, worst3


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
        stack = np.stack([z, z[::-1]])  # verify's entry point: a stack of samples, here both of class 2
        before = central_diff_grad(f, z, 1e-5)
        before_verify = gradient_decay.verify.central_diff_grad(f, stack, 1e-5)

        def bomb(*a, **k):
            raise AssertionError("analytic derivative path was consulted")

        for module in (gradient_decay.loss, gradient_decay.verify):
            for name in ("beta_ce_batch", "beta_ce_eval", "magnitude_derivatives"):
                monkeypatch.setattr(module, name, bomb, raising=False)
        after = central_diff_grad(f, z, 1e-5)
        assert np.array_equal(before, after)
        assert np.array_equal(before_verify, gradient_decay.verify.central_diff_grad(f, stack, 1e-5))
        assert np.array_equal(before, before_verify[0])

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

    def test_calls_f_once_on_a_stack_in_sample_major_order(self):
        calls = []

        def f(Z):
            calls.append(Z.copy())
            return Z.sum(axis=1)

        Z = np.array([[0.1, -0.2, 0.3], [1.0, 2.0, 3.0]])
        central_diff_grad(f, Z, 1e-3)
        assert len(calls) == 1
        d = 1e-3 * np.eye(3)
        expected = np.vstack([np.vstack([z + d, z - d]) for z in Z])  # sample 0's 2m rows, then sample 1's
        assert np.array_equal(calls[0], expected)

    def test_reports_offending_sample_and_coordinate(self):
        def f(R):
            return np.where(R[:, 1] > 5.0, np.inf, R.sum(axis=1))

        with pytest.raises(ValueError, match="sample 2, coordinate 1"):
            central_diff_grad(f, np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 5.0]]), 1e-2)

    def test_f_must_return_one_value_per_row(self):
        with pytest.raises(ValueError, match="one value per row"):
            central_diff_grad(lambda Z: 1.0, np.array([0.0, 1.0]), 1e-3)

    @pytest.mark.parametrize("m", [2, 7, 20])
    @pytest.mark.parametrize("offset", [0.0, 1000.0], ids=["max", "large"])
    def test_bitwise_equal_to_the_per_coordinate_loop(self, m, offset):
        # logits near 0 ("max") and near 1000 ("large"): both paths subtract the row maximum.
        # verify differences a whole stack of samples in one call; each sample
        # must get the bits of its own call and of the per-coordinate loop.
        rng = np.random.default_rng(m)
        Z = offset + rng.uniform(-5.0, 5.0, (4, m))
        c = rng.integers(0, m, 4)
        for tau in (1.0, 0.1, 0.01):
            params = LossParams(beta=0.37, tau=tau)
            stacked = central_diff_grad(lambda R: batch_losses(R, np.repeat(c, 2 * m), params), Z, 1e-5)
            assert stacked.shape == Z.shape
            for j, z in enumerate(Z):
                new = central_diff_grad(lambda R: batch_losses(R, np.full(len(R), c[j]), params), z, 1e-5)
                old = old_central_diff_grad(lambda zz: beta_ce_loss(LabeledLogits(zz, int(c[j])), params), z, 1e-5)
                assert np.array_equal(new, old)
                assert np.array_equal(stacked[j], new)


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
        # The finite differences stacked per width group must reproduce the
        # report of a per-coordinate loop, one loss call per perturbed row,
        # check for check.
        fd = FdConfig(trials=50)
        batched = verify_all(fd).checks

        def per_coordinate(f, Z, step):
            # one call of f per perturbed row, at that row's place in f's sample-major order
            k, m = Z.shape
            unperturbed = np.repeat(Z, 2 * m, axis=0)

            def value(row, z):
                rows = unperturbed.copy()
                rows[row] = z
                return f(rows)[row]

            return np.array([old_central_diff_grad(lambda z: value(2 * m * j, z), Z[j], step) for j in range(k)])

        monkeypatch.setattr(gradient_decay.verify, "central_diff_grad", per_coordinate)
        assert verify_all(fd).checks == batched

    @pytest.mark.parametrize("seed", [154, 20240811])
    def test_derivative_consistency_matches_the_per_trial_loop(self, seed):
        # numpy squares d2J's denominator with C pow for a scalar and exactly for an
        # array; on x86-64 glibc, vectorising the closed forms moves seed 154's d3 report
        fd = FdConfig(seed=seed)
        worst = {c.property: c.worst_error for c in verify_all(fd, [0.01]).checks}
        assert (worst["derivative_consistency_d2"], worst["derivative_consistency_d3"]) == \
            old_derivative_consistency(fd, 0.01)

    def test_deterministic_given_seed(self):
        a = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        b = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        assert a == b

    def test_overtight_tolerance_reports_failures_instead_of_raising(self):
        report = verify_all(FdConfig(trials=20, rel_tol=1e-14), [1.0])
        failing = {c.property for c in report.failures()}
        assert "fd_gradient_agreement" in failing
        assert not report.all_pass

    def test_json_lines_schema(self, tmp_path):
        # the verify command writes one JSON object per check
        report = verify_all(FdConfig(trials=5), [1.0])
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--trials", "5", "--betas", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
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
