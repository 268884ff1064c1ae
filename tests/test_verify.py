"""Tests for the finite-difference / grid-scan verification machinery."""

import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import bench_module

import gradient_decay.loss
import gradient_decay.verify
from gradient_decay.cli import main
from gradient_decay.loss import (
    LossParams,
    batch_losses,
    beta_ce_batch,
    curvature,
    gradient_magnitude,
    logit_curvature,
    magnitude_derivatives,
)
from gradient_decay.verify import (
    _PEAK_GRID_POINTS,
    _PROB_EPS,
    _SCAN_BLOCK,
    _SHIFTS,
    _FD_REL_TOL,
    _FD_STEP,
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
    params, h = LossParams(beta=beta), _FD_STEP
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

        fd2 = (beta_ce_batch(at(z[c] + h)[None], [c], params).grads[0, c]
               - beta_ce_batch(at(z[c] - h)[None], [c], params).grads[0, c]) / (2.0 * h)
        fd3 = (float(curvature(p_true(at(z[c] + h)), beta)) - float(curvature(p_true(at(z[c] - h)), beta))) / (2.0 * h)
        d2, d3 = logit_curvature(p_true(z), beta)
        worst2 = max(worst2, abs(float(d2) - fd2) / max(1.0, abs(fd2)))
        worst3 = max(worst3, abs(float(d3) - fd3) / max(1.0, abs(fd3)))
    return worst2, worst3


def whole_grid_scan(g, lo: float, hi: float, points: int) -> tuple[float, float]:
    """grid_scan_extremum as it was before the grid was scanned in blocks: one call of g, one np.argmax."""
    grid = np.linspace(lo, hi, points)
    vals = np.asarray(g(grid), dtype=np.float64)
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


def old_beta_checks(fd: FdConfig, betas) -> list[tuple[str, float, float]]:
    """verify_all's per-beta properties as (property, beta, worst_error), as they ran before the
    beta-free work was hoisted out of the beta loop: one kernel call per group, beta and shift,
    and the references, fd labels and margin terms recomputed for every beta."""
    groups = gradient_decay.verify._draw_trials(np.random.default_rng(fd.seed), fd.trials)

    def p_true(Z, c):
        return gradient_decay.verify._standard_ce(Z, c)[2]

    def per_point(f, p, beta):
        # f(x, beta) for each x in p, one scalar call each
        return np.array([f(x, beta) for x in p.tolist()])

    out = []
    for b in betas:
        params, h = LossParams(beta=b), _FD_STEP
        worst_fd = worst_sum = 0.0
        for Z, c in groups:
            labels = np.repeat(c, 2 * Z.shape[1])
            fd_grads = central_diff_grad(lambda R: batch_losses(R, labels, params), Z, h)
            grads = beta_ce_batch(Z, c, params).grads
            scale = np.maximum(1.0, np.abs(fd_grads).max(axis=1))
            worst_fd = max(worst_fd, float((np.abs(grads - fd_grads).max(axis=1) / scale).max()))
            worst_sum = max(worst_sum, float(np.abs(grads.sum(axis=1)).max()))
        out += [("fd_gradient_agreement", b, worst_fd), ("gradient_null_sum", b, worst_sum)]

        worst = 0.0
        for Z, c in groups:
            base = beta_ce_batch(Z, c, params)
            for k in _SHIFTS:
                shifted = beta_ce_batch(Z + k, c, params)
                worst = max([worst] + [float(np.abs(getattr(shifted, f) - getattr(base, f)).max())
                                       for f in ("losses", "grads", "probs")])
        out.append(("shift_invariance", b, worst))

        grid = np.linspace(_PROB_EPS, 1.0 - _PROB_EPS, 10_000)
        G = gradient_magnitude(grid, b)
        lo_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, 1.0 / b)
        hi_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, b)
        err = max(max(0.0, float(np.diff(G).max())), (1.0 - lo_tol) - float(gradient_magnitude(1e-9, b)))
        out.append(("monotone_decay", b, max(err, float(gradient_magnitude(1.0 - 1e-9, b)) - hi_tol)))
        d2g = magnitude_derivatives(grid, b)[1]
        err = max(0.0, -float(d2g.min())) if b > 1.0 else max(0.0, float(d2g.max())) if b < 1.0 else float(np.abs(d2g).max())
        out.append(("convexity_flip", b, err))

        arg, val = whole_grid_scan(lambda p: curvature(p, b), _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
        out += [("curvature_peak_location", b, abs(arg - 1.0 / (1.0 + b))), ("curvature_peak_value", b, abs(val - 0.25))]

        worst2 = worst3 = 0.0
        for Z, c in groups:
            rows = np.arange(len(Z))
            Zp, Zm = Z.copy(), Z.copy()
            Zp[rows, c] += h
            Zm[rows, c] -= h
            grads = beta_ce_batch(np.vstack([Zp, Zm]), np.tile(c, 2), params).grads
            fd2 = (grads[rows, c] - grads[len(Z) + rows, c]) / (2.0 * h)
            fd3 = (per_point(curvature, p_true(Zp, c), b) - per_point(curvature, p_true(Zm, c), b)) / (2.0 * h)
            d2, d3 = per_point(logit_curvature, p_true(Z, c), b).T
            worst2 = max(worst2, float((np.abs(d2 - fd2) / np.maximum(1.0, np.abs(fd2))).max()))
            worst3 = max(worst3, float((np.abs(d3 - fd3) / np.maximum(1.0, np.abs(fd3))).max()))
        out += [("derivative_consistency_d2", b, worst2), ("derivative_consistency_d3", b, worst3)]

        worst = 0.0
        for Z, c in groups:
            rows = np.arange(len(Z))
            others = Z.copy()
            others[rows, c] = -np.inf
            for tau in (1.0, 0.1):
                j = batch_losses(Z, c, LossParams(beta=b, tau=tau))
                m_term = np.maximum(math.log(b), (others.max(axis=1) - Z[rows, c]) / tau)
                worst = max(worst, float((m_term - j).max()), float((j - (m_term + math.log(Z.shape[1]))).max()))
        out.append(("margin_sandwich", b, worst))
    return out


def old_beta_free_checks(fd: FdConfig) -> tuple[float, float]:
    """verify_all's beta1_equivalence and temperature_sandwich worst errors as they ran before the width
    groups became one pass: one loop over the groups per check, the tau=1 losses from batch_losses."""
    groups = gradient_decay.verify._draw_trials(np.random.default_rng(fd.seed), fd.trials)

    def nan_max(*errs):
        return math.nan if any(math.isnan(e) for e in errs) else max(errs)

    equivalence = 0.0
    for Z, c in groups:
        ev, (losses, grads, _) = beta_ce_batch(Z, c, LossParams(beta=1.0)), gradient_decay.verify._standard_ce(Z, c)
        equivalence = nan_max(equivalence, float(np.abs(ev.losses - losses).max()), float(np.abs(ev.grads - grads).max()))
    sandwich = 0.0
    for Z, c in groups:
        lo_bound = Z.max(axis=1) - Z[np.arange(len(Z)), c]
        for tau in (1.0, 0.1, 0.01):
            tj = tau * batch_losses(Z, c, LossParams(beta=1.0, tau=tau))
            up_bound = lo_bound + tau * math.log(Z.shape[1])
            sandwich = nan_max(sandwich, float((lo_bound - tj).max()), float((tj - up_bound).max()))
    return equivalence, sandwich


def bits(*xs) -> bytes:
    return np.array(xs, dtype=np.float64).tobytes()


class TestCentralDiffGrad:
    def test_sum_of_squares(self):
        g = central_diff_grad(lambda Z: (Z**2).sum(axis=1), np.array([[1.0, 2.0]]), 1e-5)
        assert g.shape == (1, 2)
        assert np.allclose(g, [[2.0, 4.0]], atol=1e-8)

    def test_constant_function(self):
        g = central_diff_grad(lambda Z: np.full(len(Z), 3.5), np.array([[0.3, -1.2, 4.0]]), 1e-5)
        assert np.all(np.abs(g) < 1e-10)

    def test_matches_analytic_beta_gradient(self):
        params = LossParams(beta=0.1)
        z = np.zeros((1, 10))
        (fd,) = central_diff_grad(lambda Z: batch_losses(Z, np.zeros(len(Z), dtype=int), params), z, 1e-5)
        assert fd[0] == pytest.approx(-0.989010989010989, rel=1e-6)
        assert np.allclose(fd[1:], 0.10989010989010989, rtol=1e-6)

    def test_reports_offending_coordinate(self):
        def f(Z):
            return np.where(Z[:, 1] > 0.5, np.nan, Z.sum(axis=1))

        with pytest.raises(ValueError, match="sample 0, coordinate 1"):
            central_diff_grad(f, np.array([[0.0, 0.5]]), 1e-2)

    def test_reference_is_independent_of_analytic_gradients(self, monkeypatch):
        # Perturbing the analytic derivative path must not move the
        # finite-difference reference at all: it comes from loss values only.
        params = LossParams(beta=0.37)
        z = np.array([[0.4, -1.1, 2.2, 0.0]])
        f = lambda Z: batch_losses(Z, np.full(len(Z), 2), params)
        stack = np.vstack([z, z[:, ::-1]])  # verify's entry point: a stack of samples, here both of class 2
        before = central_diff_grad(f, z, 1e-5)
        before_verify = gradient_decay.verify.central_diff_grad(f, stack, 1e-5)

        def bomb(*a, **k):
            raise AssertionError("analytic derivative path was consulted")

        for module in (gradient_decay.loss, gradient_decay.verify):
            for name in ("beta_ce_batch", "magnitude_derivatives"):
                monkeypatch.setattr(module, name, bomb)
        after = central_diff_grad(f, z, 1e-5)
        assert np.array_equal(before, after)
        assert np.array_equal(before_verify, gradient_decay.verify.central_diff_grad(f, stack, 1e-5))
        assert np.array_equal(before[0], before_verify[0])

    def test_calls_f_once_on_all_perturbed_rows(self):
        calls = []

        def f(Z):
            calls.append(Z.copy())
            return Z.sum(axis=1)

        z = np.array([0.1, -0.2, 0.3])
        central_diff_grad(f, z[None], 1e-3)
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
            central_diff_grad(lambda Z: 1.0, np.array([[0.0, 1.0]]), 1e-3)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 2, 3)])
    def test_only_a_stack_of_samples_is_accepted(self, shape):
        calls = []
        with pytest.raises(ValueError, match=rf"\(k, m\) stack of samples, got shape {re.escape(str(shape))}$"):
            central_diff_grad(lambda Z: calls.append(Z) or Z.sum(axis=1), np.zeros(shape), 1e-3)
        assert calls == []

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
                (new,) = central_diff_grad(lambda R: batch_losses(R, np.full(len(R), c[j]), params), z[None], 1e-5)
                old = old_central_diff_grad(lambda zz: batch_losses(zz[None], [c[j]], params)[0], z, 1e-5)
                assert np.array_equal(new, old)
                assert np.array_equal(stacked[j], new)


# Spans of a few subnormals, whose linspace step underflows to 0.
SUBNORMAL_SPANS = [(0.0, 50 * 5e-324, 101), (0.0, 5e-324, 3), (-1000 * 5e-324, 1000 * 5e-324, 2 * _SCAN_BLOCK + 3)]


# Functions on the exact grid 0, 1, ..., points-1, picking points by value: the first-max and NaN tie cases.
INTEGER_GRID_CASES = {
    "parabola": lambda x: -((x - 7000.5) ** 2),
    "tie_across_boundary": lambda x: np.where((x == _SCAN_BLOCK - 1) | (x == _SCAN_BLOCK) | (x == 3), 1.0, 0.0),
    "nan_in_later_block": lambda x: np.where(x == _SCAN_BLOCK + 2, np.nan, np.where(x == 5, 2.0, 0.0)),
    "first_nan_wins": lambda x: np.where((x == 9) | (x >= _SCAN_BLOCK), np.nan, 1.0),
    "all_minus_inf": lambda x: np.full_like(x, -np.inf),
    "increasing": lambda x: x,
}


class TestGridScanExtremum:
    def test_parabola(self):
        arg, val = grid_scan_extremum([lambda x: -((x - 0.3) ** 2)], 0.0, 1.0, 100_001)[0]
        assert arg == pytest.approx(0.3, abs=1e-5)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_curvature_peak_beta_one(self):
        arg, val = grid_scan_extremum(
            [lambda p: logit_curvature(p, 1.0)[0]], 1e-6, 1 - 1e-6, 1_000_000
        )[0]
        assert arg == pytest.approx(0.5, abs=1e-5)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_curvature_peak_beta_ten(self):
        arg, val = grid_scan_extremum(
            [lambda p: logit_curvature(p, 10.0)[0]], 1e-6, 1 - 1e-6, 1_000_000
        )[0]
        assert arg == pytest.approx(1.0 / 11.0, abs=1e-5)
        assert val == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("g, error, points", [
        pytest.param(g, error, points, id=name + suffix)
        for points, suffix in [(101, ""), (2 * _SCAN_BLOCK + 3, "-three_blocks")]
        for name, g, error in [
            ("scalar_only", lambda x: -abs(float(x) - 0.25), TypeError),  # float() of the grid array raises
            ("raises_value_error", lambda x: logit_curvature(x, 1.0)[0], ValueError),  # the grid's 0 is outside (0, 1)
            ("one_value_short", lambda x: x[:-1], ValueError),
            ("one_value_in_all", lambda x: np.ones(()), ValueError),
        ]
    ])
    def test_function_must_evaluate_the_grid(self, g, error, points):
        # the error comes back after one call, not after a per-point retry or a call per block
        calls = []

        def counted(x):
            calls.append(x)
            return g(x)

        with pytest.raises(error):
            grid_scan_extremum([counted], 0.0, 1.0, points)
        assert len(calls) == 1

    @pytest.mark.parametrize("points", [_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 2 * _SCAN_BLOCK + 3])
    @pytest.mark.parametrize("g", list(INTEGER_GRID_CASES.values()), ids=list(INTEGER_GRID_CASES))
    def test_blocks_give_the_whole_grid_result(self, g, points):
        # the grid 0, 1, ..., points-1 is exact, so g can pick points by value; a value past
        # the grid's end (the tie at _SCAN_BLOCK on the shortest grid) is simply absent
        calls = []

        def counted(x):
            calls.append(x.copy())
            return g(x)

        result = grid_scan_extremum([counted], 0.0, points - 1.0, points)[0]
        assert bits(*result) == bits(*whole_grid_scan(g, 0.0, points - 1.0, points))
        assert [len(x) for x in calls] == [min(_SCAN_BLOCK, points - i) for i in range(0, points, _SCAN_BLOCK)]
        assert np.array_equal(np.concatenate(calls), np.linspace(0.0, points - 1.0, points))

    @pytest.mark.parametrize("points", [_SCAN_BLOCK, 2 * _SCAN_BLOCK + 3])
    def test_one_pass_gives_each_functions_own_scan(self, points):
        # each block is built once and every function runs on it in list order, then the next block
        gs = list(INTEGER_GRID_CASES.values())
        calls = []

        def counted(j):
            def f(x):
                calls.append((j, x))
                return gs[j](x)
            return f

        result = grid_scan_extremum([counted(j) for j in range(len(gs))], 0.0, points - 1.0, points)
        assert [bits(*r) for r in result] == [bits(*grid_scan_extremum([g], 0.0, points - 1.0, points)[0]) for g in gs]
        blocks = -(-points // _SCAN_BLOCK)
        assert [j for j, _ in calls] == list(range(len(gs))) * blocks
        for k in range(blocks):
            assert len({id(x) for _, x in calls[k * len(gs):(k + 1) * len(gs)]}) == 1

    @pytest.mark.parametrize("beta", DEFAULT_BETAS)
    def test_default_curvature_scans_match_the_whole_grid(self, beta):
        g, grid = (lambda p: curvature(p, beta)), (_PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
        assert bits(*grid_scan_extremum([g], *grid)[0]) == bits(*whole_grid_scan(g, *grid))

    @pytest.mark.parametrize("lo, hi, points", [
        (-3.7, 2.9, 2 * _SCAN_BLOCK + 3),                 # negative lo
        (-1.3, 1.3, _SCAN_BLOCK + 1),                     # lo = -hi
        (-8.9e307, 8.9e307, _SCAN_BLOCK),                 # a span of 1.78e308, still finite
        (_PROB_EPS, 1.0 - _PROB_EPS, _SCAN_BLOCK - 1),
        (0.1, 0.7, 3),
    ] + SUBNORMAL_SPANS)
    def test_blocks_are_bitwise_linspace(self, lo, hi, points):
        calls = []

        def counted(x):
            calls.append(x)
            return -x

        grid_scan_extremum([counted], lo, hi, points)
        assert np.concatenate(calls).tobytes() == np.linspace(lo, hi, points).tobytes()
        assert len({id(x) for x in calls}) == len(calls)

    @pytest.mark.parametrize("lo, hi, points", SUBNORMAL_SPANS)
    def test_subnormal_spans_take_numpys_divide_first_branch(self, lo, hi, points):
        # the table above would not test that branch if these steps did not underflow
        assert (hi - lo) / (points - 1) == 0.0

    @pytest.mark.parametrize("lo, hi, points", [
        (-3.7, 2.9, 2 * _SCAN_BLOCK + 3),  # here and on the next grid, (points - 1) * step + lo != hi:
        (0.3, 0.9, _SCAN_BLOCK + 1),       # the last point is hi only because linspace sets it
        (-0.0, 1.0, 101),                  # linspace's first point is 0.0, not lo
        (0.0, 50 * 5e-324, 101),
    ])
    @pytest.mark.parametrize("g", [lambda x: -x, lambda x: x, lambda x: np.full_like(x, -np.inf)],
                             ids=["max_at_first_point", "max_at_last_point", "all_minus_inf"])
    def test_argmax_is_the_whole_grid_point(self, g, lo, hi, points):
        assert bits(*grid_scan_extremum([g], lo, hi, points)[0]) == bits(*whole_grid_scan(g, lo, hi, points))

    def test_curvature_scan_allocates_no_grid(self):
        # the blocks' points and the temporaries of g on them, never the 8 MB grid
        tracemalloc.start()
        try:
            grid_scan_extremum([lambda p: curvature(p, 5.0)], _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_curvature_scan_memory_stays_near_the_grid(self):
        # the bound from when the scan held the 8 MB grid, plus at most 2 MB for the temporaries
        # of the blocks; test_curvature_scan_allocates_no_grid holds the scan to 1 MiB
        tracemalloc.start()
        try:
            grid_scan_extremum([lambda p: curvature(p, 5.0)], _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _PEAK_GRID_POINTS + 2 * 2**20

    def test_a_wrongly_shaped_result_in_a_sequence_raises(self):
        # the second function's error comes back on the first block, after one call of each
        calls = []

        def counted(g):
            def f(x):
                calls.append(x)
                return g(x)
            return f

        with pytest.raises(ValueError, match=re.escape("g returned shape (101,) for a block of shape (102,)")):
            grid_scan_extremum([counted(lambda x: -x), counted(lambda x: x[1:])], 0.0, 1.0, 102)
        assert len(calls) == 2

    @pytest.mark.parametrize("gs", [[], ()], ids=["list", "tuple"])
    def test_an_empty_sequence_raises(self, gs):
        with pytest.raises(ValueError, match="need at least one function to scan"):
            grid_scan_extremum(gs, 0.0, 1.0, 101)

    def test_a_bare_function_is_not_a_sequence(self):
        with pytest.raises(TypeError, match="not iterable"):
            grid_scan_extremum(lambda x: -x, 0.0, 1.0, 101)

    def test_functions_cannot_write_to_the_shared_block(self):
        # a function that wrote to its points would move the next function's grid and the reported argmax
        def overwrite(x):
            x += 1.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            grid_scan_extremum([lambda x: -x, overwrite], 0.0, 1.0, 101)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_scan_extremum([lambda x: x], 1.0, 0.0, 100)
        with pytest.raises(ValueError):
            grid_scan_extremum([lambda x: x], 0.0, 1.0, 2)

    @pytest.mark.parametrize("lo, hi, message", [
        (-math.inf, 1.0, "lo must be a finite real"),
        (0.0, math.inf, "hi must be a finite real"),
        (math.nan, 1.0, "lo must be a finite real"),
        (-1e308, 1e308, "hi - lo must be a positive finite real, got inf"),
        (np.float64(-1e308), np.float64(1e308), "hi - lo must be a positive finite real, got inf"),
        (1.0, 1.0, "hi - lo must be a positive finite real, got 0.0"),
    ])
    def test_unscannable_interval_is_a_value_error_without_warnings(self, lo, hi, message):
        # these used to return (nan, nan) after numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                grid_scan_extremum([lambda x: -x * x], lo, hi, 101)


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
        # verify calls the d2J/d3J closed forms once per width group on arrays, the old
        # loop once per trial on scalars; both must give the same report, which holds
        # because a scalar gets the bits of the matching array element (d * d, not d**2)
        fd = FdConfig(seed=seed)
        worst = {c.property: c.worst_error for c in verify_all(fd, [0.01]).checks}
        assert (worst["derivative_consistency_d2"], worst["derivative_consistency_d3"]) == \
            old_derivative_consistency(fd, 0.01)

    @pytest.mark.parametrize("seed", [20240811, 154])
    def test_report_matches_the_per_shift_per_beta_loop(self, seed):
        # one kernel call per group on all shifts, and the beta-free work done once per group,
        # must leave every per-beta check of the old loop as it was, bit for bit
        fd, betas = FdConfig(seed=seed), [0.001, 0.3, 2.0, 100.0]
        per_beta = [c for c in verify_all(fd, betas).checks if c.beta is not None]
        reference = old_beta_checks(fd, betas)
        assert [(c.property, c.beta) for c in per_beta] == [(prop, beta) for prop, beta, _ in reference]
        assert bits(*[c.worst_error for c in per_beta]) == bits(*[worst for _, _, worst in reference])
        assert {c.tolerance for c in per_beta if c.property == "fd_gradient_agreement"} == {_FD_REL_TOL}

    @pytest.mark.parametrize("trials", [1, 200])
    @pytest.mark.parametrize("seed", [154, 20240811])
    def test_beta_free_checks_match_the_per_group_loops(self, seed, trials):
        # the beta=1 call's losses stand in for batch_losses at tau=1, and the per-trial
        # errors of every group are reduced at once: both must leave the two lines as they were
        fd = FdConfig(trials=trials, seed=seed)
        worst = {c.property: c.worst_error for c in verify_all(fd).checks if c.beta is None}
        assert bits(worst["beta1_equivalence"], worst["temperature_sandwich"]) == bits(*old_beta_free_checks(fd))

    def test_nan_kernel_rows_fail_their_properties(self, monkeypatch, capsys):
        # max(worst, nan) is worst once worst is a number, so a NaN row of the kernel used to pass
        def nan_row(Z, y, params):
            # row 0 of every beta's block: a stack call holds one block per beta
            ev = beta_ce_batch(Z, y, params)
            block = len(Z) // len(DEFAULT_BETAS) if isinstance(params.beta, np.ndarray) else len(Z)
            if Z.shape[1] == 7:
                ev.losses[::block] = ev.grads[::block] = ev.probs[::block] = np.nan
            return ev

        monkeypatch.setattr(gradient_decay.verify, "beta_ce_batch", nan_row)
        failures = verify_all().failures()
        per_beta = ("fd_gradient_agreement", "gradient_null_sum", "shift_invariance", "margin_sandwich")
        # the sandwich's tau=1 losses are the beta=1 call's
        assert {(c.property, c.beta) for c in failures} == {("beta1_equivalence", None), ("temperature_sandwich", None)} \
            | {(prop, b) for b in DEFAULT_BETAS for prop in per_beta}
        assert all(math.isnan(c.worst_error) for c in failures)
        assert main(["verify"]) == 1
        assert "FAILED properties: beta1_equivalence, fd_gradient_agreement" in capsys.readouterr().err

    @pytest.mark.parametrize("part, failing", [
        ("grad", {"beta1_equivalence"}),
        ("loss", {"beta1_equivalence", "temperature_sandwich"}),
    ], ids=["grad", "loss"])
    def test_the_beta_one_call_is_checked_in_every_part(self, monkeypatch, part, failing):
        # on the drawn trials the gradient half of beta1_equivalence and the tau=1 half of the
        # sandwich are exactly 0, so only a perturbed beta=1 call shows that they are checked
        def perturbed(Z, y, params):
            ev = beta_ce_batch(Z, y, params)
            if not isinstance(params.beta, np.ndarray):  # the scalar beta=1 call of each width group
                if part == "grad":
                    ev.grads[0, 0] += 1e-9
                else:
                    # 1e-9 below max(z) - z_c: every drawn tau=1 loss sits over 1e-3 inside its bounds
                    ev.losses[0] = Z[0].max() - Z[0, y[0]] - 1e-9
            return ev

        monkeypatch.setattr(gradient_decay.verify, "beta_ce_batch", perturbed)
        assert {c.property for c in verify_all(FdConfig(trials=50)).failures()} == failing

    def test_each_width_group_runs_every_beta_in_one_stack_call(self, monkeypatch):
        # 19 width groups, six kernel calls each however many betas there are: the beta=1 call, the
        # tau=0.1 and tau=0.01 sandwich calls, and the stack, difference and tau=0.1 margin calls
        # tiled once per beta
        def counted(betas):
            calls = {"beta_ce_batch": 0, "all": 0}

            def wrap(kernel):
                def call(Z, y, params):
                    calls["all"] += 1
                    calls["beta_ce_batch"] += kernel is beta_ce_batch
                    return kernel(Z, y, params)
                return call

            monkeypatch.setattr(gradient_decay.verify, "beta_ce_batch", wrap(beta_ce_batch))
            monkeypatch.setattr(gradient_decay.verify, "batch_losses", wrap(batch_losses))
            verify_all(FdConfig(), betas)
            return calls

        assert counted(DEFAULT_BETAS) == counted([1.0]) == {"beta_ce_batch": 19 + 19, "all": 6 * 19}

    def test_deterministic_given_seed(self):
        a = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        b = verify_all(FdConfig(trials=20, seed=99), [0.1, 5.0])
        assert a == b

    def test_a_negative_zero_error_is_reported_as_zero(self, monkeypatch):
        # at beta > 1 the convexity error is the max of -d2G: a d2G of zeros makes it -0.0, which
        # np.max returns for its tie with 0.0; the report gives 0.0, as max(0.0, -0.0) did
        monkeypatch.setattr(gradient_decay.verify, "magnitude_derivatives", lambda p, b: (p, np.zeros_like(p)))
        worst = {c.property: c.worst_error for c in verify_all(FdConfig(trials=1), [5.0]).checks}
        assert bits(worst["convexity_flip"]) == bits(0.0)

    def test_overflow_is_reported_without_warnings(self):
        # at beta=1e308, G and d2G overflow; the report carries that, numpy's warnings would repeat it
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_all(FdConfig(trials=5), [1e308])
        assert np.geterr() == before
        failed = {c.property: c.worst_error for c in report.failures()}
        assert set(failed) == {"monotone_decay", "convexity_flip", "curvature_peak_value"}
        assert math.isnan(failed["convexity_flip"])

    def test_overtight_tolerance_reports_failures_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(gradient_decay.verify, "_FD_REL_TOL", 1e-14)
        report = verify_all(FdConfig(trials=20), [1.0])
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

    def test_default_output_matches_the_bench_digests(self, capsys):
        # bench/digests.json records the sha256 of every line `verify` prints with its defaults,
        # keyed property@beta as bench/workloads.py names them; a refactor must not move a byte
        gate = bench_module("gate")
        recorded = json.loads(gate.DIGESTS_PATH.read_text())
        here = gate.fingerprint(gate.platform_info())
        if here != recorded["fingerprint"]:
            pytest.skip(f"verify digests were recorded on platform {recorded['fingerprint']}, this one is {here}")
        assert main(["verify"]) == 0
        digests = {}
        for line in capsys.readouterr().out.splitlines(keepends=True):
            rec = json.loads(line)
            digests[f"{rec['property']}@{rec['beta']}"] = hashlib.sha256(line.encode()).hexdigest()
        expected = recorded["workloads"]["verify_default"]
        assert sorted(digests) == sorted(expected)
        assert [name for name in expected if digests[name] != expected[name]] == []

    def test_fd_config_validation(self):
        with pytest.raises(ValueError):
            FdConfig(trials=0)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            FdConfig(seed=-1)
