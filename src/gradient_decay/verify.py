"""Independent numerical verification of the loss analytics.

Central finite differences and dense grid scans act as the reference for
every analytic claim in :mod:`gradient_decay.loss`.  Reference values are
computed from loss *values* only (or from closed forms written out locally);
they never reuse the analytic derivative code paths they are checking.  The
suite runs on the kernels training runs, with the trials stacked per logit
width m: a property makes one batch call per width group and per beta, tau
or shift, and one ``batch_losses`` call on all 2m*k perturbed rows gives a
group's finite differences.  Kernel rows are computed independently, so the
grouping changes no bit of the report; the references are vectorised too.

Error convention: differences are scaled by max(1, |reference|), i.e. they
are relative for O(1) quantities and absolute below that.  A pure relative
error is meaningless where the gradient underflows toward the finite
difference noise floor (~1e-10 at step 1e-5 in float64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import (
    LossParams,
    batch_losses,
    beta_ce_batch,
    beta_ce_eval,  # noqa: F401  (bench/spans.py wraps this binding)
    beta_ce_loss,  # noqa: F401  (bench/spans.py wraps this binding)
    check_int,
    check_positive_real,
    curvature,
    gradient_magnitude,
    inflection_point,
    logit_curvature,
    magnitude_derivatives,
)

__all__ = [
    "FdConfig",
    "PropertyCheck",
    "VerifyReport",
    "central_diff_grad",
    "grid_scan_extremum",
    "verify_all",
    "DEFAULT_BETAS",
]

DEFAULT_BETAS = (0.01, 0.1, 1.0, 5.0, 20.0)

# Fixed grids for the scan-based checks.
_DECAY_GRID_POINTS = 10_000
_PEAK_GRID_POINTS = 1_000_000
_PROB_EPS = 1e-6
_SHIFTS = (-50.0, -7.3, 13.7, 50.0)
_SANDWICH_TAUS = (1.0, 0.1, 0.01)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference settings: step h, scaled tolerance, trial count, seed."""

    step: float = 1e-5
    rel_tol: float = 1e-6
    trials: int = 200
    seed: int = 20240811

    def __post_init__(self) -> None:
        check_positive_real("step", self.step)
        check_positive_real("rel_tol", self.rel_tol)
        check_int("trials", self.trials, 1)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one verified property: worst observed error vs tolerance."""

    property: str
    beta: float | None
    tolerance: float
    worst_error: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]


def central_diff_grad(f, z, step: float) -> np.ndarray:
    """Central-difference gradients of k samples from one call of f on all 2m*k perturbed rows.

    z is one (m,) sample or a (k, m) stack of samples; the result has its
    shape.  f maps an (r, m) matrix to its r row values.  It is called once,
    on rows in sample-major order: rows 2m*j + i and 2m*j + m + i hold
    sample j's z + step*e_i and z - step*e_i.  Component i of sample j is
    (f(z + step*e_i) - f(z - step*e_i)) / (2 step).
    """
    z = np.asarray(z, dtype=np.float64)
    check_positive_real("step", step)
    if z.ndim not in (1, 2):
        raise ValueError("z must be an (m,) vector or a (k, m) stack of them")
    k, m = np.atleast_2d(z).shape
    i = np.arange(m)
    rows = np.repeat(np.atleast_2d(z), 2 * m, axis=0).reshape(k, 2, m, m)
    rows[:, 0, i, i] += step
    rows[:, 1, i, i] -= step
    vals = np.asarray(f(rows.reshape(2 * m * k, m)), dtype=np.float64)
    if vals.shape != (2 * m * k,):
        raise ValueError(f"f must return one value per row, {2 * m * k} in all; got shape {vals.shape}")
    fp, fm = vals.reshape(k, 2, m).transpose(1, 0, 2)
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        j, c = np.argwhere(bad)[0]
        raise ValueError(f"non-finite evaluation while differencing sample {j}, coordinate {c}")
    return ((fp - fm) / (2.0 * step)).reshape(z.shape)


def grid_scan_extremum(g, lo: float, hi: float, points: int) -> tuple[float, float]:
    """(argmax, max) of g over an equispaced grid on [lo, hi]; g is called once, on the whole grid."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    check_int("points", points, 3)
    grid = np.linspace(lo, hi, points)
    vals = np.asarray(g(grid), dtype=np.float64)
    if vals.shape != grid.shape:
        raise ValueError(f"g returned shape {vals.shape} for a grid of shape {grid.shape}")
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


# --- local closed forms used as references (kept independent of loss.py) ---


def _standard_ce(Z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(losses, gradients) of the standard softmax cross-entropy for the rows of Z, labels c."""
    rows = np.arange(len(Z))
    s = Z.max(axis=1)
    e = np.exp(Z - s[:, None])
    total = e.sum(axis=1)
    g = e / total[:, None]
    g[rows, c] -= 1.0
    return np.log(total) + s - Z[rows, c], g


def _p_true(Z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Softmax probability of the true class for the rows of Z, labels c."""
    s = Z.max(axis=1)
    return np.exp(Z[np.arange(len(Z)), c] - s) / np.exp(Z - s[:, None]).sum(axis=1)


def _per_point(f, p: np.ndarray, beta: float) -> np.ndarray:
    # f(x, beta) for each x in p, one scalar call each.  numpy squares a scalar
    # d2J denominator with C pow and an array one exactly; the two differ in the
    # last bit for ~1 point in 1000, and the report would move with them.
    return np.array([f(x, beta) for x in p.tolist()])


def _draw_trials(rng: np.random.Generator, trials: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The trials as (Z, c) stacks, one per logit width m in increasing m, rows in draw order."""
    # Uniform logits on [-5, 5] keep probabilities away from hard saturation,
    # where finite differences are ill-conditioned.
    by_width: dict[int, list[tuple[np.ndarray, int]]] = {}
    for _ in range(trials):
        m = int(rng.integers(2, 21))
        z = rng.uniform(-5.0, 5.0, m)
        c = int(rng.integers(0, m))
        by_width.setdefault(m, []).append((z, c))
    return [(np.array([z for z, _ in group]), np.array([c for _, c in group]))
            for _, group in sorted(by_width.items())]


def verify_all(fd: FdConfig = FdConfig(), betas=DEFAULT_BETAS) -> VerifyReport:
    """Run every verified property and collect a pass/fail report.

    Deterministic given fd.seed; failures become report entries rather than
    exceptions.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("need at least one beta")
    for b in betas:
        check_positive_real("beta", b)
    betas = [float(b) for b in betas]

    rng = np.random.default_rng(fd.seed)
    groups = _draw_trials(rng, fd.trials)
    checks: list[PropertyCheck] = []

    def add(prop: str, beta: float | None, tol: float, err: float) -> None:
        checks.append(PropertyCheck(prop, beta, tol, float(err), bool(err <= tol)))

    # beta=1 must reproduce the standard softmax cross-entropy bit-for-bit
    # up to summation order.
    worst = 0.0
    for Z, c in groups:
        ev, (losses, grads) = beta_ce_batch(Z, c, LossParams(beta=1.0)), _standard_ce(Z, c)
        worst = max(worst, float(np.abs(ev.losses - losses).max()), float(np.abs(ev.grads - grads).max()))
    add("beta1_equivalence", None, 1e-12, worst)

    # G -> 1 as beta -> 0+ and G -> 0 as beta -> +inf, evaluated at p=0.5.
    err = max(
        (1.0 - 1e-7) - gradient_magnitude(0.5, 1e-8),
        gradient_magnitude(0.5, 1e8) - 1e-7,
        0.0,
    )
    add("extreme_beta_limits", None, 0.0, err)

    # Sandwich between the loss and the max function it smooths (beta=1):
    # max(z) - z_c <= tau*J <= max(z) - z_c + tau*log(m).
    worst = 0.0
    for Z, c in groups:
        lo_bound = Z.max(axis=1) - Z[np.arange(len(Z)), c]
        for tau in _SANDWICH_TAUS:
            tj = tau * batch_losses(Z, c, LossParams(beta=1.0, tau=tau))
            up_bound = lo_bound + tau * math.log(Z.shape[1])
            worst = max(worst, float((lo_bound - tj).max()), float((tj - up_bound).max()))
    add("temperature_sandwich", None, 1e-12, worst)

    for b in betas:
        params = LossParams(beta=b)

        # Analytic gradient vs central differences of the loss value.
        worst_fd = 0.0
        worst_sum = 0.0
        for Z, c in groups:
            labels = np.repeat(c, 2 * Z.shape[1])
            fd_grads = central_diff_grad(lambda R: batch_losses(R, labels, params), Z, fd.step)
            grads = beta_ce_batch(Z, c, params).grads
            scale = np.maximum(1.0, np.abs(fd_grads).max(axis=1))
            worst_fd = max(worst_fd, float((np.abs(grads - fd_grads).max(axis=1) / scale).max()))
            worst_sum = max(worst_sum, float(np.abs(grads.sum(axis=1)).max()))
        add("fd_gradient_agreement", b, fd.rel_tol, worst_fd)
        add("gradient_null_sum", b, 1e-12, worst_sum)

        # Adding a constant to every logit must not move loss/grad/probs.
        worst = 0.0
        for Z, c in groups:
            base = beta_ce_batch(Z, c, params)
            for k in _SHIFTS:
                shifted = beta_ce_batch(Z + k, c, params)
                worst = max([worst] + [float(np.abs(getattr(shifted, f) - getattr(base, f)).max())
                                       for f in ("losses", "grads", "probs")])
        add("shift_invariance", b, 1e-10, worst)

        # G strictly decreasing on (0, 1), with the stated endpoint limits.
        grid = np.linspace(_PROB_EPS, 1.0 - _PROB_EPS, _DECAY_GRID_POINTS)
        G = gradient_magnitude(grid, b)
        err = max(0.0, float(np.diff(G).max()))
        lo_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, 1.0 / b)
        hi_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, b)
        err = max(err, (1.0 - lo_tol) - float(gradient_magnitude(1e-9, b)))
        err = max(err, float(gradient_magnitude(1.0 - 1e-9, b)) - hi_tol)
        add("monotone_decay", b, 0.0, err)

        # d2G keeps the sign of (beta - 1) across the whole interval.
        d2g = magnitude_derivatives(grid, b)[1]
        if b > 1.0:
            err = max(0.0, -float(d2g.min()))
        elif b < 1.0:
            err = max(0.0, float(d2g.max()))
        else:
            err = float(np.abs(d2g).max())
        add("convexity_flip", b, 0.0, err)

        # Grid scan must find the curvature peak of exactly 1/4 at 1/(1+beta).
        arg, val = grid_scan_extremum(
            lambda p: curvature(p, b), _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS
        )
        add("curvature_peak_location", b, 1e-5, abs(arg - inflection_point(b)))
        add("curvature_peak_value", b, 1e-9, abs(val - 0.25))

        # d2J must match differences of grad_c in z_c, and d3J differences of d2J.
        worst2 = 0.0
        worst3 = 0.0
        h = fd.step
        for Z, c in groups:
            rows = np.arange(len(Z))
            Zp, Zm = Z.copy(), Z.copy()
            Zp[rows, c] += h
            Zm[rows, c] -= h
            grads = beta_ce_batch(np.vstack([Zp, Zm]), np.tile(c, 2), params).grads
            fd2 = (grads[rows, c] - grads[len(Z) + rows, c]) / (2.0 * h)
            fd3 = (_per_point(curvature, _p_true(Zp, c), b) - _per_point(curvature, _p_true(Zm, c), b)) / (2.0 * h)
            d2, d3 = _per_point(logit_curvature, _p_true(Z, c), b).T
            worst2 = max(worst2, float((np.abs(d2 - fd2) / np.maximum(1.0, np.abs(fd2))).max()))
            worst3 = max(worst3, float((np.abs(d3 - fd3) / np.maximum(1.0, np.abs(fd3))).max()))
        add("derivative_consistency_d2", b, 1e-5, worst2)
        add("derivative_consistency_d3", b, 1e-5, worst3)

        # J is sandwiched between the margin max-term and max-term + log(m).
        worst = 0.0
        for Z, c in groups:
            rows = np.arange(len(Z))
            others = Z.copy()
            others[rows, c] = -np.inf
            for tau in (1.0, 0.1):
                j = batch_losses(Z, c, LossParams(beta=b, tau=tau))
                m_term = np.maximum(math.log(b), (others.max(axis=1) - Z[rows, c]) / tau)
                worst = max(worst, float((m_term - j).max()), float((j - (m_term + math.log(Z.shape[1]))).max()))
        add("margin_sandwich", b, 1e-12, worst)

    return VerifyReport(tuple(checks))
