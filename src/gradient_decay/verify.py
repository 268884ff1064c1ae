"""Independent numerical verification of the loss analytics.

Central finite differences and dense grid scans act as the reference for
every analytic claim in :mod:`gradient_decay.loss`.  Reference values are
computed from loss *values* only (or from closed forms written out locally);
they never reuse the analytic derivative code paths they are checking.  The
finite-difference gradient takes all 2m perturbed rows of a sample as one
matrix and reads their loss values from one ``batch_losses`` call, which
returns the same bits as 2m scalar ``beta_ce_loss`` calls.

Error convention: differences are scaled by max(1, |reference|), i.e. they
are relative for O(1) quantities and absolute below that.  A pure relative
error is meaningless where the gradient underflows toward the finite
difference noise floor (~1e-10 at step 1e-5 in float64).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import (
    LabeledLogits,
    LossParams,
    batch_losses,
    beta_ce_eval,
    beta_ce_loss,
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "property": self.property,
                "beta": self.beta,
                "tolerance": self.tolerance,
                "worst_error": self.worst_error,
                "pass": self.passed,
            }
        )


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json_lines(self) -> str:
        return "\n".join(c.to_json() for c in self.checks)


def central_diff_grad(f, z, step: float) -> np.ndarray:
    """Central-difference gradient from one call of f on all 2m perturbed rows.

    f maps a (k, m) matrix to its k row values and is called once, on rows
    z + step*e_i (row i) and z - step*e_i (row m + i).  Component i is
    (f(z + step*e_i) - f(z - step*e_i)) / (2 step).
    """
    z = np.asarray(z, dtype=np.float64)
    check_positive_real("step", step)
    if z.ndim != 1:
        raise ValueError("z must be a 1-d vector")
    m = z.size
    Z = np.tile(z, (2 * m, 1))
    i = np.arange(m)
    Z[i, i] += step
    Z[m + i, i] -= step
    vals = np.asarray(f(Z), dtype=np.float64)
    if vals.shape != (2 * m,):
        raise ValueError(f"f must return one value per row, {2 * m} in all; got shape {vals.shape}")
    fp, fm = vals[:m], vals[m:]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        raise ValueError(f"non-finite evaluation while differencing coordinate {int(np.argmax(bad))}")
    return (fp - fm) / (2.0 * step)


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


# --- local closed forms used as beta=1 references (kept independent of loss.py) ---


def _standard_ce_loss(z: np.ndarray, c: int, tau: float = 1.0) -> float:
    y = z / tau
    s = y.max()
    return float(np.log(np.exp(y - s).sum()) + s - y[c])


def _standard_ce_grad(z: np.ndarray, c: int, tau: float = 1.0) -> np.ndarray:
    y = z / tau
    e = np.exp(y - y.max())
    p = e / e.sum()
    g = p / tau
    g[c] = (p[c] - 1.0) / tau
    return g


def _fd_loss_grad(z: np.ndarray, c: int, params: LossParams, step: float) -> np.ndarray:
    """Central-difference gradient of the loss at (z, c), from batch_losses values only."""
    labels = np.full(2 * z.size, c)
    return central_diff_grad(lambda Z: batch_losses(Z, labels, params), z, step)


def _scaled_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.abs(np.asarray(candidate) - ref).max() / max(1.0, np.abs(ref).max()))


def _draw_trials(rng: np.random.Generator, trials: int) -> list[tuple[np.ndarray, int]]:
    # Uniform logits on [-5, 5] keep probabilities away from hard saturation,
    # where finite differences are ill-conditioned.
    out = []
    for _ in range(trials):
        m = int(rng.integers(2, 21))
        z = rng.uniform(-5.0, 5.0, m)
        c = int(rng.integers(0, m))
        out.append((z, c))
    return out


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
    trials = _draw_trials(rng, fd.trials)
    checks: list[PropertyCheck] = []

    def add(prop: str, beta: float | None, tol: float, err: float) -> None:
        checks.append(PropertyCheck(prop, beta, tol, float(err), bool(err <= tol)))

    # beta=1 must reproduce the standard softmax cross-entropy bit-for-bit
    # up to summation order.
    one = LossParams(beta=1.0)
    worst = 0.0
    for z, c in trials:
        ev = beta_ce_eval(LabeledLogits(z, c), one)
        worst = max(worst, abs(ev.loss - _standard_ce_loss(z, c)))
        worst = max(worst, float(np.abs(ev.grad - _standard_ce_grad(z, c)).max()))
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
    for tau in _SANDWICH_TAUS:
        params = LossParams(beta=1.0, tau=tau)
        for z, c in trials:
            tj = tau * beta_ce_loss(LabeledLogits(z, c), params)
            lo_bound = float(z.max() - z[c])
            up_bound = lo_bound + tau * math.log(z.size)
            worst = max(worst, lo_bound - tj, tj - up_bound)
    add("temperature_sandwich", None, 1e-12, max(worst, 0.0))

    for b in betas:
        params = LossParams(beta=b)

        # Analytic gradient vs central differences of the loss value.
        worst_fd = 0.0
        worst_sum = 0.0
        for z, c in trials:
            x = LabeledLogits(z, c)
            fd_grad = _fd_loss_grad(z, c, params, fd.step)
            ev = beta_ce_eval(x, params)
            worst_fd = max(worst_fd, _scaled_err(ev.grad, fd_grad))
            worst_sum = max(worst_sum, abs(float(ev.grad.sum())))
        add("fd_gradient_agreement", b, fd.rel_tol, worst_fd)
        add("gradient_null_sum", b, 1e-12, worst_sum)

        # Adding a constant to every logit must not move loss/grad/probs.
        worst = 0.0
        for z, c in trials:
            base = beta_ce_eval(LabeledLogits(z, c), params)
            for k in _SHIFTS:
                shifted = beta_ce_eval(LabeledLogits(z + k, c), params)
                worst = max(
                    worst,
                    abs(shifted.loss - base.loss),
                    float(np.abs(shifted.grad - base.grad).max()),
                    float(np.abs(shifted.probs - base.probs).max()),
                )
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
        for z, c in trials:
            pc = float(np.exp(z[c] - z.max()) / np.exp(z - z.max()).sum())

            def grad_c(t: float) -> float:
                z2 = z.copy()
                z2[c] = t
                return float(beta_ce_eval(LabeledLogits(z2, c), params).grad[c])

            def curv(t: float) -> float:
                z2 = z.copy()
                z2[c] = t
                p2 = float(np.exp(z2[c] - z2.max()) / np.exp(z2 - z2.max()).sum())
                return float(curvature(p2, b))

            fd2 = (grad_c(z[c] + h) - grad_c(z[c] - h)) / (2.0 * h)
            fd3 = (curv(z[c] + h) - curv(z[c] - h)) / (2.0 * h)
            d2, d3 = logit_curvature(pc, b)
            worst2 = max(worst2, abs(float(d2) - fd2) / max(1.0, abs(fd2)))
            worst3 = max(worst3, abs(float(d3) - fd3) / max(1.0, abs(fd3)))
        add("derivative_consistency_d2", b, 1e-5, worst2)
        add("derivative_consistency_d3", b, 1e-5, worst3)

        # J is sandwiched between the margin max-term and max-term + log(m).
        worst = 0.0
        for tau in (1.0, 0.1):
            p_tau = LossParams(beta=b, tau=tau)
            for z, c in trials:
                j = beta_ce_loss(LabeledLogits(z, c), p_tau)
                zc = z[c]
                margin = max(np.delete(z, c).max() - zc, -np.inf) / tau
                m_term = max(math.log(b), margin)
                worst = max(worst, m_term - j, j - (m_term + math.log(z.size)))
        add("margin_sandwich", b, 1e-12, max(worst, 0.0))

    return VerifyReport(tuple(checks))
