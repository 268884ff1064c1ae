"""Independent numerical verification of the loss analytics.

Central finite differences and dense grid scans act as the reference for
every analytic claim in :mod:`gradient_decay.loss`.  Reference values are
computed from loss *values* only (or from closed forms written out locally);
they never reuse the analytic derivative code paths they are checking.  The
suite runs on the kernels training runs, in one pass over the trials stacked
per logit width m.  Each width group makes six kernel calls whatever the
number of betas: a beta=1 ``beta_ce_batch`` call, whose losses are also the
temperature sandwich's tau=1 losses, the sandwich's tau=0.1 and tau=0.01
``batch_losses`` calls, and three calls tiled once per beta with a per-row
beta.  These are ``beta_ce_batch`` on the group's logits, every shifted copy
of them and their z_c +- h copies; ``batch_losses`` on the 2m*k perturbed
rows of the finite differences; and the margin sandwich's tau=0.1
``batch_losses``.  Kernel rows are computed independently, each with its own
beta, so the stacking changes no bit of the report.  Each check keeps a row
of per-trial errors or references per group.  After the pass, the d2J/d3J
closed forms and the margin sandwich (its tau=1 losses are the stack call's)
run once per beta on all trials at once, and each property is the exact max
of its rows.
Grid scans build and evaluate their grid block by block, so a 1M-point
scan never holds the grid and its temporaries stay cache-sized.  The
curvature-peak check is one pass over its grid for all betas: each block is
built once, and every beta's d2J runs on it in turn.

Error convention: differences are scaled by max(1, |reference|), i.e. they
are relative for O(1) quantities and absolute below that.  A pure relative
error is meaningless where the gradient underflows toward the finite
difference noise floor (~1e-10 at step 1e-5 in float64).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import (
    LossParams,
    batch_losses,
    batch_losses as beta_ce_loss,  # noqa: F401  (bench/spans.py wraps this binding)
    beta_ce_batch,
    beta_ce_batch as beta_ce_eval,  # noqa: F401  (bench/spans.py wraps this binding)
    check_int,
    check_positive_real,
    check_real_in,
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

# Grid points per call of a scan's g: 128 KiB of float64, so a pointwise g's
# temporaries stay in L2 (as calibration._BLOCK_ROWS does for the NLL passes).
_SCAN_BLOCK = 16384

# Central-difference step h and the scaled tolerance of fd_gradient_agreement;
# the 1e-5 tolerances of the d2/d3 consistency checks are chosen for this h.
_FD_STEP = 1e-5
_FD_REL_TOL = 1e-6


@dataclass(frozen=True)
class FdConfig:
    """Random trials of the finite-difference checks: how many, and their seed."""

    trials: int = 200
    seed: int = 20240811

    def __post_init__(self) -> None:
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
    """Central-difference gradients of a (k, m) stack of samples from one call of f on all 2m*k perturbed rows.

    A single sample is a one-row stack; the result has z's shape.  f maps
    an (r, m) matrix to its r row values.  It is called once, on rows in
    sample-major order: rows 2m*j + i and 2m*j + m + i hold sample j's
    z + step*e_i and z - step*e_i.  Component i of sample j is
    (f(z + step*e_i) - f(z - step*e_i)) / (2 step).
    """
    z = np.asarray(z, dtype=np.float64)
    check_positive_real("step", step)
    if z.ndim != 2:
        raise ValueError(f"z must be a (k, m) stack of samples, got shape {z.shape}")
    k, m = z.shape
    i = np.arange(m)
    rows = np.repeat(z, 2 * m, axis=0).reshape(k, 2, m, m)
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
    return (fp - fm) / (2.0 * step)


def _grid_block(lo: float, hi: float, points: int, start: int, stop: int) -> np.ndarray:
    """np.linspace(lo, hi, points)[start:stop], bitwise, as a fresh array: numpy's own arithmetic.

    numpy scales arange(points) by step = (hi - lo) / (points - 1) and adds lo,
    then sets the last point to hi.  Where the step underflows to 0 (a span of a
    few subnormals) it divides by points - 1 first and multiplies by the span.
    """
    block = np.arange(start, stop, dtype=np.float64)
    step = (hi - lo) / (points - 1)
    if step == 0:
        block /= points - 1
        block *= hi - lo
    else:
        block *= step
    block += lo
    if stop == points:
        block[-1] = hi
    return block


def grid_scan_extremum(gs, lo: float, hi: float, points: int) -> list[tuple[float, float]]:
    """[(argmax, max) of g for g in gs] over the grid np.linspace(lo, hi, points), lo < hi both finite.

    gs is a non-empty sequence of pointwise functions: each maps an array of
    grid points to the array of their values, each value depending on its
    own point only.  The grid is built one block of _SCAN_BLOCK consecutive
    points at a time, in order, as a fresh read-only array, and every g runs
    on it in turn, so neither the grid nor the temporaries grow with the
    grid.  Each g's blocks are merged by np.argmax's rule (the first maximum
    wins, and the first NaN beats any number) before the next g runs, which
    makes each pair bitwise that of one call of g on the whole grid.
    """
    fs = list(gs)
    if not fs:
        raise ValueError("need at least one function to scan")
    check_real_in("lo", lo, -math.inf, math.inf)
    check_real_in("hi", hi, -math.inf, math.inf)
    lo, hi = float(lo), float(hi)
    check_positive_real("hi - lo", hi - lo)  # inf where the span overflows
    check_int("points", points, 3)
    best = [(-math.inf, -math.inf)] * len(fs)
    for start in range(0, points, _SCAN_BLOCK):
        block = _grid_block(lo, hi, points, start, min(start + _SCAN_BLOCK, points))
        block.flags.writeable = False  # shared by every function
        for j, f in enumerate(fs):
            vals = np.asarray(f(block), dtype=np.float64)
            if vals.shape != block.shape:
                raise ValueError(f"g returned shape {vals.shape} for a block of shape {block.shape}")
            i = int(np.argmax(vals))
            # the first block's argmax stands even at -inf: np.argmax of an all -inf grid is 0
            if start == 0 or vals[i] > best[j][1] or (math.isnan(vals[i]) and not math.isnan(best[j][1])):
                best[j] = (float(block[i]), float(vals[i]))
    return best


# --- local closed forms used as references (kept independent of loss.py) ---


def _standard_ce(Z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, gradients, true-class probabilities) of the standard softmax cross-entropy
    for the rows of Z, labels c."""
    rows = np.arange(len(Z))
    s = Z.max(axis=1)
    e = np.exp(Z - s[:, None])
    total = e.sum(axis=1)
    g = e / total[:, None]
    p = g[rows, c]
    g[rows, c] -= 1.0
    return np.log(total) + s - Z[rows, c], g, p


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


def _worst(*errs) -> float:
    """The largest of errs, or NaN if any is NaN: max() keeps a number over a NaN that follows it."""
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # the report carries non-finite errors
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

    nb, h = len(betas), _FD_STEP
    # One pass over the width groups makes every kernel call.  Each check appends, per
    # group, a row of its per-trial errors or references: (k,), or (betas, k) if a beta moves it.
    rows: dict[str, list[np.ndarray]] = defaultdict(list)
    for Z, c in _draw_trials(np.random.default_rng(fd.seed), fd.trials):
        k, m = Z.shape
        t = np.arange(k)
        losses, grads, p = _standard_ce(Z, c)
        # beta=1 must reproduce the standard softmax cross-entropy bit-for-bit
        # up to summation order.  Its losses are bitwise batch_losses' at tau=1.
        ev = beta_ce_batch(Z, c, LossParams(beta=1.0))
        rows["beta1"].append(np.maximum(np.abs(ev.losses - losses), np.abs(ev.grads - grads).max(axis=1)))

        # Sandwich between the loss and the max function it smooths (beta=1):
        # max(z) - z_c <= tau*J <= max(z) - z_c + tau*log(m).
        lo_bound, sides = Z.max(axis=1) - Z[t, c], []
        for tau in _SANDWICH_TAUS:
            tj = tau * (ev.losses if tau == 1.0 else batch_losses(Z, c, LossParams(beta=1.0, tau=tau)))
            sides += [lo_bound - tj, tj - (lo_bound + tau * math.log(m))]
        rows["sandwich"].append(np.max(sides, axis=0))

        # One kernel call on Z, Z + s for each of _SHIFTS and Z with z_c +- h, tiled once
        # per beta with a per-row beta: block [i, copy] of a column is that copy at betas[i].
        Zp, Zm = Z.copy(), Z.copy()
        Zp[t, c] += h
        Zm[t, c] -= h
        copies = [Z] + [Z + s for s in _SHIFTS] + [Zp, Zm]
        ev = beta_ce_batch(np.tile(np.vstack(copies), (nb, 1)), np.tile(c, len(copies) * nb),
                           LossParams(beta=np.repeat(betas, len(copies) * k)))
        L, G, P = (a.reshape(nb, len(copies), k, -1) for a in (ev.losses, ev.grads, ev.probs))

        # Analytic gradient vs central differences of the loss value: one call on Z tiled per beta.
        fd_grads = central_diff_grad(
            lambda R: batch_losses(R, np.tile(np.repeat(c, 2 * m), nb), LossParams(beta=np.repeat(betas, 2 * m * k))),
            np.tile(Z, (nb, 1)), h).reshape(nb, k, m)
        scale = np.maximum(1.0, np.abs(fd_grads).max(axis=2))
        rows["fd"].append(np.abs(G[:, 0] - fd_grads).max(axis=2) / scale)
        rows["null_sum"].append(np.abs(G[:, 0].sum(axis=2)))

        # Adding a constant to every logit must not move loss/grad/probs.
        shifted = slice(1, 1 + len(_SHIFTS))
        rows["shift"].append(np.max([np.abs(a[:, shifted] - a[:, :1]).max(axis=(1, 3)) for a in (L, G, P)], axis=0))

        # References of the per-trial checks, which run after the pass on all trials at once.
        rows["fd2"].append((G[:, -2, t, c] - G[:, -1, t, c]) / (2.0 * h))
        rows["p"].append(p)
        rows["p_plus"].append(_standard_ce(Zp, c)[2])
        rows["p_minus"].append(_standard_ce(Zm, c)[2])
        others = Z.copy()
        others[t, c] = -np.inf
        rows["margin"].append(others.max(axis=1) - Z[t, c])
        rows["log_m"].append(np.full(k, math.log(m)))
        rows["j_tau1"].append(L[:, 0, :, 0])
        rows["j_tau01"].append(batch_losses(np.tile(Z, (nb, 1)), np.tile(c, nb),
                                            LossParams(beta=np.repeat(betas, k), tau=0.1)).reshape(nb, k))

    # Every group's rows side by side: max is exact and np.max propagates NaN, so no bit moves.
    r = {name: np.concatenate(a, axis=-1) for name, a in rows.items()}
    checks: list[PropertyCheck] = []

    def add(prop: str, beta: float | None, tol: float, err: float) -> None:
        checks.append(PropertyCheck(prop, beta, tol, float(err), bool(err <= tol)))

    def worst(errs) -> float:
        return _worst(0.0, float(np.max(errs)))

    add("beta1_equivalence", None, 1e-12, worst(r["beta1"]))

    # G -> 1 as beta -> 0+ and G -> 0 as beta -> +inf, evaluated at p=0.5.
    err = _worst(
        (1.0 - 1e-7) - gradient_magnitude(0.5, 1e-8),
        gradient_magnitude(0.5, 1e8) - 1e-7,
        0.0,
    )
    add("extreme_beta_limits", None, 0.0, err)
    add("temperature_sandwich", None, 1e-12, worst(r["sandwich"]))

    grid = np.linspace(_PROB_EPS, 1.0 - _PROB_EPS, _DECAY_GRID_POINTS)
    # One pass over the peak grid for every beta: each block is built once.
    peaks = grid_scan_extremum([lambda p, b=b: curvature(p, b) for b in betas],
                               _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
    for i, (b, (peak_arg, peak_val)) in enumerate(zip(betas, peaks)):
        add("fd_gradient_agreement", b, _FD_REL_TOL, worst(r["fd"][i]))
        add("gradient_null_sum", b, 1e-12, worst(r["null_sum"][i]))
        add("shift_invariance", b, 1e-10, worst(r["shift"][i]))

        # G strictly decreasing on (0, 1), with the stated endpoint limits.
        G = gradient_magnitude(grid, b)
        err = _worst(0.0, float(np.diff(G).max()))
        lo_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, 1.0 / b)
        hi_tol = 1e-8 if b == 1.0 else 1e-6 * max(1.0, b)
        err = _worst(err, (1.0 - lo_tol) - float(gradient_magnitude(1e-9, b)))
        err = _worst(err, float(gradient_magnitude(1.0 - 1e-9, b)) - hi_tol)
        add("monotone_decay", b, 0.0, err)

        # d2G keeps the sign of (beta - 1) across the whole interval.
        d2g = magnitude_derivatives(grid, b)[1]
        if b > 1.0:
            err = _worst(0.0, -float(d2g.min()))
        elif b < 1.0:
            err = _worst(0.0, float(d2g.max()))
        else:
            err = float(np.abs(d2g).max())
        add("convexity_flip", b, 0.0, err)

        # Grid scan must find the curvature peak of exactly 1/4 at 1/(1+beta).
        add("curvature_peak_location", b, 1e-5, abs(peak_arg - inflection_point(b)))
        add("curvature_peak_value", b, 1e-9, abs(peak_val - 0.25))

        # d2J must match differences of grad_c in z_c, and d3J differences of d2J.
        fd2, fd3 = r["fd2"][i], (curvature(r["p_plus"], b) - curvature(r["p_minus"], b)) / (2.0 * h)
        d2, d3 = logit_curvature(r["p"], b)
        add("derivative_consistency_d2", b, 1e-5, worst(np.abs(d2 - fd2) / np.maximum(1.0, np.abs(fd2))))
        add("derivative_consistency_d3", b, 1e-5, worst(np.abs(d3 - fd3) / np.maximum(1.0, np.abs(fd3))))

        # J is sandwiched between the margin max-term and max-term + log(m).
        sides = []
        for tau, j in ((1.0, r["j_tau1"][i]), (0.1, r["j_tau01"][i])):
            m_term = np.maximum(math.log(b), r["margin"] / tau)
            sides += [m_term - j, j - (m_term + r["log_m"])]
        add("margin_sandwich", b, 1e-12, worst(sides))

    return VerifyReport(tuple(checks))
