"""Independent numerical verification of the loss analytics.

Central finite differences and dense grid scans act as the reference for
every analytic claim in :mod:`gradient_decay.loss`.  Reference values are
computed from loss *values* only (or from closed forms written out locally);
they never reuse the analytic derivative code paths they are checking.  The
suite runs on the kernels training runs, with the trials stacked per logit
width m.  One ``beta_ce_batch`` call per width group covers, for every beta
at once, the group's logits, every shifted copy of them and the z_c +- h
copies of the curvature checks: the stack is tiled once per beta, with a
per-row beta.  One ``batch_losses`` call per group gives the margin
sandwich's tau=0.1 losses the same way, and per group and beta one
``batch_losses`` call on all 2m*k perturbed rows gives its finite
differences.  Kernel rows are computed independently, each with its own
beta, so the stacking changes no bit of the report.  What no beta changes
(the stacks, the p_c references, the margin term) is computed once per
group, and the per-trial checks (the d2J/d3J closed forms and the margin
sandwich) run once per beta on every group's trials at once.  The margin
sandwich takes its tau=1 losses from the stack call.
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
from dataclasses import dataclass
from typing import NamedTuple

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


class _Group(NamedTuple):
    """One width group's trials with the inputs of its checks that no beta changes."""

    Z: np.ndarray            # (k, m) logits
    c: np.ndarray            # (k,) labels
    fd_labels: np.ndarray    # labels of central_diff_grad's 2m*k rows
    stack: np.ndarray        # Z, then Z + s for each of _SHIFTS, then Z with z_c + h and z_c - h
    stack_labels: np.ndarray
    p: np.ndarray            # reference p_c of Z, of z_c + h and of z_c - h
    p_plus: np.ndarray
    p_minus: np.ndarray
    margin: np.ndarray       # max_{i != c} z_i - z_c

    def blocks(self, a: np.ndarray) -> np.ndarray:
        """The rows of a kernel column on stack tiled once per beta, as (k, ...) blocks indexed [beta, copy]."""
        return a.reshape(-1, len(self.stack) // len(self.Z), len(self.Z), *a.shape[1:])


def _group(Z: np.ndarray, c: np.ndarray, h: float) -> _Group:
    rows = np.arange(len(Z))
    Zp, Zm = Z.copy(), Z.copy()
    Zp[rows, c] += h
    Zm[rows, c] -= h
    others = Z.copy()
    others[rows, c] = -np.inf
    copies = [Z] + [Z + s for s in _SHIFTS] + [Zp, Zm]
    return _Group(
        Z, c, np.repeat(c, 2 * Z.shape[1]), np.vstack(copies), np.tile(c, len(copies)),
        *(_standard_ce(z, c)[2] for z in (Z, Zp, Zm)), others.max(axis=1) - Z[rows, c],
    )


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

    rng = np.random.default_rng(fd.seed)
    groups = [_group(Z, c, _FD_STEP) for Z, c in _draw_trials(rng, fd.trials)]
    checks: list[PropertyCheck] = []

    def add(prop: str, beta: float | None, tol: float, err: float) -> None:
        checks.append(PropertyCheck(prop, beta, tol, float(err), bool(err <= tol)))

    # beta=1 must reproduce the standard softmax cross-entropy bit-for-bit
    # up to summation order.
    worst = 0.0
    for g in groups:
        ev, (losses, grads, _) = beta_ce_batch(g.Z, g.c, LossParams(beta=1.0)), _standard_ce(g.Z, g.c)
        worst = _worst(worst, float(np.abs(ev.losses - losses).max()), float(np.abs(ev.grads - grads).max()))
    add("beta1_equivalence", None, 1e-12, worst)

    # G -> 1 as beta -> 0+ and G -> 0 as beta -> +inf, evaluated at p=0.5.
    err = _worst(
        (1.0 - 1e-7) - gradient_magnitude(0.5, 1e-8),
        gradient_magnitude(0.5, 1e8) - 1e-7,
        0.0,
    )
    add("extreme_beta_limits", None, 0.0, err)

    # Sandwich between the loss and the max function it smooths (beta=1):
    # max(z) - z_c <= tau*J <= max(z) - z_c + tau*log(m).
    worst = 0.0
    for g in groups:
        lo_bound = g.Z.max(axis=1) - g.Z[np.arange(len(g.Z)), g.c]
        for tau in _SANDWICH_TAUS:
            tj = tau * batch_losses(g.Z, g.c, LossParams(beta=1.0, tau=tau))
            up_bound = lo_bound + tau * math.log(g.Z.shape[1])
            worst = _worst(worst, float((lo_bound - tj).max()), float((tj - up_bound).max()))
    add("temperature_sandwich", None, 1e-12, worst)

    grid = np.linspace(_PROB_EPS, 1.0 - _PROB_EPS, _DECAY_GRID_POINTS)
    # One pass over the peak grid for every beta: each block is built once.
    peaks = grid_scan_extremum([lambda p, b=b: curvature(p, b) for b in betas],
                               _PROB_EPS, 1.0 - _PROB_EPS, _PEAK_GRID_POINTS)
    h = _FD_STEP
    # Per group, one kernel call on the stack and one tau=0.1 call on Z, each tiled
    # once per beta with a per-row beta; blocks(...)[i, 0] is Z itself at betas[i].
    nb = len(betas)
    evs = [beta_ce_batch(np.tile(g.stack, (nb, 1)), np.tile(g.stack_labels, nb),
                         LossParams(beta=np.repeat(betas, len(g.stack))))
           for g in groups]
    j_tau01 = [batch_losses(np.tile(g.Z, (nb, 1)), np.tile(g.c, nb),
                            LossParams(beta=np.repeat(betas, len(g.Z)), tau=0.1)).reshape(nb, -1)
               for g in groups]

    # The per-trial checks run on every group's trials at once; what a beta changes is a (betas, trials) array.
    p, p_plus, p_minus, margin = (np.concatenate([getattr(g, f) for g in groups])
                                  for f in ("p", "p_plus", "p_minus", "margin"))
    log_m = np.concatenate([np.full(len(g.Z), math.log(g.Z.shape[1])) for g in groups])
    fd2, j_tau1 = [], []
    for g, ev in zip(groups, evs):
        rows = np.arange(len(g.Z))
        grads = g.blocks(ev.grads)
        fd2.append((grads[:, -2, rows, g.c] - grads[:, -1, rows, g.c]) / (2.0 * h))
        # at tau=1, J is block 0 of the stack call, bitwise batch_losses on Z
        j_tau1.append(g.blocks(ev.losses)[:, 0])
    fd2, j_tau1, j_tau01 = (np.concatenate(a, axis=1) for a in (fd2, j_tau1, j_tau01))

    for i, (b, (peak_arg, peak_val)) in enumerate(zip(betas, peaks)):
        params = LossParams(beta=b)

        # Analytic gradient vs central differences of the loss value.
        worst_fd = 0.0
        worst_sum = 0.0
        for g, ev in zip(groups, evs):
            fd_grads = central_diff_grad(lambda R: batch_losses(R, g.fd_labels, params), g.Z, h)
            grads = g.blocks(ev.grads)[i, 0]
            scale = np.maximum(1.0, np.abs(fd_grads).max(axis=1))
            worst_fd = _worst(worst_fd, float((np.abs(grads - fd_grads).max(axis=1) / scale).max()))
            worst_sum = _worst(worst_sum, float(np.abs(grads.sum(axis=1)).max()))
        add("fd_gradient_agreement", b, _FD_REL_TOL, worst_fd)
        add("gradient_null_sum", b, 1e-12, worst_sum)

        # Adding a constant to every logit must not move loss/grad/probs.
        worst = 0.0
        for g, ev in zip(groups, evs):
            fields = [g.blocks(getattr(ev, f))[i] for f in ("losses", "grads", "probs")]
            worst = _worst(worst, *[float(np.abs(a[1:1 + len(_SHIFTS)] - a[0]).max()) for a in fields])
        add("shift_invariance", b, 1e-10, worst)

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
        fd3 = (curvature(p_plus, b) - curvature(p_minus, b)) / (2.0 * h)
        d2, d3 = logit_curvature(p, b)
        add("derivative_consistency_d2", b, 1e-5,
            _worst(0.0, float((np.abs(d2 - fd2[i]) / np.maximum(1.0, np.abs(fd2[i]))).max())))
        add("derivative_consistency_d3", b, 1e-5,
            _worst(0.0, float((np.abs(d3 - fd3) / np.maximum(1.0, np.abs(fd3))).max())))

        # J is sandwiched between the margin max-term and max-term + log(m).
        worst = 0.0
        for tau, j in ((1.0, j_tau1[i]), (0.1, j_tau01[i])):
            m_term = np.maximum(math.log(b), margin / tau)
            worst = _worst(worst, float((m_term - j).max()), float((j - (m_term + log_m)).max()))
        add("margin_sandwich", b, 1e-12, worst)

    return VerifyReport(tuple(checks))
