"""Softmax cross-entropy with a gradient decay factor beta.

The loss for one sample with logits z and true class c is

    J = -log( exp(z_c/tau) / (sum_{i != c} exp(z_i/tau) + beta * exp(z_c/tau)) )

beta multiplies the true-class exponential in the denominator; log(beta) acts
as a soft margin in decision space, and beta controls how fast the gradient
assigned to a sample decays as its true-class probability p_c rises.  beta=1
is the standard softmax cross-entropy.

The loss kernels (beta_ce_batch, batch_losses, batch_p_true) take an (n, m)
logit matrix, one sample per row, and one beta or a per-row beta (an (n,)
array in LossParams).  Every kernel subtracts the maximum logit,
then divides by tau, before exponentiating, so each sample has one
exponential equal to exp(0) = 1: for any finite logits the denominator is
finite and at least min(beta, 1), and nothing overflows.

Everything here is a pure function of its inputs (no shared state), in 64-bit
floating point.  The scalar curvature functions accept numpy arrays as well
and broadcast elementwise; magnitude_derivatives, curvature,
logit_curvature and local_lipschitz_bound give a scalar input the same bits
as the matching element of an array input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossParams",
    "BatchEval",
    "beta_ce_batch",
    "batch_losses",
    "batch_p_true",
    "gradient_magnitude",
    "magnitude_derivatives",
    "curvature",
    "logit_curvature",
    "inflection_point",
    "local_lipschitz_bound",
    "suggested_learning_rate",
]

# Clamp applied to p_c before it enters any denominator; keeps gradients
# finite when the softmax saturates in float64.
P_CLAMP = 1e-12

# scalar types the parameter checkers accept; bool, an int subclass, is rejected on its own
_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


@dataclass(frozen=True, eq=False)
class LossParams:
    """Hyperparameters of the gradient-decay loss.

    beta > 0 is the gradient decay factor, tau > 0 the softmax temperature.
    Temperature is applied by pre-scaling logits with 1/tau, so gradients
    carry a 1/tau factor and logit curvature a 1/tau**2 factor relative to
    the tau=1 formulas.

    beta is one real, or a per-row beta for the batch kernels: a non-empty
    1-d integer or float ndarray (not bool) of positive finite entries, one
    per logit row, stored as a read-only float64 copy.  A LossParams
    compares and hashes by identity, like every record that may hold an
    array.
    """

    beta: float | np.ndarray
    tau: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.beta, np.ndarray):
            object.__setattr__(self, "beta", _positive_array("beta", self.beta))
        else:
            check_positive_real("beta", self.beta)
        check_positive_real("tau", self.tau)


def _positive_array(name: str, a: np.ndarray) -> np.ndarray:
    """a as a read-only float64 copy, if it is a non-empty 1-d integer or float array of positive finite entries."""
    if a.dtype.kind not in "iuf" or a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} as an array must be non-empty, 1-d and of an integer or float dtype, "
                         f"got shape {a.shape} and dtype {a.dtype}")
    out = a.astype(np.float64)  # a copy, even of a float64 array
    bad = ~(np.isfinite(out) & (out > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} entries must be positive finite reals, got {a[i]!r} at index {i}")
    out.flags.writeable = False
    return out


def check_positive_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number > 0: numpy scalars pass, a bool does not."""
    if isinstance(value, bool) or not (isinstance(value, _REALS) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def check_real_in(name: str, value, lo: float, hi: float) -> None:
    """Raise ValueError unless value is a finite real number in [lo, hi): numpy scalars pass, a bool does not."""
    if isinstance(value, bool) or not (isinstance(value, _REALS) and math.isfinite(value) and lo <= value < hi):
        raise ValueError(f"{name} must be a finite real in [{lo}, {hi}), got {value!r}")


def check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer >= least: numpy integers pass, a bool or float does not."""
    if isinstance(value, bool) or not (isinstance(value, _INTS) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def real_array(name: str, values) -> np.ndarray:
    """values as an array, which must have a bool, integer or float dtype (complex parts are not dropped)."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must have a bool, integer or float dtype, got {a.dtype}")
    return a


def integer_labels(labels) -> np.ndarray:
    """labels as an array, which must have an integer dtype (floats are not truncated)."""
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must have an integer dtype, got {y.dtype}")
    return y


def check_labels(labels, n: int, m: int, rows: str = "logit") -> np.ndarray:
    """integer_labels(labels), checked to hold one entry per row, each in [0, m)."""
    y = integer_labels(labels)
    if y.shape != (n,):
        raise ValueError(f"labels must have one entry per {rows} row")
    if y.size and (y.min() < 0 or y.max() >= m):
        raise ValueError(f"labels must lie in [0, {m}), got range [{y.min()}, {y.max()}]")
    return y


def check_labeled_logits(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """(z, y): z a finite float64 (n, m) matrix, m >= 2; y integer labels, one per row, in [0, m)."""
    z = real_array("logits", logits).astype(np.float64, copy=False)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("logits must be an (n, m) matrix with m >= 2")
    if not np.isfinite(z).all():
        raise ValueError("all logits must be finite")
    return z, check_labels(labels, *z.shape)


# Rows per block of class_max: an m x 4096 float64 block stays in L2 for m near 10.
_MAX_BLOCK_ROWS = 4096


def class_max(Z: np.ndarray) -> np.ndarray:
    """The maximum of each row of a float64 (n, m) matrix, reduced on class-major blocks.

    numpy reduces the short rows of Z one at a time.  Here up to 4096 rows
    at a time are copied to class-major order and reduced together, along
    contiguous class rows.  Max is exact, so every maximum has the value of
    Z.max(axis=1)'s; only the sign of a zero maximum (a tie of -0.0 and
    +0.0) may differ, and no caller's output depends on it: a shift by
    either zero gives the same exponentials and the same logarithms.
    """
    n, m = Z.shape
    if n <= _MAX_BLOCK_ROWS:
        return np.maximum.reduce(Z.T.copy(), axis=0)
    zmax, buf = np.empty(n), np.empty((m, _MAX_BLOCK_ROWS))
    for lo in range(0, n, _MAX_BLOCK_ROWS):
        block = Z[lo : lo + _MAX_BLOCK_ROWS]
        zt = buf[:, : block.shape[0]]
        np.copyto(zt, block.T)
        np.maximum.reduce(zt, axis=0, out=zmax[lo : lo + block.shape[0]])
    return zmax


@dataclass(frozen=True, eq=False)
class BatchEval:
    """Row-wise loss/gradient/probability evaluation of a logit matrix.

    Per row, in float64: probs sums to 1 within 1e-12, grads[c] <= 0 <= the
    other entries, and the gradient sums to 0 within 1e-12.
    """

    losses: np.ndarray  # (n,)
    grads: np.ndarray   # (n, m), per-sample gradients (no batch reduction)
    probs: np.ndarray   # (n, m)
    p_true: np.ndarray  # (n,), clamped


def _batch_exps(Z, y, p: LossParams):
    """Validated shift, exponentials and denominators shared by the batch kernels.

    Returns (rows, y, W, E, sums, ec, total) with y the checked labels, W
    the tau-scaled logits less their row maximum, E = exp(W), ec the
    true-class entries of E and total the loss denominator sums - ec +
    beta*ec, with each row's own beta when beta is an array.  Every row of E
    holds a 1, so sums and total are finite and positive.  A beta array
    whose length is not the number of rows is a ValueError.
    """
    Z, y = check_labeled_logits(Z, y)
    if isinstance(p.beta, np.ndarray) and p.beta.shape != y.shape:
        raise ValueError(f"beta must be one real or hold one entry per logit row, "
                         f"got {p.beta.size} entries for {y.size} rows")
    rows = np.arange(Z.shape[0])
    W = (Z - class_max(Z)[:, None]) / p.tau
    E = np.exp(W)
    sums = E.sum(axis=1)
    ec = E[rows, y]
    total = sums - ec + p.beta * ec
    return rows, y, W, E, sums, ec, total


def beta_ce_batch(Z, y, p: LossParams) -> BatchEval:
    """Loss, gradient grad[i] = (p_i - [i == c]) / (tau (1 + (beta-1) p_c)) and p = softmax(z/tau) per row.

    Z is (n, m), y an integer label vector of length n with entries in
    [0, m).  p_c is clamped to [1e-12, 1 - 1e-12] in the denominator only,
    which keeps the exact zero sum of a saturated gradient.  Each row of a
    C-ordered Z is bitwise the one-row call on it with that row's beta: a
    per-row beta (p.beta an (n,) array) enters only elementwise, so row i
    gets the bits of the scalar call with beta[i].  Batch reduction is left
    to the caller.
    """
    rows, y, W, E, sums, ec, total = _batch_exps(Z, y, p)
    losses = np.log(total) - W[rows, y]

    probs = E / sums[:, None]
    pc_raw = probs[rows, y]
    pc = np.minimum(np.maximum(pc_raw, P_CLAMP), 1.0 - P_CLAMP)
    denom = p.tau * (1.0 + (p.beta - 1.0) * pc)
    grads = probs / denom[:, None]
    grads[rows, y] = -(1.0 - pc_raw) / denom
    return BatchEval(losses=losses, grads=grads, probs=probs, p_true=pc)


def batch_losses(Z, y, p: LossParams) -> np.ndarray:
    """The losses column of beta_ce_batch(Z, y, p), bitwise, without probs or gradients.
    Rows are independent as in beta_ce_batch, each with its own beta when
    p.beta is an array, so verify can stack every perturbed row of a group of
    samples, or a group's rows once per beta, into one call.  Validates
    exactly as beta_ce_batch does.
    """
    rows, y, W, _, _, _, total = _batch_exps(Z, y, p)
    return np.log(total) - W[rows, y]


def batch_p_true(Z, y, p: LossParams) -> np.ndarray:
    """The p_true column of beta_ce_batch(Z, y, p), bitwise, without losses or gradients.

    Depends on p only through tau.  Validates exactly as beta_ce_batch does,
    so a logit matrix, or a beta array, that beta_ce_batch rejects is
    rejected here too.
    """
    _, _, _, _, sums, ec, _ = _batch_exps(Z, y, p)
    return np.minimum(np.maximum(ec / sums, P_CLAMP), 1.0 - P_CLAMP)


def _check_prob_open(p_c):
    p = np.asarray(p_c, dtype=np.float64)
    # NaN propagates through both reductions and fails both comparisons; an empty p passes
    if p.size and not (np.minimum.reduce(p, axis=None) > 0.0 and np.maximum.reduce(p, axis=None) < 1.0):
        raise ValueError("p_c must lie strictly inside (0, 1)")
    return p


def gradient_magnitude(p_c, beta):
    """G = -dJ/dz_c = (1 - p_c) / (1 + (beta-1) p_c), at tau=1.

    Strictly decreasing in p_c with G in (0, 1); the total gradient mass a
    sample receives at confidence p_c.
    """
    check_positive_real("beta", beta)
    p = _check_prob_open(p_c)
    return (1.0 - p) / (1.0 + (beta - 1.0) * p)


def magnitude_derivatives(p_c, beta):
    """First and second derivatives of G with respect to p_c.

    dG = -beta / (1 + (beta-1) p_c)^2           (negative everywhere)
    d2G = 2 beta (beta-1) / (1 + (beta-1) p_c)^3 (sign of beta-1)
    """
    check_positive_real("beta", beta)
    p = _check_prob_open(p_c)
    d = 1.0 + (beta - 1.0) * p
    d2 = d * d  # not d**2 or d**3: a scalar then has the bits of the array element, as in _d2j
    return -beta / d2, 2.0 * beta * (beta - 1.0) / (d2 * d)


def _d2j(p, beta):
    # (d2J, d): d2J = beta p (1-p) / d^2 with d = 1 + (beta-1) p, unchecked;
    # finite on the closed interval [0, 1].  The square is d * d, not d**2: a
    # numpy scalar takes d**2 through C pow, which misses the exact square in
    # the last bit for ~1 input in 1000, so a scalar p gets the same bits as an
    # array element.  The in-place ops act only on d and num, allocated here,
    # never on the caller's p: 4 block-sized allocations per array call.
    d = (beta - 1.0) * p
    d += 1.0
    num = beta * p
    num *= 1.0 - p
    num /= d * d
    return num, d


def curvature(p_c, beta):
    """d2J = beta p (1-p) / (1 + (beta-1) p)^2, the curvature of J in z_c at tau=1.

    Bitwise the first element of logit_curvature(p_c, beta), without
    computing d3J.  Positive on (0, 1), with its peak 1/4 at p = 1/(1+beta).
    """
    check_positive_real("beta", beta)
    return _d2j(_check_prob_open(p_c), beta)[0]


def logit_curvature(p_c, beta):
    """Second and third derivatives of J with respect to z_c, at tau=1.

    d2J = curvature(p_c, beta)
    d3J = d2J / (1 + (beta-1) p) * (1 - (1+beta) p)
    d3J changes sign at p = 1/(1+beta), where d2J peaks at exactly 1/4.
    """
    check_positive_real("beta", beta)
    p = _check_prob_open(p_c)
    d2j, d = _d2j(p, beta)
    return d2j, d2j / d * (1.0 - (1.0 + beta) * p)


def inflection_point(beta) -> float:
    """p_c = 1/(1+beta): the confidence at which d2J attains its maximum 1/4."""
    check_positive_real("beta", beta)
    return 1.0 / (1.0 + beta)


def local_lipschitz_bound(beta, p_lo: float, p_hi: float) -> float:
    """max of d2J over [p_lo, p_hi]; a local Lipschitz constant for dJ/dz_c.

    d2J is unimodal with peak 1/4 at p = 1/(1+beta), so the bound is 1/4 when
    that point lies in the interval and the larger endpoint value otherwise.
    On [0, 0.5] this reduces to beta/(beta+1)^2 for beta < 1 and 1/4 for
    beta >= 1.
    """
    check_positive_real("beta", beta)
    if not (0.0 <= p_lo < p_hi <= 1.0):
        raise ValueError(f"need 0 <= p_lo < p_hi <= 1, got [{p_lo!r}, {p_hi!r}]")
    if p_lo <= inflection_point(beta) <= p_hi:
        return 0.25
    return max(_d2j(p_lo, beta)[0], _d2j(p_hi, beta)[0])


def suggested_learning_rate(beta, p_lo: float, p_hi: float) -> float:
    """eta* = 1/L for the local bound above.

    Any step size below twice this value satisfies the descent condition
    L eta^2 / 2 - eta < 0 on the interval.
    """
    return 1.0 / local_lipschitz_bound(beta, p_lo, p_hi)
