"""Softmax cross-entropy with a gradient decay factor beta.

The loss for one sample with logits z and true class c is

    J = -log( exp(z_c/tau) / (sum_{i != c} exp(z_i/tau) + beta * exp(z_c/tau)) )

beta multiplies the true-class exponential in the denominator; log(beta) acts
as a soft margin in decision space, and beta controls how fast the gradient
assigned to a sample decays as its true-class probability p_c rises.  beta=1
is the standard softmax cross-entropy.

Every kernel subtracts the maximum logit before exponentiating, so each
sample has one exponential equal to exp(0) = 1: for any finite logits the
denominator is finite and at least min(beta, 1), and nothing overflows.

Everything here is a pure function of its inputs (no shared state), in 64-bit
floating point.  The scalar curvature functions accept numpy arrays as well
and broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossParams",
    "LabeledLogits",
    "LossEval",
    "BatchEval",
    "softmax_probs",
    "beta_ce_loss",
    "beta_ce_eval",
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


@dataclass(frozen=True)
class LossParams:
    """Hyperparameters of the gradient-decay loss.

    beta > 0 is the gradient decay factor, tau > 0 the softmax temperature.
    Temperature is applied by pre-scaling logits with 1/tau, so gradients
    carry a 1/tau factor and logit curvature a 1/tau**2 factor relative to
    the tau=1 formulas.
    """

    beta: float
    tau: float = 1.0

    def __post_init__(self) -> None:
        check_positive_real("beta", self.beta)
        check_positive_real("tau", self.tau)


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


def check_logits(z, ndim: int) -> np.ndarray:
    """z as float64, checked to be finite: an (m,) vector for ndim 1, an (n, m) matrix for ndim 2; m >= 2."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != ndim or z.shape[-1] < 2:
        raise ValueError(f"logits must be an {'(m,) vector' if ndim == 1 else '(n, m) matrix'} with m >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError("all logits must be finite")
    return z


def check_labeled_logits(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """(z, y): z a finite float64 (n, m) matrix, m >= 2; y integer labels, one per row, in [0, m)."""
    z = check_logits(logits, 2)
    return z, check_labels(labels, *z.shape)


def shifted_exp(z: np.ndarray, tau: float, zmax, out: np.ndarray | None = None):
    """(exp(z/tau - s), s) with s = zmax/tau, writing the exponentials into out if given.

    zmax is the maximum of z along its last axis, shaped to broadcast against
    z.  Division by tau > 0 is monotone, so s is bitwise the maximum of z/tau.
    If s overflows anywhere, which takes tau < 1, inf - inf would give NaN
    there, so all exponents are taken as (z - zmax)/tau instead: finite or -inf.
    """
    out = np.divide(z, tau, out)
    s = zmax / tau
    if tau < 1.0 and not np.isfinite(s).all():
        np.divide(np.subtract(z, zmax, out), tau, out)
    else:
        np.subtract(out, s, out)
    np.exp(out, out)
    return out, s


def stable_softmax(z: np.ndarray, tau: float) -> np.ndarray:
    """softmax(z/tau) of a checked logit vector, or of each row of a checked logit matrix."""
    rows = z.ndim > 1
    e, _ = shifted_exp(z, tau, z.max(axis=-1, keepdims=rows))
    e /= e.sum(axis=-1, keepdims=rows)
    return e


@dataclass(frozen=True)
class LabeledLogits:
    """Class scores z for one sample plus the index c of its true class."""

    z: np.ndarray
    c: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", check_logits(self.z, 1))
        check_int("class index", self.c, 0)
        if self.c >= self.z.size:
            raise ValueError(f"class index {self.c} outside [0, {self.z.size})")
        object.__setattr__(self, "c", int(self.c))


@dataclass(frozen=True)
class LossEval:
    """Loss value, per-logit gradient, probabilities and p_c for one sample.

    Guarantees (in float64, for any finite logits, beta in a sane range):
    probs sums to 1 within 1e-12, grad[c] <= 0 with grad[i] >= 0 elsewhere,
    the gradient sums to 0 within 1e-12, and |grad[c]| equals the sum of the
    other entries.  p_true has been clamped to [1e-12, 1 - 1e-12].
    """

    loss: float
    grad: np.ndarray
    probs: np.ndarray
    p_true: float


@dataclass(frozen=True)
class BatchEval:
    """Row-wise loss/gradient/probability evaluation of a logit matrix."""

    losses: np.ndarray  # (n,)
    grads: np.ndarray   # (n, m), per-sample gradients (no batch reduction)
    probs: np.ndarray   # (n, m)
    p_true: np.ndarray  # (n,), clamped


def softmax_probs(z, tau: float = 1.0) -> np.ndarray:
    """Probability vector exp(z_i/tau - s) / sum_j exp(z_j/tau - s), s = max."""
    z = check_logits(z, 1)
    check_positive_real("tau", tau)
    return stable_softmax(z, tau)


def beta_ce_loss(x: LabeledLogits, p: LossParams) -> float:
    """Loss J = log(sum_{i != c} e^{(z_i-u)/tau} + beta e^{(z_c-u)/tau}) - (z_c-u)/tau, u = max(z).

    The one-row view of batch_losses.  At beta=1 this is the standard
    softmax cross-entropy.
    """
    return float(batch_losses(x.z[None], np.array([x.c]), p)[0])


def beta_ce_eval(x: LabeledLogits, p: LossParams) -> LossEval:
    """Loss together with its analytic gradient: the one-row view of beta_ce_batch."""
    be = beta_ce_batch(x.z[None], np.array([x.c]), p)
    return LossEval(loss=float(be.losses[0]), grad=be.grads[0], probs=be.probs[0], p_true=float(be.p_true[0]))


def _batch_exps(Z, y, p: LossParams):
    """Validated shift, exponentials and denominators shared by the batch kernels.

    Returns (rows, y, W, E, sums, ec, total) with y the checked labels, W
    the tau-scaled logits less their row maximum, E = exp(W), ec the
    true-class entries of E and total the loss denominator sums - ec +
    beta*ec.  Every row of E holds a 1, so sums and total are finite and
    positive.
    """
    Z, y = check_labeled_logits(Z, y)
    rows = np.arange(Z.shape[0])
    W = (Z - Z.max(axis=1, keepdims=True)) / p.tau
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
    C-ordered Z is bitwise the one-row call on it.  The exponent is shifted
    then divided, (z - max z)/tau; softmax_probs divides first, which moves
    the last bit at tau != 1.  Batch reduction is left to the caller.
    """
    rows, y, W, E, sums, ec, total = _batch_exps(Z, y, p)
    losses = np.log(total) - W[rows, y]

    probs = E / sums[:, None]
    pc_raw = probs[rows, y]
    pc = np.clip(pc_raw, P_CLAMP, 1.0 - P_CLAMP)
    denom = p.tau * (1.0 + (p.beta - 1.0) * pc)
    grads = probs / denom[:, None]
    grads[rows, y] = -(1.0 - pc_raw) / denom
    return BatchEval(losses=losses, grads=grads, probs=probs, p_true=pc)


def batch_losses(Z, y, p: LossParams) -> np.ndarray:
    """The losses column of beta_ce_batch(Z, y, p), bitwise, without probs or gradients.

    Rows are independent as in beta_ce_batch, so verify's finite
    differences can stack every perturbed row of a group of samples into one
    call.  Validates exactly as beta_ce_batch does.
    """
    rows, y, W, _, _, _, total = _batch_exps(Z, y, p)
    return np.log(total) - W[rows, y]


def batch_p_true(Z, y, p: LossParams) -> np.ndarray:
    """The p_true column of beta_ce_batch(Z, y, p), bitwise, without losses or gradients.

    Depends on p only through tau.  Validates exactly as beta_ce_batch does,
    so a logit matrix that beta_ce_batch rejects is rejected here too.
    """
    _, _, _, _, sums, ec, _ = _batch_exps(Z, y, p)
    return np.clip(ec / sums, P_CLAMP, 1.0 - P_CLAMP)


def _check_prob_open(p_c):
    p = np.asarray(p_c, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
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
    return -beta / d**2, 2.0 * beta * (beta - 1.0) / d**3


def _d2j(p, beta):
    # (d2J, d): d2J = beta p (1-p) / d^2 with d = 1 + (beta-1) p, unchecked;
    # finite on the closed interval [0, 1]
    d = 1.0 + (beta - 1.0) * p
    return beta * p * (1.0 - p) / d**2, d


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
