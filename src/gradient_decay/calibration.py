"""Calibration analytics: reliability bins, ECE/MCE, confidence tables,
and post-hoc temperature scaling.

Bins are half-open (lo, hi] on equal widths.  Every table bins by one rule,
np.searchsorted(edges, x, side="left") on its own upper edges below 1, so a
value lands in the bin whose reported (lo, hi] holds it; 0 goes to the first
bin.  MCE maximizes |accuracy - mean confidence| over non-empty bins only
(the gap is undefined on empty ones).

Every softmax here divides by tau, then shifts (_shifted_exp); loss's kernels
shift, then divide, a last-bit difference at tau != 1 unless tau is a power of
two.  This order stays, as bench's calib_fit digests and the golden
calib --fit-temperature run (tests/golden.json) pin it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gradient_decay.loss import (
    check_labeled_logits,
    check_int,
    check_labels,
    check_positive_real,
    class_max,
)

__all__ = [
    "PredictionSet",
    "ReliabilityBin",
    "CalibrationReport",
    "bin_reliability",
    "confidence_table",
    "fit_temperature",
    "calibration_report",
    "THRESHOLDS",
]

# upper edges of the confidence intervals below 1: (<=0.2], (0.2,0.4], ..., (0.8,1];
# bitwise the 5-bin edges (b + 1) / 5
THRESHOLDS = (0.2, 0.4, 0.6, 0.8)


def _shifted_exp(z: np.ndarray, tau: float, zmax, out: np.ndarray | None = None):
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


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Per-sample probability rows with labels, confidences and argmaxes."""

    probs: np.ndarray   # (n, m), rows sum to 1 within 1e-9
    labels: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise ValueError("probs must be a non-empty (n, m) matrix with m >= 2")
        object.__setattr__(self, "labels", check_labels(self.labels, *p.shape, rows="probability"))
        # written so that a NaN row sum, which compares false, fails too
        if not np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("probability rows must be finite and sum to 1 within 1e-9")

    @classmethod
    def from_logits(cls, logits, labels, tau: float = 1.0) -> "PredictionSet":
        check_positive_real("tau", tau)
        z, y = check_labeled_logits(logits, labels)
        with np.errstate(over="ignore"):  # an exponent that overflows is -inf, a 0 probability
            e, _ = _shifted_exp(z, tau, class_max(z)[:, None])
        e /= e.sum(axis=1, keepdims=True)
        return cls(e, y)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def confidences(self) -> np.ndarray:
        # reduced once per set: a cached_property writes the instance __dict__, which frozen allows
        return class_max(self.probs)

    @property
    def predicted(self) -> np.ndarray:
        # argmax resolves ties toward the lowest index
        return self.probs.argmax(axis=1)

    @property
    def p_true(self) -> np.ndarray:
        return self.probs[np.arange(self.n), self.labels]


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    count: int
    mean_conf: float  # nan when empty
    accuracy: float   # nan when empty


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[ReliabilityBin, ...]
    ece: float
    mce: float
    mean_conf: float  # mean confidence over all samples
    interval_counts: tuple[int, ...]  # one count per THRESHOLDS interval, as confidence_table


def bin_reliability(pred: PredictionSet, bins: int = 10) -> list[ReliabilityBin]:
    """Equal-width reliability bins on (0, 1]; bin b holds the confidences in its (lo, hi]."""
    check_int("bins", bins, 1)
    conf = pred.confidences
    correct = (pred.predicted == pred.labels).astype(np.float64)
    # the upper edges below 1, each bitwise its bin's hi
    idx = np.searchsorted([(b + 1) / bins for b in range(bins - 1)], conf, side="left")
    # one stable sort (a radix sort for keys of up to 16 bits) groups the bins and keeps each
    # bin's values in their original order, so each mean has the bits of the bin's masked mean
    order = np.argsort(idx.astype(np.min_scalar_type(bins - 1)), kind="stable")
    conf, correct = conf[order], correct[order]
    ends = np.bincount(idx, minlength=bins).cumsum().tolist()
    out = []
    for b, (lo, hi) in enumerate(zip([0] + ends, ends)):
        means = (float(conf[lo:hi].mean()), float(correct[lo:hi].mean())) if hi > lo else (math.nan, math.nan)
        out.append(ReliabilityBin(b / bins, (b + 1) / bins, hi - lo, *means))
    return out


def _ece_mce(bins: list[ReliabilityBin], n: int) -> tuple[float, float]:
    """(ECE, MCE) of reliability bins over n samples.

    ECE is the count-weighted mean of |accuracy - confidence| over the bins,
    MCE its largest value over the non-empty bins.
    """
    gaps = [(b.count, abs(b.accuracy - b.mean_conf)) for b in bins if b.count]
    e = sum((count / n) * gap for count, gap in gaps)
    return float(e), float(max(gap for _, gap in gaps))


def confidence_table(p_true) -> np.ndarray:
    """Counts of values per right-closed interval of THRESHOLDS: (<=0.2], (0.2,0.4], ..., (0.8,1]."""
    p = np.asarray(p_true, dtype=np.float64)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError("values must lie in [0, 1]")
    return np.bincount(np.searchsorted(THRESHOLDS, p, side="left"), minlength=len(THRESHOLDS) + 1)


# Rows per block of a temperature-fit pass: m x 8192 float64 stays in L2 for m near 10.
_BLOCK_ROWS = 8192

# fit_temperature's search bracket [_TAU_LO, _TAU_HI] and its golden-section steps
_TAU_LO, _TAU_HI, _TAU_ITERS = 0.05, 10.0, 200


def _column_sums(e: np.ndarray) -> np.ndarray:
    """Column sums of e (m, b), added in place into e[0], which is returned.

    The class rows are added in numpy's pairwise order for one contiguous row
    of m values: sequentially below 8, into eight accumulators up to 128, and
    by halving above 128.  Column j then has the bits of e[:, j] summed as
    one contiguous row, as (b, m).sum(axis=1) sums it; only a column of
    -0.0 differs (numpy starts each row from +0.0).
    """
    m = e.shape[0]
    if m < 8:
        for i in range(1, m):
            e[0] += e[i]
    elif m <= 128:
        tail = m - m % 8
        for i in range(8, tail, 8):
            e[:8] += e[i:i + 8]
        e[0:8:2] += e[1:8:2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
        for i in range(tail, m):
            e[0] += e[i]
    else:
        half = m // 2
        half -= half % 8
        _column_sums(e[:half])
        _column_sums(e[half:])
        e[0] += e[half]
    return e[0]


class _NllWorkspace:
    """Mean cross-entropy of softmax(z/tau) as a function of tau, for one fit.

    Validates the logits and labels, then keeps a class-major copy zt (m, n)
    of the logits, the row maxima, the true-class logits, one (m, 8192)
    block buffer and an (n,) buffer.  A pass exponentiates 8192 rows at a
    time on contiguous class rows and sums them with _column_sums, so each
    row's NLL is bitwise that of a row-major pass over the whole (n, m)
    matrix, as long as no rowmax/tau overflows (only possible for tau < 1
    and logits near the float64 limit).  Where one does, _shifted_exp takes
    the fallback exponents for that whole block, which a whole-matrix pass
    would take for every row, and the row's NLL is
    log(sum) + (rowmax - ztrue)/tau: possibly +inf, never NaN.
    The objective is a pure function of tau, so each distinct tau is
    computed once and remembered.
    """

    def __init__(self, logits, labels) -> None:
        z, self.labels = check_labeled_logits(logits, labels)
        self.zt = np.ascontiguousarray(z.T)
        self.rowmax = np.maximum.reduce(self.zt, axis=0)
        self.absmax = np.abs(self.rowmax).max(initial=0.0)
        self.ztrue = z[np.arange(z.shape[0]), self.labels]
        self.buf = np.empty((z.shape[1], min(_BLOCK_ROWS, z.shape[0])))
        self.lse = np.empty(z.shape[0])
        self.nll: dict[float, float] = {}

    def __call__(self, tau: float) -> float:
        if tau not in self.nll:
            self.nll[tau] = self._pass(tau)
        return self.nll[tau]

    def _pass(self, tau: float) -> float:
        # z/tau may overflow to -inf, whose exponential is 0; a NaN needs rowmax/tau to
        # overflow, and _overflowed_rows rewrites each row where it does
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, self.lse.size, _BLOCK_ROWS):
                rows = slice(lo, lo + _BLOCK_ROWS)
                zt = self.zt[:, rows]
                e, s = _shifted_exp(zt, tau, self.rowmax[rows], self.buf[:, :zt.shape[1]])
                lse = np.log(_column_sums(e), out=self.lse[rows])
                lse += s
                lse -= np.divide(self.ztrue[rows], tau, out=s)  # s is spent: its memory takes ztrue/tau
            if np.isinf(self.absmax / tau):
                self._overflowed_rows(tau)
            return float(self.lse.mean())

    def _overflowed_rows(self, tau: float) -> None:
        """Rewrite the NLL of each row whose rowmax/tau overflows as log(sum) + (rowmax - ztrue)/tau."""
        big = np.isinf(self.rowmax / tau)
        zmax = self.rowmax[big]
        e = np.exp((self.zt[:, big] - zmax) / tau)
        self.lse[big] = np.log(e.sum(axis=0)) + (zmax - self.ztrue[big]) / tau


def fit_temperature(logits, labels) -> float:
    """Temperature minimizing mean cross-entropy of softmax(z/tau).

    Golden-section search on log(tau) over [log _TAU_LO, log _TAU_HI], in
    _TAU_ITERS steps; the result is guaranteed no worse than tau=1 and never
    changes any predicted class (positive scaling preserves the argmax).
    Logits must be finite and labels integers in [0, m).
    """
    ws = _NllWorkspace(logits, labels)
    if ws.lse.size < 2:
        raise ValueError("need a logit matrix with at least two rows")
    if ws.labels.min() == ws.labels.max():  # a pass over the labels, not a sort
        raise ValueError("degenerate labels: need at least two classes present")

    nll = lambda log_tau: ws(math.exp(log_tau))
    a, b = math.log(_TAU_LO), math.log(_TAU_HI)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(_TAU_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(d)
    # exp/log round-tripping can land one ulp outside the search box
    tau_star = min(max(math.exp((a + b) / 2.0), _TAU_LO), _TAU_HI)
    if ws(tau_star) > ws(1.0):
        return 1.0
    return tau_star


def calibration_report(pred: PredictionSet, bins: int = 10) -> CalibrationReport:
    """Bins, ECE, MCE, mean confidence and true-class confidence interval counts in one shot."""
    rel = bin_reliability(pred, bins)
    e, m = _ece_mce(rel, pred.n)
    counts = confidence_table(pred.p_true)
    return CalibrationReport(tuple(rel), e, m, float(pred.confidences.mean()), tuple(int(c) for c in counts))
