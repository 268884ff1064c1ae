"""Calibration analytics: reliability bins, ECE/MCE, confidence tables,
and post-hoc temperature scaling.

Bins are half-open (lo, hi] on equal widths; a confidence x lands in bin
ceil(x*bins), with x=0 mapped into bin 1.  MCE maximizes |accuracy - mean
confidence| over non-empty bins only (the gap is undefined on empty ones).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from gradient_decay.loss import (
    check_labeled_logits,
    check_int,
    check_labels,
    check_positive_real,
    shifted_exp,
    stable_softmax,
)

__all__ = [
    "PredictionSet",
    "ReliabilityBin",
    "CalibrationReport",
    "bin_reliability",
    "ece",
    "mce",
    "confidence_table",
    "fit_temperature",
    "calibration_report",
    "write_reliability_csv",
]

DEFAULT_THRESHOLDS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
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
        return cls(stable_softmax(z, tau), y)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def confidences(self) -> np.ndarray:
        return self.probs.max(axis=1)

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
    interval_counts: tuple[int, ...]  # (<=t1], (t1,t2], ..., (tk, 1]


def _bin_index(confidences: np.ndarray, bins: int) -> np.ndarray:
    idx = np.ceil(confidences * bins).astype(np.int64)
    idx[idx < 1] = 1       # confidence 0 belongs to the first bin
    idx[idx > bins] = bins
    return idx - 1


def bin_reliability(pred: PredictionSet, bins: int = 10) -> list[ReliabilityBin]:
    """Equal-width reliability bins on (0, 1]."""
    check_int("bins", bins, 1)
    conf = pred.confidences
    correct = (pred.predicted == pred.labels).astype(np.float64)
    idx = _bin_index(conf, bins)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            out.append(
                ReliabilityBin(b / bins, (b + 1) / bins, count,
                               float(conf[mask].mean()), float(correct[mask].mean()))
            )
        else:
            out.append(ReliabilityBin(b / bins, (b + 1) / bins, 0, float("nan"), float("nan")))
    return out


def _ece_mce(bins: list[ReliabilityBin], n: int) -> tuple[float, float]:
    """(ECE, MCE) of reliability bins over n samples.

    ECE is the count-weighted mean of |accuracy - confidence| over the bins,
    MCE its largest value over the non-empty bins.
    """
    gaps = [(b.count, abs(b.accuracy - b.mean_conf)) for b in bins if b.count]
    e = sum((count / n) * gap for count, gap in gaps)
    return float(e), float(max(gap for _, gap in gaps))


def ece(pred: PredictionSet, bins: int = 10) -> float:
    """Count-weighted mean of |accuracy - confidence| over the bins."""
    return _ece_mce(bin_reliability(pred, bins), pred.n)[0]


def mce(pred: PredictionSet, bins: int = 10) -> float:
    """Largest |accuracy - confidence| over the non-empty bins."""
    return _ece_mce(bin_reliability(pred, bins), pred.n)[1]


def confidence_table(p_true, thresholds=DEFAULT_THRESHOLDS) -> np.ndarray:
    """Counts of values per right-closed interval (<=t1], (t1,t2], ..., (tk,1]."""
    p = np.asarray(p_true, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("values must lie in [0, 1]")
    th = np.asarray(thresholds, dtype=np.float64)
    if np.any(np.diff(th) <= 0) or th.size == 0 or th[0] <= 0.0 or th[-1] >= 1.0:
        raise ValueError("thresholds must be strictly increasing inside (0, 1)")
    idx = np.searchsorted(th, p, side="left")
    return np.bincount(idx, minlength=th.size + 1)


class _NllWorkspace:
    """Mean cross-entropy of softmax(z/tau) as a function of tau, for one fit.

    Validates the logits and labels, then keeps the row maxima, the
    true-class logits and an (n, m) and an (n,) buffer that every pass
    writes into.  The objective is a pure function of tau, so each distinct
    tau is computed once and remembered.
    """

    def __init__(self, logits, labels) -> None:
        self.z, self.labels = z, y = check_labeled_logits(logits, labels)
        self.rowmax = z.max(axis=1, keepdims=True)
        self.ztrue = z[np.arange(z.shape[0]), y]
        self.buf = np.empty_like(z)
        self.lse = np.empty(z.shape[0])
        self.nll: dict[float, float] = {}

    def __call__(self, tau: float) -> float:
        if tau not in self.nll:
            self.nll[tau] = self._pass(tau)
        return self.nll[tau]

    def _pass(self, tau: float) -> float:
        _, s = shifted_exp(self.z, tau, self.rowmax, self.buf)
        lse = np.log(self.buf.sum(axis=1, out=self.lse), out=self.lse)
        lse += s[:, 0]
        lse -= np.divide(self.ztrue, tau, out=s[:, 0])  # s is spent: its memory takes ztrue/tau
        return float(lse.mean())


def _mean_nll(logits, labels, tau: float) -> float:
    """Mean cross-entropy of softmax(logits/tau) against labels."""
    return _NllWorkspace(logits, labels)(tau)


def fit_temperature(logits, labels, lo: float = 0.05, hi: float = 10.0, iters: int = 200) -> float:
    """Temperature minimizing mean cross-entropy of softmax(z/tau).

    Golden-section search on log(tau) over [log lo, log hi]; the result is
    guaranteed no worse than tau=1 and never changes any predicted class
    (positive scaling preserves the argmax).  Logits must be finite and
    labels integers in [0, m).
    """
    ws = _NllWorkspace(logits, labels)
    if ws.z.shape[0] < 2:
        raise ValueError("need a logit matrix with at least two rows")
    if np.unique(ws.labels).size < 2:
        raise ValueError("degenerate labels: need at least two classes present")

    nll = lambda log_tau: ws(math.exp(log_tau))
    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(d)
    # exp/log round-tripping can land one ulp outside the search box
    tau_star = min(max(math.exp((a + b) / 2.0), lo), hi)
    if ws(tau_star) > ws(1.0):
        return 1.0
    return tau_star


def calibration_report(pred: PredictionSet, bins: int = 10,
                       thresholds=DEFAULT_THRESHOLDS) -> CalibrationReport:
    """Bins, ECE, MCE and true-class confidence interval counts in one shot."""
    rel = bin_reliability(pred, bins)
    e, m = _ece_mce(rel, pred.n)
    counts = confidence_table(pred.p_true, thresholds)
    return CalibrationReport(tuple(rel), e, m, tuple(int(c) for c in counts))


def write_reliability_csv(path, bins: list[ReliabilityBin]) -> None:
    """bin_lo, bin_hi, count, mean_conf, accuracy per row."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"])
        for b in bins:
            w.writerow([repr(b.lo), repr(b.hi), b.count, repr(b.mean_conf), repr(b.accuracy)])
