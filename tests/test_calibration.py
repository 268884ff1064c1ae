"""Calibration metric and temperature scaling tests."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradient_decay.calibration import (
    _BLOCK_ROWS,
    PredictionSet,
    _column_sums,
    _NllWorkspace,
    bin_reliability,
    calibration_report,
    confidence_table,
    fit_temperature,
)
from gradient_decay.cli import _write_reliability
from gradient_decay.loss import softmax_probs


def _single_conf_rows(confidences, correct, m=20):
    """Rows whose max probability is exactly the requested confidence."""
    rows, labels = [], []
    for conf, ok in zip(confidences, correct):
        row = np.full(m, (1.0 - conf) / (m - 1))
        row[0] = conf
        rows.append(row)
        labels.append(0 if ok else 1)
    return PredictionSet(np.asarray(rows), np.asarray(labels))


# The allocating objective, golden-section search and softmax that the
# one-buffer workspace replaced, kept verbatim: the workspace must match
# them bitwise.
def _reference_mean_nll(logits: np.ndarray, labels: np.ndarray, tau: float) -> float:
    z = logits / tau
    s = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - s).sum(axis=1)) + s[:, 0]
    return float((lse - z[np.arange(z.shape[0]), labels]).mean())


def _reference_fit_temperature(logits, labels, lo: float = 0.05, hi: float = 10.0, iters: int = 200) -> float:
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need a logit matrix with at least two rows")
    if y.shape != (z.shape[0],):
        raise ValueError("labels must have one entry per logit row")
    if np.unique(y).size < 2:
        raise ValueError("degenerate labels: need at least two classes present")

    nll = lambda log_tau: _reference_mean_nll(z, y, math.exp(log_tau))
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
    if _reference_mean_nll(z, y, tau_star) > _reference_mean_nll(z, y, 1.0):
        return 1.0
    return tau_star


def _reference_probs(logits, tau: float = 1.0) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _sampled_labels(logits, rng):
    """One label per row drawn from softmax(logits): calibrated at tau = 1."""
    probs = _reference_probs(logits)
    drawn = (rng.uniform(size=(probs.shape[0], 1)) > probs.cumsum(axis=1)).sum(axis=1)
    return np.minimum(drawn, probs.shape[1] - 1)  # a row's cumsum can end just below 1


def _fit_cases():
    """(name, logits, labels) over shapes, scales, layouts and degenerate rows."""
    rng = np.random.default_rng(11)
    cases = []
    for n, m in ((2, 2), (37, 3), (500, 10), (2000, 7), (300, 50)):
        for scale in (0.01, 1.0, 8.0, 300.0):
            z = rng.normal(0.0, scale, (n, m))
            y = _sampled_labels(z, rng) if scale <= 8.0 else rng.integers(0, m, n)
            y[:2] = (0, 1)  # at least two classes present
            cases.append((f"{n}x{m}@{scale}", z, y))
    z = rng.normal(0.0, 3.0, (400, 6))
    y = _sampled_labels(z, rng)
    cases.append(("fortran_order", np.asfortranarray(z), y))
    cases.append(("column_view", np.hstack([z, z])[:, 3:9], y))
    cases.append(("repeated_row", np.tile(np.array([1.0, 0.5, -0.2]), (20, 1)), np.array([0, 1] * 10)))
    cases.append(("constant_rows", np.ones((20, 3)), np.array([0, 1, 2, 1] * 5)))
    # three row blocks of a pass, the last one ragged; and more than 128 classes
    for name, (n, m) in (("multi_block", (2 * _BLOCK_ROWS + 5, 10)), ("wide", (300, 200))):
        z = rng.normal(0.0, 2.0, (n, m))
        cases.append((name, z, _sampled_labels(z, rng)))
    return cases


@st.composite
def prediction_sets(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(2, 8))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    probs = np.asarray(raw)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return PredictionSet(probs, np.asarray(labels))


class TestPredictionSet:
    @pytest.mark.parametrize("tau", [1.0, 0.3, 2.392596809686705])
    def test_from_logits_matches_the_allocating_softmax_bitwise(self, tau):
        for name, z, y in _fit_cases():
            assert np.array_equal(PredictionSet.from_logits(z, y, tau=tau).probs,
                                  _reference_probs(z, tau)), name

    def test_from_logits_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        pred = PredictionSet.from_logits(rng.uniform(-4, 4, (30, 6)), rng.integers(0, 6, 30))
        assert np.abs(pred.probs.sum(axis=1) - 1.0).max() < 1e-12
        assert pred.confidences.shape == (30,)

    def test_argmax_ties_take_lowest_index(self):
        pred = PredictionSet(np.array([[0.4, 0.4, 0.2]]), np.array([1]))
        assert pred.predicted[0] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.9, 0.2]]), np.array([0]))  # does not sum to 1
        with pytest.raises(ValueError):
            PredictionSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        # a NaN row sum used to slip past the row-sum check
        with pytest.raises(ValueError, match="finite"):
            PredictionSet(np.array([[bad, bad], [0.5, 0.5]]), np.array([0, 1]))

    @pytest.mark.parametrize("tau", [-1.0, 0.0, -0.0, np.inf, np.nan, "1", None])
    def test_from_logits_rejects_a_bad_temperature(self, tau):
        # tau=-1 used to return the softmax of -z, tau=inf uniform rows
        with pytest.raises(ValueError, match="tau must be a positive finite real"):
            PredictionSet.from_logits(np.array([[0.0, 3.0]]), np.array([1]), tau=tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_logits_rejects_non_finite_logits(self, bad):
        with pytest.raises(ValueError, match="all logits must be finite"):
            PredictionSet.from_logits(np.array([[0.0, bad], [1.0, 0.0]]), np.array([0, 1]))

    @pytest.mark.parametrize("make", [
        lambda labels: PredictionSet(np.array([[0.2, 0.8], [0.6, 0.4]]), labels),
        lambda labels: PredictionSet.from_logits(np.array([[0.0, 1.0], [1.0, 0.0]]), labels),
    ], ids=["probs", "from_logits"])
    def test_float_labels_rejected(self, make):
        # 1.7 used to be truncated to class 1
        with pytest.raises(ValueError, match="labels must have an integer dtype"):
            make(np.array([1.7, 0.0]))

    @pytest.mark.parametrize("logits, labels, message", [
        ([0.0, 1.0], [0], "logits must be an"),
        ([[0.0, 1.0], [1.0, 0.0]], [0, 1, 1], "one entry per logit row"),
        ([[0.0, 1.0], [1.0, 0.0]], [0, 2], r"labels must lie in \[0, 2\)"),
    ])
    def test_from_logits_runs_the_logit_matrix_check(self, logits, labels, message):
        with pytest.raises(ValueError, match=message):
            PredictionSet.from_logits(np.asarray(logits), np.asarray(labels))


def _old_softmax(z, tau):
    """The scalar-path softmax that loss.py used before the shared kernel, verbatim."""
    y = z / tau
    e = np.exp(y - y.max())
    return e / e.sum()


class TestOneSoftmax:
    """softmax_probs and PredictionSet.from_logits share one softmax, which divides by tau, then shifts.

    The loss kernels shift, then divide (see beta_ce_batch); the two orders
    differ in the last bit at tau != 1.
    """

    @pytest.mark.parametrize("tau", [1.0, 0.3, 2.392596809686705, 0.05, 40.0])
    def test_every_softmax_gives_the_same_bits(self, tau):
        rng = np.random.default_rng(17)
        for m in (2, 3, 10, 50):
            for scale in (0.01, 1.0, 30.0):
                z = rng.normal(0.0, scale, m)
                c = int(rng.integers(m))
                probs = softmax_probs(z, tau)
                assert np.array_equal(probs, _old_softmax(z, tau))
                assert np.array_equal(PredictionSet.from_logits(z[None], [c], tau=tau).probs[0], probs)


class TestBinReliability:
    def test_single_bin_all_correct(self):
        pred = _single_conf_rows([0.95] * 8, [True] * 8)
        bins = bin_reliability(pred, 10)
        nonempty = [b for b in bins if b.count]
        assert len(nonempty) == 1
        assert nonempty[0].lo == 0.9 and nonempty[0].hi == 1.0
        assert nonempty[0].accuracy == 1.0

    def test_one_sample_per_bin(self):
        confs = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
        pred = _single_conf_rows(confs, [True] * 10)
        bins = bin_reliability(pred, 10)
        assert [b.count for b in bins] == [1] * 10

    def test_boundary_rule_exact(self):
        # confidence 0.8 belongs to (0.7, 0.8]; one epsilon above moves it up
        pred = _single_conf_rows([0.8, 0.8 + 1e-12], [True, True], m=2)
        bins = bin_reliability(pred, 10)
        assert bins[7].count == 1
        assert bins[8].count == 1

    def test_zero_confidence_goes_to_first_bin(self):
        # confidence cannot be 0 for real softmax rows; exercise the rule directly
        from gradient_decay.calibration import _bin_index

        assert _bin_index(np.array([0.0]), 10)[0] == 0

    def test_mixed_hand_case(self):
        # two samples at confidence 0.9, one correct: bin gap |0.5 - 0.9|
        pred = _single_conf_rows([0.9, 0.9], [True, False], m=2)
        report = calibration_report(pred, 10)
        assert report.ece == pytest.approx(0.4, abs=1e-12)
        assert report.mce == pytest.approx(0.4, abs=1e-12)

    def test_empty_bins_marked_nan(self):
        pred = _single_conf_rows([0.95], [True])
        bins = bin_reliability(pred, 10)
        assert np.isnan(bins[0].mean_conf) and np.isnan(bins[0].accuracy)
        assert bins[0].count == 0

    def test_bins_validation(self):
        pred = _single_conf_rows([0.9], [True])
        with pytest.raises(ValueError):
            bin_reliability(pred, 0)


class TestEceMce:
    def test_perfectly_calibrated_set(self):
        # bin (0.7, 0.8]: ten samples at confidence 0.8, eight correct
        pred = _single_conf_rows([0.8] * 10, [True] * 8 + [False] * 2, m=2)
        report = calibration_report(pred, 10)
        assert report.ece == pytest.approx(0.0, abs=1e-12)
        assert report.mce == pytest.approx(0.0, abs=1e-12)

    def test_uniform_overconfidence(self):
        pred = _single_conf_rows([0.9] * 10, [True] * 8 + [False] * 2, m=2)
        report = calibration_report(pred, 10)
        assert report.ece == pytest.approx(0.1, abs=1e-9)
        assert report.mce == pytest.approx(0.1, abs=1e-9)

    @given(prediction_sets())
    @settings(max_examples=150)
    def test_mce_dominates_ece(self, pred):
        report = calibration_report(pred, 10)
        assert report.mce >= report.ece - 1e-15
        assert 0.0 <= report.ece <= 1.0
        assert 0.0 <= report.mce <= 1.0

    @given(prediction_sets(), st.integers(1, 20))
    @settings(max_examples=100)
    def test_report_fields_are_ece_and_mce(self, pred, bins):
        # ECE: count-weighted mean of |accuracy - confidence|; MCE: its largest value on a non-empty bin
        gaps = [(b.count, abs(b.accuracy - b.mean_conf)) for b in bin_reliability(pred, bins) if b.count]
        report = calibration_report(pred, bins=bins)
        assert report.ece == sum((count / pred.n) * gap for count, gap in gaps)
        assert report.mce == max(gap for _, gap in gaps)

    @given(prediction_sets(), st.randoms())
    @settings(max_examples=60)
    def test_permutation_invariance(self, pred, rnd):
        order = list(range(pred.n))
        rnd.shuffle(order)
        shuffled = PredictionSet(pred.probs[order], pred.labels[order])
        before, after = calibration_report(pred, 10), calibration_report(shuffled, 10)
        assert after.ece == pytest.approx(before.ece, abs=1e-12)
        assert after.mce == pytest.approx(before.mce, abs=1e-12)


class TestConfidenceTable:
    def test_all_ones(self):
        counts = confidence_table(np.ones(17))
        assert list(counts) == [0, 0, 0, 0, 17]

    def test_uniform_grid(self):
        grid = (np.arange(100) + 0.5) / 100.0
        assert list(confidence_table(grid)) == [20, 20, 20, 20, 20]

    def test_boundaries_are_right_closed(self):
        counts = confidence_table(np.array([0.2, 0.2 + 1e-12, 0.8, 0.8 + 1e-12]))
        assert list(counts) == [1, 1, 0, 1, 1]

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, 1000)
        assert confidence_table(vals).sum() == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_table(np.array([1.5]))


class TestFitTemperature:
    def _calibrated_logits(self, n=10_000, m=10, scale=2.0, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, scale, (n, m))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(m, p=p) for p in probs])
        return logits, labels

    def test_calibrated_logits_give_tau_near_one(self):
        logits, labels = self._calibrated_logits()
        assert fit_temperature(logits, labels) == pytest.approx(1.0, abs=0.05)

    def test_scaled_logits_recover_the_scale(self):
        logits, labels = self._calibrated_logits(seed=1)
        assert fit_temperature(2.0 * logits, labels) == pytest.approx(2.0, abs=0.1)

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 3, (500, 6))
        labels = rng.integers(0, 6, 500)
        tau = fit_temperature(logits, labels)
        nll = _NllWorkspace(logits, labels)
        assert nll(tau) <= nll(1.0) + 1e-12

    def test_repeated_row_returns_finite_tau_in_range(self):
        logits = np.tile(np.array([1.0, 0.5, -0.2]), (20, 1))
        labels = np.array([0, 1] * 10)
        tau = fit_temperature(logits, labels)
        assert np.isfinite(tau)
        assert 0.05 <= tau <= 10.0

    def test_degenerate_labels_rejected(self):
        logits = np.random.default_rng(0).normal(0, 1, (10, 3))
        with pytest.raises(ValueError):
            fit_temperature(logits, np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            fit_temperature(logits[:1], np.array([0]))

    @pytest.mark.parametrize("case", _fit_cases(), ids=lambda case: case[0])
    def test_matches_the_allocating_search_bitwise(self, case):
        _, z, y = case
        assert fit_temperature(z, y) == _reference_fit_temperature(z, y)
        for tau in (0.05, 1.0, 3.7):
            assert _NllWorkspace(z, y)(tau) == _reference_mean_nll(z, y, tau)

    def test_clamps_at_lo(self):
        # every label is its row's strict argmax: NLL falls all the way to tau -> 0
        rng = np.random.default_rng(2)
        z = rng.normal(0.0, 1.0, (300, 4))
        y = z.argmax(axis=1)
        tau = fit_temperature(z, y)
        assert tau == _reference_fit_temperature(z, y)
        assert tau == pytest.approx(0.05, rel=1e-12)

    def test_clamps_at_hi(self):
        # every label is its row's argmin: NLL falls all the way to tau -> inf
        rng = np.random.default_rng(3)
        z = rng.normal(0.0, 1.0, (300, 4))
        y = z.argmin(axis=1)
        tau = fit_temperature(z, y)
        assert tau == _reference_fit_temperature(z, y)
        assert tau == pytest.approx(10.0, rel=1e-12)

    def test_worse_than_identity_returns_one(self):
        # with no iterations the search returns the bracket's midpoint, which
        # is worse than tau = 1 on calibrated logits
        logits, labels = self._calibrated_logits(n=2000)
        midpoint = math.exp((math.log(0.05) + math.log(10.0)) / 2.0)
        nll = _NllWorkspace(logits, labels)
        assert nll(midpoint) > nll(1.0)
        assert fit_temperature(logits, labels, iters=0) == 1.0
        assert _reference_fit_temperature(logits, labels, iters=0) == 1.0

    def test_each_distinct_tau_is_computed_once(self, monkeypatch):
        logits, labels = self._calibrated_logits(n=2000, scale=4.0)
        computed, requested = [], []
        workspace_pass, reference_nll = _NllWorkspace._pass, _reference_mean_nll

        def counting_pass(ws, tau):
            computed.append(tau)
            return workspace_pass(ws, tau)

        def recording_nll(z, y, tau):
            requested.append(tau)
            return reference_nll(z, y, tau)

        monkeypatch.setattr(_NllWorkspace, "_pass", counting_pass)
        monkeypatch.setattr(sys.modules[__name__], "_reference_mean_nll", recording_nll)
        tau = fit_temperature(logits, labels, iters=200)
        assert tau == _reference_fit_temperature(logits, labels, iters=200)
        assert len(requested) == 204
        assert computed == list(dict.fromkeys(requested))
        assert len(computed) <= 81

    @pytest.mark.parametrize("logits, labels, message", [
        ([[0.0, np.nan], [1.0, 0.0]], [0, 1], "all logits must be finite"),
        ([[0.0, np.inf], [1.0, 0.0]], [0, 1], "all logits must be finite"),
        ([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], "labels must have an integer dtype"),
        ([[0.0, 1.0], [1.0, 0.0]], [-1, 1], r"labels must lie in \[0, 2\)"),
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], [0, 5], r"labels must lie in \[0, 3\)"),
        ([0.0, 1.0], [0, 1], "logits must be an"),
        ([[0.0, 1.0], [1.0, 0.0]], [0, 1, 1], "one entry per logit row"),
    ])
    def test_invalid_inputs_rejected(self, logits, labels, message):
        with pytest.raises(ValueError, match=message):
            fit_temperature(np.asarray(logits), np.asarray(labels))
        with pytest.raises(ValueError, match=message):
            _NllWorkspace(np.asarray(logits), np.asarray(labels))(1.0)

    @pytest.mark.parametrize("lo, hi", [(5.0, 1.0), (2.0, 2.0)])
    def test_empty_bracket_rejected(self, lo, hi):
        # lo=5, hi=1 used to return 1.0 without a word
        logits, labels = self._calibrated_logits(n=50)
        with pytest.raises(ValueError, match="lo must be below hi"):
            fit_temperature(logits, labels, lo=lo, hi=hi)

    def test_logits_near_the_float64_limit_give_no_nan_pass(self):
        # rowmax/tau overflows for small tau: each such row's NLL is finite or +inf, never NaN
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 1.0, (50, 3)) * 1e307
        y = rng.integers(0, 3, 50)
        y[:2] = (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ws = _NllWorkspace(z, y)
            nll = [ws(float(tau)) for tau in np.geomspace(0.05, 10.0, 41)]
            tau = fit_temperature(z, y)
        assert not np.isnan(nll).any()
        assert 0.05 <= tau <= 10.0

    def test_overflowed_rows_keep_the_other_rows_finite(self):
        # row 7's rowmax/tau overflows at tau=0.5, its NLL does not; the rest of the block stays finite
        rng = np.random.default_rng(4)
        z = rng.normal(0.0, 1.0, (40, 4))
        z[7] = (1e308, 0.0, -1e308, 5e307)
        y = rng.integers(0, 4, 40)
        y[7] = 3
        ws = _NllWorkspace(z, y)
        assert np.isfinite(ws(0.5))
        assert ws.lse[7] == 1e308  # log(1 + 0 + 0 + 0) + (1e308 - 5e307) / 0.5
        others = np.delete(np.arange(40), 7)
        assert np.allclose(ws.lse[others], [_reference_mean_nll(z[i:i + 1], y[i:i + 1], 0.5) for i in others],
                           rtol=1e-13)

    def test_scaling_preserves_predictions(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (300, 5))
        labels = rng.integers(0, 5, 300)
        tau = fit_temperature(logits, labels)
        before = PredictionSet.from_logits(logits, labels).predicted
        after = PredictionSet.from_logits(logits, labels, tau=tau).predicted
        assert np.array_equal(before, after)


@pytest.mark.parametrize("m", [2, 7, 8, 9, 10, 16, 17, 128, 129, 300])
def test_column_sums_follow_numpys_row_sum_order(m):
    # _column_sums mirrors numpy's pairwise order for a contiguous row; a new numpy may change that order
    rows = np.random.default_rng(m).exponential(1.0, (257, m)) ** 3
    got = _column_sums(np.ascontiguousarray(rows.T)).copy()
    assert np.array_equal(got, rows.sum(axis=1)), (
        f"_column_sums differs from (n, {m}).sum(axis=1) under numpy {np.__version__}")


class TestReportAndCsv:
    def test_report_fields(self):
        pred = _single_conf_rows([0.9, 0.7, 0.3], [True, False, True], m=4)
        rep = calibration_report(pred, bins=10)
        assert len(rep.bins) == 10
        assert rep.mce >= rep.ece
        assert sum(rep.interval_counts) == 3

    def test_reliability_csv(self, tmp_path):
        # the CLI's reliability writer: header plus one row per bin
        pred = _single_conf_rows([0.9] * 3, [True, True, False], m=2)
        p = tmp_path / "rel.csv"
        _write_reliability(p, bin_reliability(pred, 10))
        lines = p.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,mean_conf,accuracy"
        assert len(lines) == 11
