"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one [PASS]/[FAIL]
line per criterion.  Criteria 6 and 7 train on the real MNIST IDX files and
skip with an explicit reason when those files are absent (they cannot be
downloaded in an offline environment); everything else runs on synthetic
data in seconds to minutes.
"""

import time

import numpy as np
import pytest

from conftest import mnist_dir, requires_mnist
from gradient_decay.calibration import (
    PredictionSet,
    _NllWorkspace,
    calibration_report,
    confidence_table,
    fit_temperature,
)
from gradient_decay.datasets import BlobsConfig, decode, load_mnist_idx, make_blobs, mnist_paths
from gradient_decay.loss import (
    LossParams,
    beta_ce_batch,
    gradient_magnitude,
    inflection_point,
    local_lipschitz_bound,
    logit_curvature,
    magnitude_derivatives,
)
from gradient_decay.mlp import MlpModel, TrainConfig, difficulty_groups, train
from gradient_decay.schedule import WarmupSchedule
from gradient_decay.verify import DEFAULT_BETAS, FdConfig, grid_scan_extremum, verify_all

MNIST_BETAS = (1.0, 0.5, 0.1, 0.01, 0.001)
MNIST_BUDGET_SECONDS = 45 * 60


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else "")
    print(line)
    assert ok, line


# ------------------------------------------------------------ criterion 1


def test_c1_analytic_formula_suite():
    report = verify_all(FdConfig(trials=200), DEFAULT_BETAS)
    by_prop = {}
    for c in report.checks:
        by_prop.setdefault(c.property, []).append(c)

    ok = report.all_pass
    ok &= all(c.tolerance == 1e-6 and c.passed for c in by_prop["fd_gradient_agreement"])
    ok &= len(by_prop["fd_gradient_agreement"]) == len(DEFAULT_BETAS)
    ok &= all(c.tolerance == 1e-12 and c.passed for c in by_prop["gradient_null_sum"])
    ok &= all(c.tolerance == 1e-12 and c.passed for c in by_prop["beta1_equivalence"])
    ok &= all(c.tolerance == 1e-10 and c.passed for c in by_prop["shift_invariance"])
    ok &= all(c.passed for c in by_prop["temperature_sandwich"])
    ok &= all(c.passed for c in by_prop["margin_sandwich"])
    worst = max(c.worst_error for c in by_prop["fd_gradient_agreement"])
    _report("criterion 1: analytic formula suite (FD, null-sum, beta=1, shifts, sandwiches)",
            ok, f"worst FD error {worst:.2e} over 200 trials x {len(DEFAULT_BETAS)} betas")


# ------------------------------------------------------------ criterion 2


def test_c2_curvature_peak_and_local_bound():
    ok = True
    details = []
    for beta in (0.1, 1.0, 3.0, 10.0):
        (arg, val), = grid_scan_extremum(
            [lambda p: logit_curvature(p, beta)[0]], 1e-6, 1 - 1e-6, 1_000_000
        )
        ok &= abs(val - 0.25) <= 1e-9
        ok &= abs(arg - inflection_point(beta)) <= 1e-5
        details.append(f"beta={beta}: max={val:.12f} at {arg:.6f}")
    # closed forms of the bound on [0, 0.5], exact in float64
    ok &= local_lipschitz_bound(0.1, 0.0, 0.5) == 0.1 / (0.1 + 1.0) ** 2
    for beta in (1.0, 3.0, 10.0):
        ok &= local_lipschitz_bound(beta, 0.0, 0.5) == 0.25
    _report("criterion 2: curvature max 1/4 at 1/(1+beta); [0,0.5] bound closed form",
            ok, "; ".join(details))


# ------------------------------------------------------------ criterion 3


def test_c3_convexity_flip():
    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    ok = True
    for beta in (0.01, 0.5):
        ok &= bool(np.all(magnitude_derivatives(grid, beta)[1] < 0.0))
    for beta in (2.0, 20.0):
        ok &= bool(np.all(magnitude_derivatives(grid, beta)[1] > 0.0))
    ok &= bool(np.all(magnitude_derivatives(grid, 1.0)[1] == 0.0))
    _report("criterion 3: d2G/dp2 sign flips with beta-1 on a 10^4 grid", ok)


# ------------------------------------------------------------ criterion 4


def test_c4_extreme_beta_limits():
    lo = gradient_magnitude(0.5, 1e-8)
    hi = gradient_magnitude(0.5, 1e8)
    ok = lo >= 1.0 - 1e-7 and hi <= 1e-7
    _report("criterion 4: G(0.5, 1e-8) -> 1 and G(0.5, 1e8) -> 0",
            ok, f"G(0.5,1e-8)={lo!r}, G(0.5,1e8)={hi!r}")


# ------------------------------------------------------------ criterion 5


def test_c5_warmup_schedule_exact():
    s = WarmupSchedule(0.1, 1.0, 1000)
    ok = s.beta_at(0) == 0.1 and s.beta_at(500) == 0.55 and s.beta_at(1000) == 1.0
    ok &= s.beta_at(1001) == 1.0 and s.beta_at(5000) == 1.0
    _report("criterion 5: warm-up endpoints/midpoint exact, clamped after t_warm", ok)


# -------------------------------------------------- criteria 6 & 7 (MNIST)


@pytest.fixture(scope="session")
def mnist_sweep():
    """The reference 5-beta sweep: FCNN 784-50-20-10, lr 1e-3,
    weight decay 1e-4, momentum 0.9, batch 100, 100 epochs, one seed."""
    d = mnist_dir()
    if d is None:
        pytest.skip("MNIST IDX files not available in this environment")
    ti, tl, vi, vl = mnist_paths(d)
    train_set = load_mnist_idx(ti, tl, "train")
    test_set = load_mnist_idx(vi, vl, "test")
    cfg = TrainConfig(lr=1e-3, momentum=0.9, weight_decay=1e-4,
                      batch_size=100, epochs=100, seed=0)
    runs = {}
    t0 = time.time()
    for beta in MNIST_BETAS:
        params = LossParams(beta=beta)
        model = MlpModel.init((784, 50, 20, 10), seed=0)
        need_traces, traces = beta in (1.0, 0.01), []
        res = train(model, train_set, cfg, params, test_set=test_set,
                    observe=(lambda _, p_true: traces.append(p_true)) if need_traces else None)
        p_true = beta_ce_batch(model.forward(decode(train_set.raw)), train_set.labels, params).p_true
        entry = {
            "counts": confidence_table(p_true),
            "mean_train_conf": float(p_true.mean()),
            "test_acc": res.metrics[-1].test_acc,
        }
        if need_traces:
            entry["group_means"] = difficulty_groups(np.stack(traces), k=5).group_means
        runs[beta] = entry
        print(f"  [mnist sweep] beta={beta}: test_acc={entry['test_acc']:.4f} "
              f"mean_conf={entry['mean_train_conf']:.4f} ({time.time()-t0:.0f}s elapsed)")
    runs["elapsed"] = time.time() - t0
    return runs


@requires_mnist
def test_c6_mnist_confidence_distribution_trend(mnist_sweep):
    high = {b: int(mnist_sweep[b]["counts"][4]) for b in MNIST_BETAS}  # (0.8, 1]
    low = {b: int(mnist_sweep[b]["counts"][0]) for b in MNIST_BETAS}   # <= 0.2
    conf = {b: mnist_sweep[b]["mean_train_conf"] for b in MNIST_BETAS}
    ok = high[0.1] > high[1.0]
    ok &= low[0.001] > low[0.01]
    ok &= conf[0.1] > conf[1.0]
    ok &= mnist_sweep["elapsed"] <= MNIST_BUDGET_SECONDS
    ok &= mnist_sweep[1.0]["test_acc"] > 0.90  # frozen band for the reference run
    _report(
        "criterion 6: MNIST confidence-distribution orderings across betas",
        ok,
        f"#p>0.8: beta0.1={high[0.1]} vs beta1={high[1.0]}; "
        f"#p<=0.2: beta0.001={low[0.001]} vs beta0.01={low[0.01]}; "
        f"mean conf beta0.1={conf[0.1]:.4f} vs beta1={conf[1.0]:.4f}; "
        f"elapsed={mnist_sweep['elapsed']:.0f}s",
    )


@requires_mnist
def test_c7_curriculum_spread(mnist_sweep):
    def spread(beta):
        gm = mnist_sweep[beta]["group_means"]
        return float(gm[4, 20] - gm[0, 20])  # easiest minus hardest at epoch 20

    ok = spread(0.01) > spread(1.0)
    _report("criterion 7: easy-hard confidence spread at epoch 20 wider for beta=0.01",
            ok, f"spread(0.01)={spread(0.01):.4f} > spread(1.0)={spread(1.0):.4f}")


# ------------------------------------------------- criteria 8 & 9 (blobs)


@pytest.fixture(scope="session")
def blobs_sweep():
    """Over-parameterized blobs: 10 classes, test accuracy < 0.95, hidden 256."""
    train_set, test_set = make_blobs(
        BlobsConfig(classes=10, n_per_class=50, sigma=0.3, radius=1.0, seed=42)
    )
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=0.0,
                      batch_size=100, epochs=400, seed=7)
    runs = {}
    for beta in (0.1, 1.0, 5.0, 20.0):
        model = MlpModel.init((2, 256, 10), seed=7)
        res = train(model, train_set, cfg, LossParams(beta=beta), test_set=test_set)
        logits = model.forward(decode(test_set.raw))
        report = calibration_report(PredictionSet.from_logits(logits, test_set.labels), 10)
        runs[beta] = {
            "test_acc": res.metrics[-1].test_acc,
            "mean_conf": report.mean_conf,
            "ece": report.ece,
            "logits": logits,
            "labels": test_set.labels,
        }
    return runs


def test_c8_calibration_direction(blobs_sweep):
    betas = (0.1, 1.0, 5.0, 20.0)
    confs = [blobs_sweep[b]["mean_conf"] for b in betas]
    inversions = sum(1 for i in range(len(confs) - 1) if confs[i] < confs[i + 1])
    ok = all(blobs_sweep[b]["test_acc"] < 0.95 for b in betas)
    ok &= inversions <= 1
    ok &= blobs_sweep[20.0]["ece"] < blobs_sweep[0.1]["ece"]
    _report(
        "criterion 8: test confidence non-increasing in beta; ECE(20) < ECE(0.1)",
        ok,
        f"confs={[f'{c:.3f}' for c in confs]} inversions={inversions}; "
        f"ece(0.1)={blobs_sweep[0.1]['ece']:.4f} ece(20)={blobs_sweep[20.0]['ece']:.4f}",
    )


def test_c9_temperature_scaling(blobs_sweep):
    logits = blobs_sweep[1.0]["logits"]
    labels = blobs_sweep[1.0]["labels"]
    tau = fit_temperature(logits, labels)
    nll = _NllWorkspace(logits, labels)
    nll_1, nll_t = nll(1.0), nll(tau)
    before = PredictionSet.from_logits(logits, labels).predicted
    after = PredictionSet.from_logits(logits, labels, tau=tau).predicted
    ok = nll_t <= nll_1 + 1e-12
    ok &= bool(np.array_equal(before, after))
    _report("criterion 9: fitted temperature lowers NLL and keeps every prediction",
            ok, f"tau*={tau:.4f}, NLL {nll_1:.4f} -> {nll_t:.4f}")


# ------------------------------------------------------------ criterion 10


def test_c10_full_scale_results_out_of_scope():
    # Deep-CNN benchmark numbers are not reproducible at desk scale by design;
    # the trend directions they support are covered by criteria 6-8 and the
    # invariant suites above.  Nothing to compute here.
    _report("criterion 10: full-scale benchmark numbers excluded; directions covered by 6-8", True)
