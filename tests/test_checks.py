"""Every scalar parameter goes through one of loss's two checkers, with one rule per kind.

A real parameter (check_positive_real) is a finite number > 0; an integer
parameter (check_int) is an integer at or above its least value.  Each rule
rejects bool, strings, NaN and infinities the same way at every call site
and accepts numpy scalars.
"""

import math

import numpy as np
import pytest

from gradient_decay.calibration import PredictionSet, bin_reliability
from gradient_decay.datasets import BlobsConfig
from gradient_decay.loss import (
    LabeledLogits,
    LossParams,
    curvature,
    gradient_magnitude,
    inflection_point,
    local_lipschitz_bound,
    logit_curvature,
    magnitude_derivatives,
    softmax_probs,
)
from gradient_decay.mlp import SampleTraces, TrainConfig, difficulty_groups
from gradient_decay.schedule import WarmupSchedule
from gradient_decay.verify import FdConfig, central_diff_grad, grid_scan_extremum, verify_all

_PRED = PredictionSet.from_logits([[2.0, 0.0], [0.0, 1.0], [1.0, 3.0]], [0, 1, 0])
_TRACES = np.linspace(0.1, 0.9, 12).reshape(2, 6)

# call site -> (call with the value in place, least integer or None for a positive real)
SITES = {
    "LossParams.beta": (lambda v: LossParams(beta=v), None),
    "LossParams.tau": (lambda v: LossParams(beta=1.0, tau=v), None),
    "LabeledLogits.c": (lambda v: LabeledLogits(np.zeros(3), v), 0),
    "softmax_probs.tau": (lambda v: softmax_probs([0.0, 3.0], tau=v), None),
    "gradient_magnitude.beta": (lambda v: gradient_magnitude(0.5, v), None),
    "magnitude_derivatives.beta": (lambda v: magnitude_derivatives(0.5, v), None),
    "curvature.beta": (lambda v: curvature(0.5, v), None),
    "logit_curvature.beta": (lambda v: logit_curvature(0.5, v), None),
    "inflection_point.beta": (inflection_point, None),
    "local_lipschitz_bound.beta": (lambda v: local_lipschitz_bound(v, 0.0, 0.5), None),
    "WarmupSchedule.beta_initial": (lambda v: WarmupSchedule(v, 1.0, 3), None),
    "WarmupSchedule.beta_end": (lambda v: WarmupSchedule(0.1, v, 3), None),
    "WarmupSchedule.t_warm": (lambda v: WarmupSchedule(0.1, 1.0, v), 1),
    "WarmupSchedule.beta_at": (lambda v: WarmupSchedule(0.1, 1.0, 3).beta_at(v), 0),
    "FdConfig.step": (lambda v: FdConfig(step=v), None),
    "FdConfig.rel_tol": (lambda v: FdConfig(rel_tol=v), None),
    "FdConfig.trials": (lambda v: FdConfig(trials=v), 1),
    "FdConfig.seed": (lambda v: FdConfig(seed=v), 0),
    "central_diff_grad.step": (lambda v: central_diff_grad(lambda Z: Z.sum(axis=1), [0.0, 1.0], v), None),
    "grid_scan_extremum.points": (lambda v: grid_scan_extremum(lambda g: -g * g, -1.0, 1.0, v), 3),
    "verify_all.betas": (lambda v: verify_all(FdConfig(trials=2), [v]), None),
    "TrainConfig.batch_size": (lambda v: TrainConfig(lr=0.1, batch_size=v), 1),
    "TrainConfig.epochs": (lambda v: TrainConfig(lr=0.1, epochs=v), 1),
    "TrainConfig.clip_norm": (lambda v: TrainConfig(lr=0.1, clip_norm=v), None),
    "TrainConfig.seed": (lambda v: TrainConfig(lr=0.1, seed=v), 0),
    "BlobsConfig.classes": (lambda v: BlobsConfig(classes=v), 2),
    "BlobsConfig.dim": (lambda v: BlobsConfig(dim=v), 2),
    "BlobsConfig.n_per_class": (lambda v: BlobsConfig(n_per_class=v), 1),
    "BlobsConfig.sigma": (lambda v: BlobsConfig(sigma=v), None),
    "BlobsConfig.radius": (lambda v: BlobsConfig(radius=v), None),
    "BlobsConfig.seed": (lambda v: BlobsConfig(seed=v), 0),
    "bin_reliability.bins": (lambda v: bin_reliability(_PRED, v), 1),
    "difficulty_groups.k": (lambda v: difficulty_groups(SampleTraces(_TRACES, np.arange(6)), v), 1),
}


def _distinct(values):
    return list({(type(v), repr(v)): v for v in values}.values())


def _rejected(least):
    bad = [True, np.bool_(True), math.nan, math.inf, -math.inf, -1, "a"]
    if least is None:
        return _distinct(bad + [0, 0.0, np.float64(-0.5)])
    return _distinct(bad + [least - 1, 2.5, float(least), np.float64(least)])


def _accepted(least):
    if least is None:
        return [np.float32(0.5), np.int64(2), 2, 0.25]
    return [np.int64(least + 1), np.int32(least), least]


REJECT = [(site, v) for site, (_, least) in SITES.items() for v in _rejected(least)]
ACCEPT = [(site, v) for site, (_, least) in SITES.items() for v in _accepted(least)]


@pytest.mark.parametrize("site, value", REJECT, ids=[f"{s}-{type(v).__name__}-{v!r}" for s, v in REJECT])
def test_bad_value_is_a_value_error_naming_the_rule(site, value):
    call, least = SITES[site]
    rule = "must be a positive finite real" if least is None else f"must be an integer >= {least}"
    with pytest.raises(ValueError, match=rule):
        call(value)


@pytest.mark.parametrize("site, value", ACCEPT, ids=[f"{s}-{type(v).__name__}-{v!r}" for s, v in ACCEPT])
def test_numpy_and_python_scalars_are_accepted(site, value):
    SITES[site][0](value)
