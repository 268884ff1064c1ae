"""Every scalar parameter goes through one of loss's three checkers, with one rule per kind.

A real parameter (check_positive_real) is a finite number > 0; a bounded
real (check_real_in) is a finite number in [lo, hi); an integer parameter
(check_int) is an integer at or above its least value.  Each rule rejects
bool, strings, NaN and infinities the same way at every call site and
accepts numpy scalars.
"""

import math
import re

import numpy as np
import pytest

from gradient_decay.calibration import PredictionSet, bin_reliability
from gradient_decay.datasets import BlobsConfig
from gradient_decay.loss import (
    LossParams,
    curvature,
    gradient_magnitude,
    inflection_point,
    local_lipschitz_bound,
    logit_curvature,
    magnitude_derivatives,
)
from gradient_decay.mlp import MlpModel, TrainConfig, difficulty_groups
from gradient_decay.schedule import WarmupSchedule
from gradient_decay.verify import FdConfig, central_diff_grad, grid_scan_extremum, verify_all

_LOGITS, _LABELS = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 3.0]]), np.array([0, 1, 0])
_PRED = PredictionSet.from_logits(_LOGITS, _LABELS)
_TRACES = np.linspace(0.1, 0.9, 12).reshape(2, 6)

# call site -> (call with the value in place, rule): the rule is None for a positive real,
# an (lo, hi) pair for a real in [lo, hi), and the least value for an integer
SITES = {
    "LossParams.beta": (lambda v: LossParams(beta=v), None),
    "LossParams.tau": (lambda v: LossParams(beta=1.0, tau=v), None),
    "from_logits.tau": (lambda v: PredictionSet.from_logits([[0.0, 3.0]], [1], tau=v), None),
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
    "FdConfig.trials": (lambda v: FdConfig(trials=v), 1),
    "FdConfig.seed": (lambda v: FdConfig(seed=v), 0),
    "central_diff_grad.step": (lambda v: central_diff_grad(lambda Z: Z.sum(axis=1), [[0.0, 1.0]], v), None),
    "grid_scan_extremum.lo": (lambda v: grid_scan_extremum([lambda g: -g * g], v, 1.0, 3), (-math.inf, math.inf)),
    "grid_scan_extremum.hi": (lambda v: grid_scan_extremum([lambda g: -g * g], -1.0, v, 3), (-math.inf, math.inf)),
    "grid_scan_extremum.points": (lambda v: grid_scan_extremum([lambda g: -g * g], -1.0, 1.0, v), 3),
    "verify_all.betas": (lambda v: verify_all(FdConfig(trials=2), [v]), None),
    "TrainConfig.lr": (lambda v: TrainConfig(lr=v), (0, math.inf)),
    "TrainConfig.momentum": (lambda v: TrainConfig(lr=0.1, momentum=v), (0, 1)),
    "TrainConfig.weight_decay": (lambda v: TrainConfig(lr=0.1, weight_decay=v), (0, math.inf)),
    "TrainConfig.batch_size": (lambda v: TrainConfig(lr=0.1, batch_size=v), 1),
    "TrainConfig.epochs": (lambda v: TrainConfig(lr=0.1, epochs=v), 1),
    "TrainConfig.seed": (lambda v: TrainConfig(lr=0.1, seed=v), 0),
    "BlobsConfig.classes": (lambda v: BlobsConfig(classes=v), 2),
    "BlobsConfig.n_per_class": (lambda v: BlobsConfig(n_per_class=v), 5),
    "BlobsConfig.sigma": (lambda v: BlobsConfig(sigma=v), None),
    "BlobsConfig.radius": (lambda v: BlobsConfig(radius=v), None),
    "BlobsConfig.seed": (lambda v: BlobsConfig(seed=v), 0),
    "MlpModel.init.layer_dims": (lambda v: MlpModel.init((2, v), 0), 1),
    "bin_reliability.bins": (lambda v: bin_reliability(_PRED, v), 1),
    "difficulty_groups.k": (lambda v: difficulty_groups(_TRACES, v), 1),
}


def _distinct(values):
    return list({(type(v), repr(v)): v for v in values}.values())


def _rejected(rule):
    bad = [True, np.bool_(True), math.nan, math.inf, -math.inf, -1, "a"]
    if rule is None:
        return _distinct(bad + [0, 0.0, np.float64(-0.5)])
    if isinstance(rule, tuple):
        # -1 is a good value of a real whose interval reaches below it
        return _distinct([v for v in bad if not (v == -1 and rule[0] <= -1)] + [float(rule[1])])
    return _distinct(bad + [rule - 1, 2.5, float(rule), np.float64(rule)])


def _accepted(rule):
    if rule is None:
        return [np.float32(0.5), np.int64(2), 2, 0.25]
    if isinstance(rule, tuple):
        return [0, 0.0, np.int64(0), np.float32(0.5)]
    return [np.int64(rule + 1), np.int32(rule), rule]


def _message(rule):
    if rule is None:
        return "must be a positive finite real"
    if isinstance(rule, tuple):
        return re.escape(f"must be a finite real in [{rule[0]}, {rule[1]})")
    return f"must be an integer >= {rule}"


REJECT = [(site, v) for site, (_, rule) in SITES.items() for v in _rejected(rule)]
ACCEPT = [(site, v) for site, (_, rule) in SITES.items() for v in _accepted(rule)]


@pytest.mark.parametrize("site, value", REJECT, ids=[f"{s}-{type(v).__name__}-{v!r}" for s, v in REJECT])
def test_bad_value_is_a_value_error_naming_the_rule(site, value):
    call, rule = SITES[site]
    with pytest.raises(ValueError, match=_message(rule)):
        call(value)


@pytest.mark.parametrize("site, value", ACCEPT, ids=[f"{s}-{type(v).__name__}-{v!r}" for s, v in ACCEPT])
def test_numpy_and_python_scalars_are_accepted(site, value):
    SITES[site][0](value)


@pytest.mark.parametrize("make, name", [(FdConfig, "step"), (FdConfig, "rel_tol"), (BlobsConfig, "dim")],
                         ids=["FdConfig.step", "FdConfig.rel_tol", "BlobsConfig.dim"])
def test_removed_settings_are_unexpected_keywords(make, name):
    """The finite-difference step and tolerance are constants of verify, and blobs are planar."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        make(**{name: 2})
