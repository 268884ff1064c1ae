"""Gradient-decay softmax cross-entropy: loss analytics, trainer, calibration."""

from gradient_decay.loss import (
    LossParams,
    gradient_magnitude,
    inflection_point,
    local_lipschitz_bound,
    logit_curvature,
    magnitude_derivatives,
    suggested_learning_rate,
)
from gradient_decay.schedule import Granularity, WarmupSchedule

__version__ = "0.1.0"
