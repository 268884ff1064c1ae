"""Linear warm-up of the gradient decay factor beta over training."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from gradient_decay.loss import check_int, check_positive_real

__all__ = ["Granularity", "WarmupSchedule"]


class Granularity(Enum):
    """Whether the warm-up counter t ticks per iteration or per epoch."""

    PER_ITERATION = "iteration"
    PER_EPOCH = "epoch"


@dataclass(frozen=True)
class WarmupSchedule:
    """beta rises linearly from beta_initial to beta_end over t_warm steps.

    beta_at(t) = beta_initial + (beta_end - beta_initial) * t / t_warm for
    t <= t_warm and stays at beta_end afterwards, so training can continue
    past the warm-up window.  Endpoints are exact: beta_at(0) == beta_initial
    and beta_at(t_warm) == beta_end.
    """

    beta_initial: float
    beta_end: float
    t_warm: int
    granularity: Granularity = Granularity.PER_ITERATION

    def __post_init__(self) -> None:
        check_positive_real("beta_initial", self.beta_initial)
        check_positive_real("beta_end", self.beta_end)
        check_int("t_warm", self.t_warm, 1)

    def beta_at(self, t: int) -> float:
        """The decay factor in effect at step t >= 0."""
        check_int("step counter", t, 0)
        if t >= self.t_warm:
            return self.beta_end
        return self.beta_initial + (self.beta_end - self.beta_initial) * (t / self.t_warm)
