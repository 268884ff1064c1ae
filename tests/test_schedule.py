"""Warm-up schedule tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradient_decay.loss import LossParams
from gradient_decay.schedule import WarmupSchedule


def test_endpoints_and_midpoint_are_exact():
    s = WarmupSchedule(0.1, 1.0, 1000)
    assert s.beta_at(0) == 0.1
    assert s.beta_at(500) == 0.55
    assert s.beta_at(1000) == 1.0


def test_clamps_after_warmup():
    s = WarmupSchedule(0.1, 1.0, 1000)
    assert s.beta_at(5000) == 1.0
    assert s.beta_at(1001) == 1.0


def test_decreasing_schedule_allowed():
    s = WarmupSchedule(2.0, 0.5, 10)
    assert s.beta_at(0) == 2.0
    assert s.beta_at(10) == 0.5
    assert s.beta_at(5) == pytest.approx(1.25)


@given(
    st.floats(0.001, 50.0),
    st.floats(0.001, 50.0),
    st.integers(1, 100_000),
    st.integers(0, 500_000),
)
def test_every_value_is_a_valid_loss_beta(bi, be, tw, t):
    beta = WarmupSchedule(bi, be, tw).beta_at(t)
    LossParams(beta=beta)  # must not raise
    assert min(bi, be) <= beta <= max(bi, be)


@given(st.integers(1, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_affine_before_clamp(tw, t1, t2):
    s = WarmupSchedule(0.2, 4.0, tw)
    t1, t2 = min(t1, tw), min(t2, tw)
    slope = (4.0 - 0.2) / tw
    assert s.beta_at(t1) == pytest.approx(0.2 + slope * t1, rel=1e-12)
    mid = (s.beta_at(t1) + s.beta_at(t2)) / 2
    if (t1 + t2) % 2 == 0:
        assert s.beta_at((t1 + t2) // 2) == pytest.approx(mid, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        WarmupSchedule(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        WarmupSchedule(0.1, -1.0, 10)
    with pytest.raises(ValueError):
        WarmupSchedule(0.1, 1.0, 0)
    with pytest.raises(ValueError):
        WarmupSchedule(0.1, 1.0, 10).beta_at(-1)
