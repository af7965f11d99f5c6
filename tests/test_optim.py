"""AdamW update rule."""

from __future__ import annotations

import numpy as np
import pytest

from tempt.errors import InvalidRange, NonFiniteGradient
from tempt.optim import AdamWConfig, AdamWState, adamw_step


def test_zero_gradient_zero_decay_is_noop():
    p = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    values = {"w": p}
    state = AdamWState.for_params(values)
    cfg = AdamWConfig(lr=0.1, weight_decay=0.0)
    before = p.tobytes()
    for _ in range(5):
        adamw_step(values, {"w": np.zeros_like(p)}, state, cfg)
    assert p.tobytes() == before


def test_constant_gradient_update_approaches_lr_sign():
    p = np.zeros(3, dtype=np.float32)
    g = np.array([0.5, -2.0, 8.0], dtype=np.float32)
    values = {"w": p}
    state = AdamWState.for_params(values)
    cfg = AdamWConfig(lr=1e-3, weight_decay=0.0)
    prev = p.copy()
    for _ in range(200):
        prev = p.copy()
        adamw_step(values, {"w": g}, state, cfg)
    last_update = p - prev
    assert np.allclose(np.abs(last_update), cfg.lr, rtol=1e-3)
    assert np.array_equal(np.sign(last_update), -np.sign(g))


def test_single_step_matches_closed_form():
    rng = np.random.Generator(np.random.PCG64(3))
    p0 = rng.uniform(-1, 1, size=6).astype(np.float32)
    g = rng.uniform(-1, 1, size=6).astype(np.float32)
    cfg = AdamWConfig(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.04)

    p = p0.copy()
    values = {"w": p}
    adamw_step(values, {"w": g}, AdamWState.for_params(values), cfg)

    g64 = g.astype(np.float64)
    m_hat = (1 - cfg.beta1) * g64 / (1 - cfg.beta1)
    v_hat = (1 - cfg.beta2) * g64**2 / (1 - cfg.beta2)
    want = p0.astype(np.float64) - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps) - cfg.lr * cfg.weight_decay * p0
    assert np.abs(p - want).max() < 1e-6


def test_decay_is_decoupled_from_gradient():
    # pure decay: zero gradient still shrinks the parameter by lr*wd*p
    p = np.array([2.0], dtype=np.float32)
    values = {"w": p}
    adamw_step(values, {"w": np.zeros(1, dtype=np.float32)}, AdamWState.for_params(values), AdamWConfig(lr=0.5, weight_decay=0.1))
    assert p[0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-7)


def test_nonfinite_gradient_rejected():
    p = np.zeros(2, dtype=np.float32)
    values = {"w": p}
    state = AdamWState.for_params(values)
    with pytest.raises(NonFiniteGradient):
        adamw_step(values, {"w": np.array([np.nan, 0.0], dtype=np.float32)}, state, AdamWConfig())


def test_state_tracks_step_count():
    p = np.zeros(1, dtype=np.float32)
    values = {"w": p}
    state = AdamWState.for_params(values)
    for i in range(3):
        adamw_step(values, {"w": np.ones(1, dtype=np.float32)}, state, AdamWConfig(lr=1e-3, weight_decay=0.0))
    assert state.step == 3


@pytest.mark.parametrize(
    "kwargs", [{"lr": -1e-3}, {"beta1": 1.0}, {"beta2": -0.1}, {"eps": 0.0}, {"weight_decay": -0.01}], ids=lambda kw: next(iter(kw))
)
def test_out_of_range_config_rejected_when_built(kwargs):
    with pytest.raises(InvalidRange):
        AdamWConfig(**kwargs)
