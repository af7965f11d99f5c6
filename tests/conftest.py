from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tempt import model
from tempt import tensor as T


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture
def pool(monkeypatch):
    """A two-thread slice pool that takes calls of any size, whatever the host's CPU and BLAS thread counts."""
    executor = ThreadPoolExecutor(2, thread_name_prefix="test-slice")
    monkeypatch.setattr(T, "_POOL", executor)
    monkeypatch.setattr(T, "POOL_MIN_MACS", 0)
    monkeypatch.setattr(T, "POOL_MIN_ELEMENTS", 0)
    yield executor
    executor.shutdown()


@pytest.fixture(params=["pool", "inline"])
def slices(request, monkeypatch):
    """Each case runs on the ``pool`` fixture's two-thread pool, which takes calls of any size, and with every slice inline."""
    if request.param == "pool":
        request.getfixturevalue("pool")
    else:
        monkeypatch.setattr(T, "_POOL", None)


@pytest.fixture(scope="session")
def tiny_spec():
    return model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)), num_classes=8, head_hidden=8, head_scale=16.0)


@pytest.fixture(scope="session")
def tiny_params(tiny_spec):
    return model.build_model(tiny_spec, seed=7)


@pytest.fixture
def nan_in_tracked_relu(monkeypatch):
    """Make every relu of a tracked forward emit NaN through the op's own finite check.

    Untracked passes (an adaptation's before/after logit series) stay
    clean, so the failure lands inside the adaptation or training steps.
    """
    real_relu = T.relu

    def relu(x, skip=None):
        inputs = (x,) if skip is None else (x, skip)
        if not any(t.requires_grad for t in inputs):
            return real_relu(x, skip)
        return T._make(np.full_like(x.data, np.nan), "relu", inputs, lambda g: [g] * len(inputs))

    monkeypatch.setattr(T, "relu", relu)
