"""AdamW with bias correction and decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRange, NonFiniteGradient, at_least


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        at_least(self, 0, "lr", "weight_decay")  # lr 0 is allowed: pretraining with it moves only the batch-norm statistics
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise InvalidRange(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise InvalidRange(f"eps must be > 0, got {self.eps}")


@dataclass
class AdamWState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, values: dict[str, np.ndarray]) -> "AdamWState":
        return cls(
            step=0,
            m={k: np.zeros_like(a) for k, a in values.items()},
            v={k: np.zeros_like(a) for k, a in values.items()},
        )


def adamw_step(
    values: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    cfg: AdamWConfig,
) -> None:
    """One in-place update over every entry of ``values``.

    Moments are bias-corrected; the decay term is applied to the
    pre-step parameter value and scaled by lr, independent of the
    gradient path.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, p in values.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name!r} is not finite")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        update = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if cfg.weight_decay != 0.0:
            update = update + cfg.lr * cfg.weight_decay * p
        p -= update.astype(p.dtype)
