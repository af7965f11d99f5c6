"""Scalar objectives for pretraining and test-time adaptation.

All losses take (N, k) logits as graph tensors and reduce to a scalar
with max-subtraction stabilization where exponentials are involved. The
margin loss follows delta_j = margin_scale / n_j^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class ClassCounts:
    """Per-class sample counts plus the margin temperature."""

    n: tuple[int, ...]
    margin_scale: float

    def margins(self) -> np.ndarray:
        return (self.margin_scale / np.power(self.n, 0.25)).astype(np.float32)


def _margin_softmax_ce(z: T.Tensor, labels: Sequence[int], margins: np.ndarray) -> T.Tensor:
    n, k = z.shape
    labels = np.asarray(labels, dtype=np.int64)
    onehot = np.zeros((n, k), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    z_adj = z - T.Tensor(onehot * margins[labels][:, None])
    shift = T.Tensor(z_adj.data.max(axis=1, keepdims=True))  # constant: softmax shift-invariant
    zs = z_adj - shift
    lse = T.log(T.tensor_sum(T.exp(zs), axis=1, keepdims=False))
    true_logit = T.tensor_sum(zs * T.Tensor(onehot), axis=1, keepdims=False)
    return T.tensor_mean(lse - true_logit)


def ldam_loss(z: T.Tensor, labels: Sequence[int], counts: ClassCounts) -> T.Tensor:
    """Margin-adjusted softmax cross-entropy, mean over the batch.

    The true-class logit is shifted down by delta_y before the softmax,
    so rarer classes must be predicted with a wider margin. With
    margin_scale 0 this is exactly plain cross-entropy.
    """
    return _margin_softmax_ce(z, labels, counts.margins())


def cross_entropy(z: T.Tensor, labels: Sequence[int]) -> T.Tensor:
    """Stabilized softmax cross-entropy, mean over the batch."""
    return _margin_softmax_ce(z, labels, np.zeros(z.shape[1], dtype=np.float32))


def entropy_loss(z: T.Tensor) -> T.Tensor:
    """Mean softmax entropy of the rows; the entropy-minimization objective."""
    shift = T.Tensor(z.data.max(axis=1, keepdims=True))
    zs = z - shift
    ez = T.exp(zs)
    total = T.tensor_sum(ez, axis=1, keepdims=True)
    logp = zs - T.log(total)
    p = T.exp(logp)
    return T.tensor_mean(T.tensor_sum(p * logp, axis=1) * np.float32(-1.0))


def temporal_consistency_loss(y: T.Tensor, target: np.ndarray) -> T.Tensor:
    """Mean over frames of the squared L2 distance to a fixed target.

    The target is a constant; no gradient flows into it. The caller picks
    the frames: ``adapt_video`` passes only its step batch.
    """
    diff = y - T.Tensor(target)
    return T.tensor_mean(T.tensor_sum(diff * diff, axis=1))


def jacobian_fd_approx(
    f_prev: np.ndarray,
    f_cur: np.ndarray,
    x_prev: np.ndarray,
    x_cur: np.ndarray,
    denom_floor: float = 1e-8,
) -> np.ma.MaskedArray:
    """Frame-difference Jacobian estimate J[i,j] ~ df_i / dx_j.

    Entries whose input-coordinate step is below ``denom_floor`` in
    magnitude are masked as undefined rather than returned as huge or
    infinite values.
    """
    df = np.asarray(f_cur, dtype=np.float64).ravel() - np.asarray(f_prev, dtype=np.float64).ravel()
    dx = np.asarray(x_cur, dtype=np.float64).ravel() - np.asarray(x_prev, dtype=np.float64).ravel()
    defined = np.abs(dx) >= denom_floor
    safe_dx = np.where(defined, dx, 1.0)
    jac = df[:, None] / safe_dx[None, :]
    mask = np.broadcast_to(~defined[None, :], jac.shape)
    return np.ma.MaskedArray(jac, mask=mask)
