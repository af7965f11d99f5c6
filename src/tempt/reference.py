"""Graph-free reference math for verification.

Everything here re-derives the model and loss values with plain numpy at
a caller-chosen dtype (float64 by default), without touching the autodiff
tape. ``finite_difference_grads`` perturbs raw parameter arrays and
re-evaluates through this path, so a gradcheck compares two genuinely
independent routes: float32 backprop against float64 central differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import BN_EPS, HEAD_NORM_EPS, ModelSpec


def _conv(x, w, stride, pad, dtype):
    n, c, h, w_in = x.shape
    f, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w_in + 2 * pad), dtype=x.dtype)  # not np.pad: its per-call overhead was a third of a gradcheck
    xp[:, :, pad : pad + h, pad : pad + w_in] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    out = cols.astype(dtype) @ w.reshape(f, -1).T.astype(dtype)
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


def _bn(arrays, prefix, x, dtype):
    shape = (1, -1, 1, 1)
    g, b = arrays[f"{prefix}.gamma"], arrays[f"{prefix}.beta"]
    rm, rv = arrays[f"{prefix}.running_mean"], arrays[f"{prefix}.running_var"]
    inv = 1.0 / np.sqrt(rv.astype(dtype) + BN_EPS)
    return g.astype(dtype).reshape(shape) * (x - rm.astype(dtype).reshape(shape)) * inv.reshape(shape) + b.astype(
        dtype
    ).reshape(shape)


def forward_eval(
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    batch: np.ndarray,
    dtype=np.float64,
    relu_pattern: list | None = None,
) -> np.ndarray:
    """Eval-mode logits computed outside the graph engine.

    ``relu_pattern`` collects the sign pattern at every relu site; a
    finite-difference probe is only a valid derivative estimate when the
    pattern is identical at both evaluation points.
    """
    x = batch.astype(dtype)

    def _relu(pre):
        if relu_pattern is not None:
            relu_pattern.append(np.packbits(pre.ravel() > 0).tobytes())
        return np.maximum(pre, 0)

    def block(x_in, prefix, downsample):
        stride = 2 if downsample else 1
        out = _conv(x_in, arrays[f"{prefix}.conv1.w"], stride, 1, dtype)
        out = _relu(_bn(arrays, f"{prefix}.bn1", out, dtype))
        out = _conv(out, arrays[f"{prefix}.conv2.w"], 1, 1, dtype)
        out = _bn(arrays, f"{prefix}.bn2", out, dtype)
        if downsample:
            skip = _conv(x_in, arrays[f"{prefix}.proj.w"], stride, 0, dtype)
            skip = _bn(arrays, f"{prefix}.proj_bn", skip, dtype)
        else:
            skip = x_in
        return _relu(out + skip)

    out = _conv(x, arrays["stem.conv.w"], 1, 1, dtype)
    out = _relu(_bn(arrays, "stem.bn", out, dtype))
    for si, (_, blocks) in enumerate(spec.stages):
        for bi in range(blocks):
            out = block(out, f"stage{si}.block{bi}", bi == 0)
    feat = out.mean(axis=(2, 3))
    hidden = _relu(feat @ arrays["head.fc1.w"].astype(dtype).T + arrays["head.fc1.b"].astype(dtype))
    w = arrays["head.out.w"].astype(dtype)
    what = w / np.sqrt((w**2).sum(axis=1, keepdims=True))
    xhat = hidden / (np.sqrt((hidden**2).sum(axis=1, keepdims=True)) + HEAD_NORM_EPS)
    return spec.head_scale * (xhat @ what.T)


# naive float64 loss evaluations, shared by the op oracles and gradcheck


def ldam_value(z: np.ndarray, labels, counts_n, margin_scale: float) -> float:
    z = np.asarray(z, dtype=np.float64)
    margins = margin_scale / np.power(np.asarray(counts_n, dtype=np.float64), 0.25)
    total = 0.0
    for row, y in zip(z, labels):
        num = np.exp(row[y] - margins[y])
        den = num + np.exp(np.delete(row, y)).sum()
        total += -np.log(num / den)
    return total / z.shape[0]


def cross_entropy_value(z: np.ndarray, labels) -> float:
    return ldam_value(z, labels, np.ones(np.asarray(z).shape[1]), 0.0)


def entropy_value(z: np.ndarray) -> float:
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    p = ez / ez.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    return float((-plogp.sum(axis=1)).mean())


def temporal_consistency_value(y: np.ndarray, target: np.ndarray) -> float:
    d = np.asarray(y, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float((d**2).sum(axis=1).mean())


@dataclass
class GradcheckResult:
    loss: str
    group_errors: dict[str, float]  # parameter group -> max relative error
    worst_param: str
    max_rel_err: float
    masked_fraction: float  # probes dropped for crossing a relu kink
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def finite_difference_grads(
    loss_fn,
    arrays: dict[str, np.ndarray],
    names: list[str],
    step: float = 1e-3,
    max_probes_per_tensor: int | None = None,
    seed: int = 0,
) -> tuple[dict[str, np.ndarray], float]:
    """Richardson-extrapolated central differences of ``loss_fn(arrays)`` w.r.t. the named arrays.

    Each probe takes the central differences D(h) at +-``step`` and D(h/2)
    at +-``step``/2; (4 D(h/2) - D(h)) / 3 cancels their h^2 error terms,
    leaving O(h^4) truncation error. ``loss_fn`` returns (value, signature);
    a probe whose four evaluation points disagree in signature straddles a
    non-differentiable point, so its estimate is invalid and comes back NaN.
    Probes every coordinate unless capped; capped tensors get a seeded
    coordinate sample, with unprobed entries also NaN. Returns (grads,
    masked_fraction).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out: dict[str, np.ndarray] = {}
    probed = 0
    masked = 0
    for name in names:
        base = arrays[name]
        grad = np.full(base.size, np.nan)
        coords = np.arange(base.size)
        if max_probes_per_tensor is not None and base.size > max_probes_per_tensor:
            coords = np.sort(rng.choice(base.size, size=max_probes_per_tensor, replace=False))
        work = base.astype(np.float64).ravel().copy()
        perturbed = dict(arrays)
        for ci in coords:
            original = work[ci]
            values = []
            signatures = set()
            for offset in (step, -step, step / 2, -step / 2):
                work[ci] = original + offset
                perturbed[name] = work.reshape(base.shape)
                value, signature = loss_fn(perturbed)
                values.append(value)
                signatures.add(signature)
            work[ci] = original
            probed += 1
            if len(signatures) > 1:
                masked += 1
                continue
            f_plus, f_minus, f_half_plus, f_half_minus = values
            d_full = (f_plus - f_minus) / (2 * step)
            d_half = (f_half_plus - f_half_minus) / step
            grad[ci] = (4 * d_half - d_full) / 3
        out[name] = grad.reshape(base.shape)
    return out, (masked / probed if probed else 0.0)


MAX_MASKED_FRACTION = 0.25


def compare_grads(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    groups: dict[str, str],
    tolerance: float = 1e-3,
    loss_name: str = "",
    masked_fraction: float = 0.0,
) -> GradcheckResult:
    """Per-group max relative error, normalized by the group's gradient scale.

    The check also fails outright if too many probes were masked: a
    mostly-masked comparison would not be evidence of anything.
    """
    by_group: dict[str, list[tuple[str, float, float]]] = {}
    for name, fd in numeric.items():
        mask = np.isfinite(fd)
        diff = float(np.abs(analytic[name].astype(np.float64) - fd)[mask].max(initial=0.0))
        scale = float(np.abs(fd[mask]).max(initial=0.0))
        by_group.setdefault(groups[name], []).append((name, diff, scale))

    group_errors: dict[str, float] = {}
    worst_param = ""
    worst = 0.0
    for group, rows in by_group.items():
        denom = max(max(scale for _, _, scale in rows), 1e-6)
        err = 0.0
        for name, diff, _ in rows:
            rel = diff / denom
            if rel > err:
                err = rel
            if rel > worst:
                worst = rel
                worst_param = name
        group_errors[group] = err
    return GradcheckResult(
        loss=loss_name,
        group_errors=group_errors,
        worst_param=worst_param,
        max_rel_err=worst,
        masked_fraction=masked_fraction,
        passed=worst < tolerance and masked_fraction <= MAX_MASKED_FRACTION,
    )
