"""Finite-difference verification of the backprop path.

Builds a deliberately tiny model, computes analytic gradients through
the float32 graph, and compares them against float64 central differences
taken through the graph-free reference evaluator.
"""

from __future__ import annotations

import numpy as np

from . import losses, model, temporal
from . import tensor as T
from . import reference
from .reference import GradcheckResult

LOSS_KINDS = ("ce", "ldam", "entropy", "tempt")

TOLERANCE = 1e-3  # max relative error per parameter group
STEP = 1e-3  # finite-difference step
MAX_PROBES_PER_TENSOR = 256

TINY_SPEC = model.ModelSpec(input_hw=8, stages=((4, 1), (8, 1)), num_classes=8, head_hidden=8, head_scale=16.0)


def _arrays(params: model.ModelParams) -> dict[str, np.ndarray]:
    return {name: params[name].array for name in params.names()}


def run_gradcheck(loss_kind: str, seed: int = 0, params: model.ModelParams | None = None) -> GradcheckResult:
    """Compare analytic and numeric gradients for one loss on the tiny model.

    ce/ldam/entropy check every trainable group; the temporal-consistency
    loss checks the bn_affine subset it actually adapts.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss_kind!r}")
    if params is None:
        params = model.build_model(TINY_SPEC, seed)
    spec = params.spec
    rng = np.random.Generator(np.random.PCG64(seed + 17))
    k = spec.num_classes

    if loss_kind == "tempt":
        frames = rng.uniform(-1, 1, size=(6, spec.in_channels, spec.input_hw, spec.input_hw)).astype(np.float32)
        y0 = reference.forward_eval(_arrays(params), spec, frames, dtype=np.float32)
        target = temporal.median_filter(y0, 3)  # fixed while parameters are perturbed
        names = params.names_in_group(model.GROUP_BN_AFFINE)
        value, loss = (
            lambda z: reference.temporal_consistency_value(z, target),
            lambda z: losses.temporal_consistency_loss(z, target),
        )
    else:
        frames = rng.uniform(-1, 1, size=(4, spec.in_channels, spec.input_hw, spec.input_hw)).astype(np.float32)
        labels = rng.integers(0, k, size=4)
        counts = losses.ClassCounts(tuple(int(c) for c in rng.integers(5, 50, size=k)), margin_scale=2.0)
        names = [n for n in params.names() if params[n].trainable]
        value, loss = {
            "ce": (lambda z: reference.cross_entropy_value(z, labels), lambda z: losses.cross_entropy(z, labels)),
            "ldam": (
                lambda z: reference.ldam_value(z, labels, counts.n, counts.margin_scale),
                lambda z: losses.ldam_loss(z, labels, counts),
            ),
            "entropy": (reference.entropy_value, losses.entropy_loss),
        }[loss_kind]

    def numeric_loss(arrays: dict[str, np.ndarray]) -> tuple[float, bytes]:
        pattern: list = []
        z = reference.forward_eval(arrays, spec, frames, relu_pattern=pattern)
        return value(z), b"".join(pattern)

    leaves = params.leaves(trainable=set(names))
    grads = T.backward(loss(model.forward(params, frames, mode="eval", leaves=leaves)))
    analytic = {name: grads[leaves[name]].data for name in names}
    numeric, masked_fraction = reference.finite_difference_grads(
        numeric_loss,
        _arrays(params),
        names,
        step=STEP,
        max_probes_per_tensor=MAX_PROBES_PER_TENSOR,
        seed=seed,
    )
    groups = {name: params[name].group for name in names}
    return reference.compare_grads(
        analytic, numeric, groups, TOLERANCE, loss_name=loss_kind, masked_fraction=masked_fraction
    )
