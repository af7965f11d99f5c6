"""Print one ``name sha256`` line per artefact of the conv, forward and adaptation paths.

Two checkouts compute the same bytes when their outputs are equal:

    (cd parent && PYTHONPATH=src python scripts/digests.py) > parent.txt
    (cd change && PYTHONPATH=src python scripts/digests.py) > change.txt
    diff parent.txt change.txt

The artefacts come from a seeded default ``ModelSpec`` whose batch-norm
statistics and affine parameters are spread away from identity, on 400
seeded frames: ``forward_all`` at several chunk sizes, ``stem_conv``, the
after-logits and adapted weights of 3-step tempt and tent adaptations, the
weights after one pretraining epoch, and the named gradients of one
train-mode step and of one eval-mode step on the batch-norm affine
parameters (Adam's first update is about lr * sign(g), so the weights
alone can hide low-bit gradient differences). The last line is the shipped
``configs/default.json`` as its parser resolves it.

The bytes depend on the BLAS kernel, not on the thread count, so a
parent/change diff is valid only when both sides ran on the same OpenBLAS
runtime core. The script prints that core on stderr (``unknown`` when
numpy's bundled OpenBLAS or its core-name symbol is missing), keeping
stdout to the digest lines.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tempt import adapt, config, losses, model, tensor, training
from tempt.data import FrameDataset

FRAMES = 400
CHUNKS = (16, 24, 128, 384, 400)
ADAPT_STEPS = 3
STEP_BATCH = 70  # two full frame slices and a partial one
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def blas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS picked for this CPU, or ``unknown``."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _sha(data) -> str:
    raw = data if isinstance(data, bytes) else np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(raw).hexdigest()


def _grads_sha(leaves: dict[str, tensor.Tensor], loss: tensor.Tensor) -> str:
    """sha256 of every named gradient of ``loss``, in leaf order."""
    grads = tensor.grads_by_name(leaves, tensor.backward(loss))
    return _sha(b"".join(np.ascontiguousarray(g).tobytes() for g in grads.values()))


def _spread_bn(params: model.ModelParams, rng: np.random.Generator) -> None:
    """Move every batch-norm layer off identity, so eval batch norm changes each activation."""
    for name in params.names_in_group(model.GROUP_BN_STATS) + params.names_in_group(model.GROUP_BN_AFFINE):
        arr = params[name].array
        if name.endswith(".running_var"):
            arr[...] = rng.uniform(0.5, 2.0, size=arr.shape)
        elif name.endswith(".gamma"):
            arr[...] = rng.uniform(0.8, 1.2, size=arr.shape)
        else:  # running_mean, beta
            arr[...] = rng.normal(0.0, 0.2, size=arr.shape)


def digest_lines(spec: model.ModelSpec) -> list[str]:
    """``name sha256`` of each artefact, in a fixed order."""
    rng = np.random.Generator(np.random.PCG64(9))
    params = model.build_model(spec, 0)
    _spread_bn(params, rng)
    frames = rng.standard_normal((FRAMES, spec.in_channels, spec.input_hw, spec.input_hw)).astype(np.float32)
    lines = [f"forward_all@{chunk} {_sha(adapt.forward_all(params, frames, chunk))}" for chunk in CHUNKS]
    lines.append(f"stem_conv {_sha(model.stem_conv(params, frames))}")
    for method in ("tempt", "tent"):
        cfg = adapt.AdaptConfig(method=method, steps=ADAPT_STEPS, lr=1e-3)
        adapted, report = adapt.adapt_video(params, frames, cfg)
        lines.append(f"adapt_{method}.logits_after {_sha(report.logits_after)}")
        lines.append(f"adapt_{method}.params {_sha(model.save_weights(adapted))}")
    labels = rng.permutation(np.arange(FRAMES) % spec.num_classes)
    result = training.train(spec, FrameDataset(frames, labels), training.TrainConfig(epochs=1))
    lines.append(f"pretrain_epoch.weights {_sha(model.save_weights(result.params))}")
    batch, batch_labels = frames[:STEP_BATCH], labels[:STEP_BATCH]
    train_leaves = params.copy().leaves()  # a copy: train mode moves the running statistics
    z = model.forward(params, batch, mode="train", leaves=train_leaves)
    lines.append(f"train_step.grads {_grads_sha(train_leaves, losses.cross_entropy(z, batch_labels))}")
    adapt_leaves = params.leaves(trainable=set(params.names_in_group(model.GROUP_BN_AFFINE)))
    z = model.forward(params, batch, mode="eval", leaves=adapt_leaves)
    lines.append(f"adapt_step.grads {_grads_sha(adapt_leaves, losses.entropy_loss(z))}")
    resolved = json.dumps(config.resolved_dict(config.load_config(DEFAULT_CONFIG)), sort_keys=True)
    lines.append(f"config.default {_sha(resolved.encode())}")
    return lines


if __name__ == "__main__":
    print(f"openblas core: {blas_core()}", file=sys.stderr)
    print("\n".join(digest_lines(model.ModelSpec())))
