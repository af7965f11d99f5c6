"""Supervised pretraining of the CNN on the synthetic frame dataset."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import losses, model
from . import tensor as T
from .data import FrameDataset
from .errors import DivergedLoss, EmptyClass, NonFiniteValue
from .metrics import macro_f1
from .optim import AdamWConfig, AdamWState, adamw_step

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-3
    lr_step_epochs: int = 10
    lr_gamma: float = 0.1
    weight_decay: float = 1e-4
    margin_scale: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.margin_scale < 0:
            raise ValueError("margin_scale must be >= 0")


@dataclass
class TrainResult:
    params: model.ModelParams
    epoch_log: list[dict]  # epoch, loss, f1, lr
    step_losses: list[float]


def class_counts(dataset: FrameDataset, num_classes: int, margin_scale: float = 0.5) -> losses.ClassCounts:
    """Exact per-class frame counts; a class with zero samples is rejected."""
    if len(dataset) == 0:
        raise EmptyClass("empty dataset")
    counts = np.bincount(dataset.labels, minlength=num_classes)
    if counts.size > num_classes:
        raise EmptyClass(f"labels exceed num_classes={num_classes}")
    zero = np.flatnonzero(counts == 0)
    if zero.size:
        raise EmptyClass(f"classes with no samples: {zero.tolist()}")
    return losses.ClassCounts(tuple(int(c) for c in counts), margin_scale)


def train(spec: model.ModelSpec, dataset: FrameDataset, cfg: TrainConfig) -> TrainResult:
    """Minibatch AdamW over all trainable parameters with the margin loss.

    Batch norm runs in train mode (running statistics update with
    momentum 0.1), the learning rate follows a step-decay schedule, and
    everything is deterministic for a fixed seed.
    """
    cfg.validate()
    params = model.build_model(spec, cfg.seed)
    counts = class_counts(dataset, spec.num_classes, cfg.margin_scale)
    rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    state = AdamWState.for_params({n: params[n].array for n in params.names() if params[n].trainable})

    n = len(dataset)
    epoch_log: list[dict] = []
    step_losses: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (cfg.lr_gamma ** (epoch // cfg.lr_step_epochs))
        opt_cfg = AdamWConfig(lr, weight_decay=cfg.weight_decay)
        order = rng.permutation(n)
        epoch_losses: list[float] = []
        epoch_preds: list[np.ndarray] = []
        epoch_labels: list[np.ndarray] = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            batch = dataset.frames[idx]
            lab = dataset.labels[idx]
            leaves = params.leaves()
            try:
                z = model.forward(params, batch, mode="train", leaves=leaves)
                loss = losses.ldam_loss(z, lab, counts)
                named = T.grads_by_name(leaves, T.backward(loss))
                adamw_step({name: params[name].array for name in named}, named, state, opt_cfg)
            except NonFiniteValue as exc:
                raise DivergedLoss(f"epoch {epoch}: {exc}") from exc
            value = loss.item()
            step_losses.append(value)
            epoch_losses.append(value)
            epoch_preds.append(np.argmax(z.data, axis=1))
            epoch_labels.append(lab)
            del z, loss  # free this step's tape before the next forward records another

        f1 = macro_f1(np.concatenate(epoch_preds), np.concatenate(epoch_labels), spec.num_classes).macro_f1
        entry = {"epoch": epoch, "loss": float(np.mean(epoch_losses)), "f1": f1, "lr": lr}
        epoch_log.append(entry)
        log.info("epoch %d: loss %.4f, train macro-F1 %.3f, lr %.2e", epoch, entry["loss"], f1, lr)
    # the last update is never seen by a forward pass, so check it here
    blown = [name for name in params.names() if not np.isfinite(params[name].array).all()]
    if blown:
        raise DivergedLoss(f"non-finite parameters after training: {blown}")
    return TrainResult(params=params, epoch_log=epoch_log, step_losses=step_losses)
