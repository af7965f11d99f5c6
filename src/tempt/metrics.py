"""Frame-level evaluation: confusion matrix, macro-F1, flicker rate."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LabelOutOfRange
from .temporal import change_rate


@dataclass
class EvalResult:
    macro_f1: float
    per_class_f1: list[float]
    norm_changes: float
    confusion: np.ndarray  # [true, pred] counts

    def to_json_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def check_labels(labels: np.ndarray, k: int) -> None:
    """Every entry of ``labels`` is a class index in [0, k)."""
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfRange(f"labels outside [0,{k})")


def macro_f1(preds, labels, k: int) -> EvalResult:
    """Unweighted mean of per-class F1 over all k classes.

    Classes absent from both predictions and ground truth score 0 and
    still count toward the average; every 0/0 ratio is defined as 0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    check_labels(labels, k)

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)

    return EvalResult(
        macro_f1=float(f1.mean()),
        per_class_f1=[float(v) for v in f1],
        norm_changes=change_rate(preds),
        confusion=confusion,
    )


def evaluate_logits(logits: np.ndarray, labels, k: int) -> EvalResult:
    """Argmax the (T, k) series and score it."""
    return macro_f1(np.argmax(logits, axis=1), labels, k)
