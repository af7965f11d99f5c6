"""Temporal-consistency test-time adaptation for frame-wise video classifiers."""

__version__ = "0.1.0"

from .adapt import AdaptConfig, AdaptReport, adapt_video, isolate_check, trainable_subset
from .benchmark import BenchmarkConfig, make_split, run_benchmark
from .data import FrameDataset, Shift, ShiftRanges, SyntheticVideo, class_templates, generate_video
from .losses import (
    ClassCounts,
    cross_entropy,
    entropy_loss,
    jacobian_fd_approx,
    ldam_loss,
    temporal_consistency_loss,
)
from .metrics import EvalResult, evaluate_logits, macro_f1
from .model import ModelParams, ModelSpec, build_model, forward, load_weights, save_weights
from .optim import AdamWConfig, AdamWState, adamw_step
from .temporal import Region, count_decision_changes, median_filter, normalized_changes, select_regions
from .tensor import Tensor, backward, conv2d, matmul, tensor_binop
from .training import TrainConfig, class_counts, train

__all__ = [
    "AdaptConfig",
    "AdaptReport",
    "AdamWConfig",
    "AdamWState",
    "BenchmarkConfig",
    "ClassCounts",
    "EvalResult",
    "FrameDataset",
    "ModelParams",
    "ModelSpec",
    "Region",
    "Shift",
    "ShiftRanges",
    "SyntheticVideo",
    "Tensor",
    "TrainConfig",
    "adamw_step",
    "adapt_video",
    "backward",
    "build_model",
    "class_counts",
    "class_templates",
    "conv2d",
    "count_decision_changes",
    "cross_entropy",
    "entropy_loss",
    "evaluate_logits",
    "forward",
    "generate_video",
    "isolate_check",
    "jacobian_fd_approx",
    "ldam_loss",
    "load_weights",
    "macro_f1",
    "make_split",
    "matmul",
    "median_filter",
    "normalized_changes",
    "run_benchmark",
    "save_weights",
    "select_regions",
    "temporal_consistency_loss",
    "tensor_binop",
    "train",
    "trainable_subset",
]
