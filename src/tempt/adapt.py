"""Per-video test-time adaptation over the batch-norm affine subset.

The engine never mutates the caller's parameters: each run adapts a
private copy, keeps batch-norm in eval mode throughout (running
statistics frozen), and reports before/after logits and metrics.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses, model, temporal
from . import tensor as T
from .errors import NoAdaptableParams, NonFiniteValue
from .metrics import evaluate_logits
from .optim import AdamWConfig, AdamWState, adamw_step

log = logging.getLogger(__name__)

METHODS = ("none", "tent", "tempt")


@dataclass(frozen=True)
class AdaptConfig:
    method: str = "tempt"
    steps: int = 10
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    median_window: int = 11
    region_window: int = 32
    num_regions: int = 4
    batch_frames_cap: int = 128
    region_sample: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.median_window < 1 or self.median_window % 2 == 0:
            raise ValueError(f"median_window must be odd and >= 1, got {self.median_window}")
        if self.region_window < 2:
            raise ValueError(f"region_window must be >= 2, got {self.region_window}")
        if self.num_regions < 1:
            raise ValueError(f"num_regions must be >= 1, got {self.num_regions}")
        if self.batch_frames_cap < 1:
            raise ValueError("batch_frames_cap must be >= 1")

    def adamw(self) -> AdamWConfig:
        return AdamWConfig(self.lr, self.beta1, self.beta2, self.eps, self.weight_decay)


@dataclass
class AdaptReport:
    method: str
    f1_before: float | None
    f1_after: float | None
    norm_changes_before: float
    norm_changes_after: float
    loss_trace: list[float]
    regions: list[temporal.Region]
    config: AdaptConfig
    diagnostic: str | None = None
    target_checksum: str | None = None
    logits_before: np.ndarray | None = field(default=None, repr=False)
    logits_after: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        del doc["logits_before"], doc["logits_after"]
        return doc


def trainable_subset(params: model.ModelParams, method: str) -> list[str]:
    """Names the method is allowed to update: the bn_affine group only."""
    if method == "none":
        return []
    names = params.names_in_group(model.GROUP_BN_AFFINE)
    if not names:
        raise NoAdaptableParams("model has no batch-norm layers to adapt")
    return names


def forward_all(params: model.ModelParams, frames: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Untracked eval-mode logits for every frame, in fixed-size chunks."""
    outs = []
    for lo in range(0, frames.shape[0], chunk):
        z = model.forward(params, frames[lo : lo + chunk], mode="eval")
        outs.append(z.data)
    return np.concatenate(outs, axis=0)


def _round_robin_cap(regions: list[temporal.Region], cap: int) -> np.ndarray:
    """Frame indices for the step batch, truncated round-robin per region."""
    # round robin visits frames by (offset in region, region order), skipping exhausted regions
    order = sorted((f - r.start, ri, f) for ri, r in enumerate(regions) for f in range(r.start, r.end))
    return np.sort(np.asarray([f for _, _, f in order[:cap]], dtype=np.int64))


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def adapt_video(
    params: model.ModelParams,
    frames: np.ndarray,
    config: AdaptConfig,
    labels: np.ndarray | None = None,
) -> tuple[model.ModelParams, AdaptReport]:
    """Adapt a private copy of ``params`` to one video.

    tempt: one full pass produces the logit series, its median-filtered
    copy becomes the fixed target, and the high-flicker regions form the
    step batch; each step minimizes the squared distance to the target
    on those frames, updating bn_affine parameters only. tent minimizes
    prediction entropy over a fresh random frame batch per step. Both
    re-run the full sequence afterwards for the report.
    """
    config.validate()
    t_frames = frames.shape[0]
    if config.method == "tempt" and t_frames < 2:
        raise ValueError("tempt needs at least two frames")

    work = params.copy()
    chunk = config.batch_frames_cap
    y_before = forward_all(work, frames, chunk)
    k = y_before.shape[1]

    def finish(y_after: np.ndarray, loss_trace, regions, diagnostic=None, checksum=None) -> AdaptReport:
        f1_b = f1_a = None
        if labels is not None:
            f1_b = evaluate_logits(y_before, labels, k).macro_f1
            f1_a = evaluate_logits(y_after, labels, k).macro_f1
        return AdaptReport(
            method=config.method,
            f1_before=f1_b,
            f1_after=f1_a,
            norm_changes_before=temporal.normalized_changes(y_before),
            norm_changes_after=temporal.normalized_changes(y_after),
            loss_trace=loss_trace,
            regions=regions,
            config=config,
            diagnostic=diagnostic,
            target_checksum=checksum,
            logits_before=y_before,
            logits_after=y_after,
        )

    if config.method == "none" or config.steps == 0:
        return work, finish(y_before.copy(), [], [])

    subset = set(trainable_subset(work, config.method))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    opt_state = AdamWState.for_params({n: work[n].array for n in subset})
    adamw_cfg = config.adamw()

    # The stem kernel is never adapted, so its convolution runs once: over
    # tempt's fixed batch, or over the whole video for tent's per-step draws.
    regions: list[temporal.Region] = []
    target = None
    checksum = None
    if config.method == "tempt":
        target = temporal.median_filter(y_before, config.median_window)
        regions = temporal.select_regions(
            y_before, config.region_window, config.num_regions, rng=rng, sample=config.region_sample
        )
        batch_idx = _round_robin_cap(regions, config.batch_frames_cap)
        checksum = _checksum(target)
        batch_frames = frames[batch_idx]
        batch_stem = model.stem_conv(work, batch_frames)
    else:
        video_stem = model.stem_conv(work, frames)

    loss_trace: list[float] = []
    try:
        for _ in range(config.steps):
            if config.method == "tent":
                size = min(config.batch_frames_cap, t_frames)
                batch_idx = np.sort(rng.choice(t_frames, size=size, replace=False))
                batch_frames = frames[batch_idx]
                batch_stem = video_stem[:, batch_idx]  # (C0, N, H, W): frames on axis 1
            leaves = work.leaves(trainable=subset)
            z = model.forward(work, batch_frames, mode="eval", leaves=leaves, stem=batch_stem)
            if config.method == "tempt":
                loss = losses.temporal_consistency_loss(z, target[batch_idx])
            else:
                loss = losses.entropy_loss(z)
            named = T.grads_by_name(leaves, T.backward(loss))
            adamw_step({n: work[n].array for n in subset}, named, opt_state, adamw_cfg)
            loss_trace.append(loss.item())
            del z, loss  # free this step's tape before the next forward records another
        y_after = forward_all(work, frames, chunk)
    except NonFiniteValue as exc:
        log.warning("adaptation aborted after %d steps: %s", len(loss_trace), exc)
        fresh = params.copy()
        return fresh, finish(y_before.copy(), loss_trace, regions, diagnostic=str(exc), checksum=checksum)

    if config.method == "tempt" and checksum is not None:
        assert _checksum(target) == checksum, "median target drifted during adaptation"

    return work, finish(y_after, loss_trace, regions, checksum=checksum)


def isolate_check(before: model.ModelParams, after: model.ModelParams) -> list[str]:
    """Parameter-subset contract audit.

    Returns one violation string per entry outside bn_affine whose bytes
    changed; running-statistic drift is tagged 'stats-leak'. Expected
    empty after any adaptation run.
    """
    model.check_same_arch(before, after)
    violations: list[str] = []
    for name in before.names():
        ea, eb = before[name], after[name]
        if ea.group == model.GROUP_BN_AFFINE:
            continue
        if ea.array.tobytes() != eb.array.tobytes():
            tag = "stats-leak" if ea.group == model.GROUP_BN_STATS else "param-drift"
            violations.append(f"{tag}:{name}")
    return violations
