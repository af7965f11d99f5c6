"""The four workloads: seeded set-up, the timed call, and its checks.

Each workload is a closed loop with one client: ``call(i, item)`` is one
operation against the tempt package, issued only after the previous one
returned. ``setup()`` makes the fixed inputs from the seed; ``item(i)``
gives call i its input, generated from ``(seed, i)`` before the timed
region where it is not made in set-up, so no two calls of a run see the
same video. The package sees only the generated videos, frames and
weights. ``check(i, item, result)`` returns (attempted, failed, problems)
for that operation and never runs inside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

import pinned
import weights
from tempt import adapt, benchmark, data, model, reference, training


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in params.names():
        h.update(name.encode())
        h.update(params[name].array.tobytes())
    return h.hexdigest()


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


class Workload:
    name = ""
    unit_item = "frames"  # what throughput counts
    uses_workers = False
    #: names under which the op wall (``<op_metric>_s_p50``) and throughput are reported
    op_metric = ""
    rate_metric = ""

    def __init__(self, cfg: pinned.Pinned, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.opts = cfg.workloads[self.name]

    def load_base(self):
        raw = weights.cache_path().read_bytes()
        base = model.load_weights(raw, self.cfg.spec)
        model.check_same_arch(base, model.build_model(self.cfg.spec, 0))
        return base

    def test_video(self, i: int):
        """Test-split video i of this seed: the same (seed, i) gives the same video."""
        master = int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])
        cfg = dataclasses.replace(self.cfg.bench, test_videos=1, master_seed=master)
        return benchmark.make_split(cfg, "test", self.cfg.spec.input_hw)[0]

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed call into the forward path, so first-use costs stay out."""

    def item(self, i: int):
        """Input of call i; made before the timed region."""
        return None

    def call(self, i: int, item):
        raise NotImplementedError

    def items(self, item) -> int:
        raise NotImplementedError

    def check(self, i: int, item, result) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def finish(self) -> tuple[int, list[str]]:
        """Checks over the whole run; returns (extra failed ops, problems)."""
        return 0, []

    def quality(self) -> dict[str, tuple[float, str]]:
        return {}


class VideoWorkload(Workload):
    """One call per test video: the first ``opts["videos"]`` made in set-up, the rest per call."""

    def setup(self) -> None:
        self.base = self.load_base()
        self.videos = [self.test_video(i) for i in range(self.opts["videos"])]

    def warmup(self) -> None:
        adapt.forward_all(self.base, self.videos[0].frames[:128])

    def item(self, i: int):
        return self.videos[i] if i < len(self.videos) else self.test_video(i)

    def items(self, item) -> int:
        return item.frames.shape[0]


class AdaptTempt(VideoWorkload):
    name = "adapt-tempt"
    op_metric = "adapt"
    rate_metric = "adapt_frames_per_s"

    def setup(self) -> None:
        super().setup()
        self.base_digest = params_digest(self.base)
        self.f1_after: list[float] = []
        self.f1_before: list[float] = []
        self.flicker_after: list[float] = []
        self.flicker_before: list[float] = []

    def call(self, i: int, video):
        return adapt.adapt_video(self.base, video.frames, self.cfg.adapt, labels=video.labels)

    def check(self, i: int, video, result) -> tuple[int, int, list[str]]:
        adapted, report = result
        shape = (self.items(video), self.cfg.spec.num_classes)
        problems = []
        if report.diagnostic is not None:
            problems.append(f"aborted: {report.diagnostic}")
        for label, logits in (("before", report.logits_before), ("after", report.logits_after)):
            if logits is None or logits.shape != shape or not _finite(logits):
                problems.append(f"logits {label}: not a finite {shape} array")
        if len(report.loss_trace) != self.cfg.adapt.steps or not _finite(np.asarray(report.loss_trace)):
            problems.append(f"loss trace {report.loss_trace}")
        leaks = adapt.isolate_check(self.base, adapted)
        if leaks:
            problems.append(f"isolate_check: {leaks}")
        if params_digest(self.base) != self.base_digest:
            problems.append("base parameters changed")
        if not problems:
            self.f1_before.append(report.f1_before)
            self.f1_after.append(report.f1_after)
            self.flicker_before.append(report.norm_changes_before)
            self.flicker_after.append(report.norm_changes_after)
        return 1, int(bool(problems)), problems

    def quality(self) -> dict[str, tuple[float, str]]:
        return _mean_quality(self.f1_before, self.f1_after, self.flicker_before, self.flicker_after)


class Infer(VideoWorkload):
    name = "infer"
    op_metric = "infer"
    rate_metric = "infer_frames_per_s"

    def setup(self) -> None:
        super().setup()
        self.arrays = {n: self.base[n].array for n in self.base.names()}
        self.max_diff = 0.0

    def call(self, i: int, video):
        return adapt.forward_all(self.base, video.frames)

    def check(self, i: int, video, result) -> tuple[int, int, list[str]]:
        frames = video.frames
        shape = (frames.shape[0], self.cfg.spec.num_classes)
        if result.shape != shape or not _finite(result):
            return 1, 1, [f"logits: not a finite {shape} array"]
        rng = np.random.Generator(np.random.PCG64((self.seed, i)))
        idx = np.sort(rng.choice(frames.shape[0], size=self.opts["reference_frames"], replace=False))
        ref = reference.forward_eval(self.arrays, self.cfg.spec, frames[idx])
        diff = float(np.max(np.abs(result[idx] - ref)))
        self.max_diff = max(self.max_diff, diff)
        if not diff <= self.opts["reference_atol"]:
            return 1, 1, [f"frames {idx.tolist()}: |logits - reference| = {diff} > {self.opts['reference_atol']}"]
        return 1, 0, []

    def quality(self) -> dict[str, tuple[float, str]]:
        return {"reference_max_abs_diff": (self.max_diff, "logit")}


class Pretrain(Workload):
    name = "pretrain"
    op_metric = "train"
    rate_metric = "train_frames_per_s"

    def setup(self) -> None:
        videos = benchmark.make_split(self.cfg.bench, "train", self.cfg.spec.input_hw)
        pool = data.FrameDataset.from_videos(videos)
        rng = np.random.Generator(np.random.PCG64((self.seed, 1)))
        per_class = self.opts["frames_per_class"]
        picks = []
        for c in range(self.cfg.spec.num_classes):
            members = np.flatnonzero(pool.labels == c)
            if members.size < per_class:
                raise pinned.SetupError(f"seed {self.seed}: class {c} has {members.size} < {per_class} train frames")
            picks.append(rng.choice(members, size=per_class, replace=False))
        idx = np.sort(np.concatenate(picks))
        self.dataset = data.FrameDataset(frames=pool.frames[idx], labels=pool.labels[idx])
        self.init = model.build_model(self.cfg.spec, self.cfg.train.seed)
        self.steps = math.ceil(len(self.dataset) / self.cfg.train.batch_size) * self.cfg.train.epochs
        self.first_digest = None
        self.final_loss: list[float] = []

    def warmup(self) -> None:
        model.forward(self.init, self.dataset.frames[: self.cfg.train.batch_size], mode="eval")

    def call(self, i: int, item):
        return training.train(self.cfg.spec, self.dataset, self.cfg.train)

    def items(self, item) -> int:
        return len(self.dataset) * self.cfg.train.epochs

    def check(self, i: int, item, result) -> tuple[int, int, list[str]]:
        problems = []
        if len(result.step_losses) != self.steps or not _finite(np.asarray(result.step_losses)):
            problems.append(f"{len(result.step_losses)} step losses, expected {self.steps} finite ones")
        params = result.params
        if not _finite(*(params[n].array for n in params.names())):
            problems.append("non-finite weights")
        stale = [
            n
            for n in params.names_in_group(model.GROUP_BN_STATS)
            if np.array_equal(params[n].array, self.init[n].array)
        ]
        if stale:
            problems.append(f"running statistics not updated: {stale}")
        digest = params_digest(params)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("same seed and data gave different weights")
        if not problems:
            self.final_loss.append(result.epoch_log[-1]["loss"])
        return 1, int(bool(problems)), problems

    def quality(self) -> dict[str, tuple[float, str]]:
        return {"train_loss_final": (float(np.median(self.final_loss)) if self.final_loss else math.nan, "loss")}


class Sweep(Workload):
    """``run_benchmark`` over one test video per call, a new video each call.

    Inside a call the video is re-run by every method and repeat; across
    calls no video repeats.
    """

    name = "sweep"
    unit_item = "tasks"
    uses_workers = True
    op_metric = "sweep"
    rate_metric = "sweep_tasks_per_s"

    def setup(self) -> None:
        self.base = self.load_base()
        self.first = [self.test_video(i) for i in range(self.opts["videos"])]
        self.methods = tuple(self.opts["methods"])
        self.repeats = self.cfg.bench.repeats
        self.tasks = len(self.first) * sum(1 if m == "none" else self.repeats for m in self.methods)
        self.first_rows = None
        self.quality_rows: list[dict] = []

    def warmup(self) -> None:
        adapt.forward_all(self.base, self.first[0].frames[:128])

    def item(self, i: int):
        if i == 0:
            return self.first
        return [self.test_video(i * len(self.first) + v) for v in range(len(self.first))]

    def run(self, jobs: int, videos, repeats: int):
        return benchmark.run_benchmark(
            self.base,
            videos,
            self.cfg.adapt,
            repeats=repeats,
            methods=self.methods,
            jobs=jobs,
            master_seed=self.seed,
        )

    def call(self, i: int, videos):
        return self.run(self.opts["jobs"], videos, self.repeats)

    def items(self, videos) -> int:
        return self.tasks

    def check(self, i: int, videos, result) -> tuple[int, int, list[str]]:
        problems = []
        expected = len(videos) * len(self.methods) * self.repeats
        rows = result.rows
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        fields = ("f1_before", "f1_after", "norm_changes_before", "norm_changes_after")
        bad = [r for r in rows if not all(isinstance(r[f], float) and math.isfinite(r[f]) for f in fields)]
        if bad:
            problems.append(f"{len(bad)} rows with non-finite metrics")
        if i == 0:
            self.first_rows = rows
        failed = self.tasks if problems else 0
        if not problems:
            self.quality_rows += rows
        return self.tasks, failed, problems

    def finish(self) -> tuple[int, list[str]]:
        """The first call's repeat-0 tasks again, in-process: --jobs must not change the math."""
        if self.first_rows is None:
            return 0, []
        local = self.run(1, self.first, 1).rows
        pooled = [r for r in self.first_rows if r["repeat"] == 0]
        if local != pooled:
            return len(local), [f"in-process rows {local} != pooled rows {pooled}"]
        return 0, []

    def quality(self) -> dict[str, tuple[float, str]]:
        tempt_rows = [r for r in self.quality_rows if r["method"] == "tempt"]
        return _mean_quality(
            [r["f1_before"] for r in tempt_rows],
            [r["f1_after"] for r in tempt_rows],
            [r["norm_changes_before"] for r in tempt_rows],
            [r["norm_changes_after"] for r in tempt_rows],
        )


def _mean_quality(f1_before, f1_after, flicker_before, flicker_after) -> dict[str, tuple[float, str]]:
    def mean(values):
        return float(np.mean(values)) if values else math.nan

    return {
        "macro_f1_before": (mean(f1_before), "f1"),
        "macro_f1_after": (mean(f1_after), "f1"),
        "flicker_before": (mean(flicker_before), "changes/frame"),
        "flicker_after": (mean(flicker_after), "changes/frame"),
    }


WORKLOADS = {w.name: w for w in (AdaptTempt, Infer, Pretrain, Sweep)}
