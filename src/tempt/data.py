"""Synthetic video benchmark generator.

Every video carries temporally coherent ground truth (piecewise-constant
labels, segments never shorter than ``min_segment``) and one fixed
photometric shift, so each video is its own small domain. Per-frame
noise plus a drifting patch position provide the within-video variation
that makes an uncalibrated model flicker.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidRange, LengthMismatch
from .tten import read_tten, write_tten

NUM_CLASSES = 8
DEFAULT_PATCH = 16
BACKGROUND = 0.25


def class_templates(patch: int = DEFAULT_PATCH) -> np.ndarray:
    """Eight procedural (3, patch, patch) patterns, distinct in color and shape."""
    axis = np.linspace(0.0, 1.0, patch, dtype=np.float64)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    rr = np.sqrt((yy - 0.5) ** 2 + (xx - 0.5) ** 2)

    patterns = [
        (yy * 4).astype(int) % 2,                     # horizontal stripes
        (xx * 4).astype(int) % 2,                     # vertical stripes
        ((yy * 4).astype(int) + (xx * 4).astype(int)) % 2,  # checkerboard
        (rr * 6).astype(int) % 2,                     # rings
        ((yy + xx) * 4).astype(int) % 2,              # diagonal stripes
        (rr < 0.3).astype(int),                       # center dot
        (xx > 0.5).astype(int),                       # half split
        ((np.abs(yy - 0.5) < 0.15) | (np.abs(xx - 0.5) < 0.15)).astype(int),  # cross
    ]
    fg = np.array(
        [
            [0.9, 0.15, 0.15],
            [0.15, 0.9, 0.15],
            [0.2, 0.3, 0.95],
            [0.9, 0.85, 0.1],
            [0.85, 0.2, 0.85],
            [0.15, 0.85, 0.85],
            [0.95, 0.95, 0.95],
            [0.95, 0.55, 0.1],
        ]
    )
    bg = np.array(
        [
            [0.15, 0.05, 0.05],
            [0.05, 0.15, 0.05],
            [0.05, 0.05, 0.2],
            [0.25, 0.2, 0.05],
            [0.2, 0.05, 0.2],
            [0.05, 0.2, 0.2],
            [0.2, 0.2, 0.2],
            [0.25, 0.12, 0.05],
        ]
    )
    out = np.empty((NUM_CLASSES, 3, patch, patch), dtype=np.float32)
    for i, pat in enumerate(patterns):
        out[i] = pat[None] * fg[i][:, None, None] + (1 - pat)[None] * bg[i][:, None, None]
    return out


@dataclass(frozen=True)
class Shift:
    """One video's photometric domain: y = gain_c * (contrast*(x-0.5) + 0.5 + brightness)."""

    brightness: float = 0.0
    contrast: float = 1.0
    channel_gain: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def is_identity(self) -> bool:
        return self.brightness == 0.0 and self.contrast == 1.0 and self.channel_gain == (1.0, 1.0, 1.0)

    def apply(self, frames: np.ndarray) -> np.ndarray:
        if self.is_identity():
            return np.asarray(frames, dtype=np.float32)
        gains = np.asarray(self.channel_gain, dtype=np.float32).reshape(1, 3, 1, 1)
        shifted = self.contrast * (frames - 0.5) + 0.5 + self.brightness
        return (gains * shifted).astype(np.float32)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Shift":
        return cls(d["brightness"], d["contrast"], tuple(d["channel_gain"]))


@dataclass(frozen=True)
class ShiftRanges:
    brightness: tuple[float, float] = (0.0, 0.0)
    contrast: tuple[float, float] = (1.0, 1.0)
    channel_gain: tuple[float, float] = (1.0, 1.0)

    def validate(self) -> None:
        for name, (lo, hi) in (
            ("brightness", self.brightness),
            ("contrast", self.contrast),
            ("channel_gain", self.channel_gain),
        ):
            if hi < lo:
                raise InvalidRange(f"{name} range has hi < lo: ({lo}, {hi})")
        if self.contrast[0] <= 0 or self.channel_gain[0] <= 0:
            raise InvalidRange("contrast and channel_gain must stay positive")

    def sample(self, rng: np.random.Generator) -> Shift:
        self.validate()
        return Shift(
            brightness=float(rng.uniform(*self.brightness)),
            contrast=float(rng.uniform(*self.contrast)),
            channel_gain=tuple(float(rng.uniform(*self.channel_gain)) for _ in range(3)),
        )


@dataclass
class SyntheticVideo:
    frames: np.ndarray  # (T, 3, H, W) float32
    labels: np.ndarray  # (T,) int64
    segments: list[tuple[int, int, int]]  # (start, end, class)
    shift: Shift
    noise_sigma: float
    seed: int
    min_segment: int
    glitch_rate: float = 0.0
    glitch_scale: float = 6.0
    glitch_frames: tuple[int, ...] = ()


def _segment_labels(rng: np.random.Generator, t: int, min_segment: int, k: int):
    if t < 2 * min_segment:
        raise InvalidRange(f"T={t} must be >= 2*min_segment={2 * min_segment}")
    lengths: list[int] = []
    remaining = t
    while remaining >= 2 * min_segment:
        upper = min(2 * min_segment, remaining - min_segment)
        lengths.append(int(rng.integers(min_segment, upper + 1)))
        remaining -= lengths[-1]
    lengths.append(remaining)

    segments: list[tuple[int, int, int]] = []
    labels = np.empty(t, dtype=np.int64)
    prev = -1
    start = 0
    for length in lengths:
        p = np.full(k, 1.0 / k)
        if prev >= 0:
            p[prev] = 0.0
        p /= p.sum()
        cls = int(rng.choice(k, p=p))
        segments.append((start, start + length, cls))
        labels[start : start + length] = cls
        prev = cls
        start += length
    return labels, segments


def generate_video(
    templates: np.ndarray,
    t: int,
    hw: int,
    shift: Shift | ShiftRanges,
    noise_sigma: float,
    min_segment: int,
    seed: int,
    glitch_rate: float = 0.0,
    glitch_scale: float = 6.0,
) -> SyntheticVideo:
    """Render one fully seeded video.

    Each segment shows its class template at a position that random-walks
    smoothly across the canvas; the video's photometric shift is applied
    to every frame, then per-frame Gaussian noise. The noise is
    heavy-tailed when ``glitch_rate`` > 0: that fraction of frames gets
    ``glitch_scale`` times the base sigma, the momentary-corruption
    events (bad crops, compression bursts) that make a frame-wise model's
    predictions jump.
    """
    k, _, patch, _ = templates.shape
    if patch > hw:
        raise InvalidRange(f"template patch {patch} larger than canvas {hw}")
    if noise_sigma < 0:
        raise InvalidRange("noise_sigma must be >= 0")
    if not (0.0 <= glitch_rate <= 1.0):
        raise InvalidRange("glitch_rate must be in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    labels, segments = _segment_labels(rng, t, min_segment, k)
    concrete_shift = shift.sample(rng) if isinstance(shift, ShiftRanges) else shift

    span = hw - patch
    pos = rng.uniform(0, span, size=2)
    vel = rng.uniform(-1.0, 1.0, size=2)
    frames = np.full((t, 3, hw, hw), BACKGROUND, dtype=np.float32)
    for ti in range(t):
        vel = np.clip(vel + rng.normal(0.0, 0.3, size=2), -1.5, 1.5)
        pos = pos + vel
        for d in range(2):
            if pos[d] < 0:
                pos[d] = -pos[d]
                vel[d] = -vel[d]
            elif pos[d] > span:
                pos[d] = 2 * span - pos[d]
                vel[d] = -vel[d]
        pos = np.clip(pos, 0, span)
        r, c = int(round(pos[0])), int(round(pos[1]))
        frames[ti, :, r : r + patch, c : c + patch] = templates[labels[ti]]

    frames = concrete_shift.apply(frames)
    glitched: tuple[int, ...] = ()
    if glitch_rate > 0:
        glitched = tuple(int(i) for i in np.flatnonzero(rng.uniform(size=t) < glitch_rate))
    if noise_sigma > 0:
        sigma_t = np.full(t, noise_sigma, dtype=np.float32)
        if glitched:
            sigma_t[list(glitched)] *= glitch_scale
        frames = frames + (rng.standard_normal(frames.shape).astype(np.float32) * sigma_t[:, None, None, None])
    return SyntheticVideo(
        frames=frames.astype(np.float32),
        labels=labels,
        segments=segments,
        shift=concrete_shift,
        noise_sigma=noise_sigma,
        seed=seed,
        min_segment=min_segment,
        glitch_rate=glitch_rate,
        glitch_scale=glitch_scale,
        glitch_frames=glitched,
    )


def make_videos(
    n: int,
    t: int,
    hw: int,
    ranges: ShiftRanges,
    noise_sigma: float,
    min_segment: int,
    master_seed,
    templates: np.ndarray,
    glitch_rate: float = 0.0,
    glitch_scale: float = 6.0,
) -> list[SyntheticVideo]:
    """A split of n videos with per-video seeds derived from one master seed."""
    seeds = np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint32)
    return [
        generate_video(
            templates,
            t,
            hw,
            ranges,
            noise_sigma,
            min_segment,
            int(s),
            glitch_rate=glitch_rate,
            glitch_scale=glitch_scale,
        )
        for s in seeds
    ]


@dataclass
class FrameDataset:
    """Flat frame-level view of a video list, for supervised pretraining."""

    frames: np.ndarray  # (N, 3, H, W)
    labels: np.ndarray  # (N,)

    @classmethod
    def from_videos(cls, videos: list[SyntheticVideo]) -> "FrameDataset":
        return cls(
            frames=np.concatenate([v.frames for v in videos], axis=0),
            labels=np.concatenate([v.labels for v in videos], axis=0),
        )

    def __len__(self) -> int:
        return self.frames.shape[0]


def save_video(path: str | Path, video: SyntheticVideo) -> None:
    """TTEN tensor plus a JSON sidecar next to it."""
    path = Path(path)
    write_tten(path, video.frames)
    sidecar = {
        "labels": [int(v) for v in video.labels],
        "segments": [[int(a), int(b), int(c)] for a, b, c in video.segments],
        "shift": video.shift.to_json_dict(),
        "noise_sigma": video.noise_sigma,
        "seed": video.seed,
        "min_segment": video.min_segment,
        "glitch_rate": video.glitch_rate,
        "glitch_scale": video.glitch_scale,
        "glitch_frames": list(video.glitch_frames),
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def load_video(path: str | Path) -> SyntheticVideo:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    for p in (path, sidecar_path):
        if not p.is_file():
            raise ConfigError(f"video file not found: {p}")
    frames = read_tten(path)
    try:
        sidecar = json.loads(sidecar_path.read_text())
        labels = np.asarray(sidecar["labels"], dtype=np.int64)
        if labels.shape != frames.shape[:1]:
            raise LengthMismatch(f"{labels.size} labels for {frames.shape[0]} frames in {sidecar_path}")
        return SyntheticVideo(
            frames=frames.astype(np.float32),
            labels=labels,
            segments=[tuple(s) for s in sidecar["segments"]],
            shift=Shift.from_json_dict(sidecar["shift"]),
            noise_sigma=sidecar["noise_sigma"],
            seed=sidecar["seed"],
            min_segment=sidecar["min_segment"],
            glitch_rate=sidecar.get("glitch_rate", 0.0),
            glitch_scale=sidecar.get("glitch_scale", 6.0),
            glitch_frames=tuple(sidecar.get("glitch_frames", [])),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed video sidecar {sidecar_path}: {type(exc).__name__}: {exc}") from exc
