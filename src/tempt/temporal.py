"""Temporal signal machinery over (T, k) logit series.

A per-class 1-D median filter provides the low-pass target, argmax
decision changes quantify flicker, and a sliding-window scorer selects
the high-flicker regions that form the adaptation batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowTooLarge


@dataclass(frozen=True)
class Region:
    start: int
    end: int  # exclusive
    change_count: int


def median_filter(y: np.ndarray, window: int) -> np.ndarray:
    """Centered per-column running median with edge-inclusive reflect padding; ``window`` is odd (``AdaptConfig`` checks it)."""
    y = np.asarray(y)
    t = y.shape[0]
    if not (1 <= window <= 2 * t - 1):
        raise WindowTooLarge(f"window {window} outside [1, {2 * t - 1}] for T={t}")
    if window == 1:
        return y.copy()
    half = window // 2
    padded = np.pad(y, ((half, half), (0, 0)), mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=0)
    return np.median(windows, axis=-1).astype(y.dtype)


def decisions(y: np.ndarray) -> np.ndarray:
    """Argmax class per frame; ties go to the lowest class index."""
    return np.argmax(np.asarray(y), axis=1)


def flips(d: np.ndarray) -> np.ndarray:
    """Per frame transition of a decision sequence, whether the decision changes there."""
    return d[1:] != d[:-1]


def count_decision_changes(y: np.ndarray) -> int:
    return int(np.count_nonzero(flips(decisions(y))))


def change_rate(d: np.ndarray) -> float:
    """Changes per transition of a decision sequence; 0.0 for a single frame."""
    return int(np.count_nonzero(flips(d))) / (len(d) - 1) if len(d) > 1 else 0.0


def normalized_changes(y: np.ndarray) -> float:
    """``change_rate`` of a (T, k) series' decisions."""
    return change_rate(decisions(y))


def _window_scores(y: np.ndarray, window: int) -> np.ndarray:
    """Change count inside [s, s+window) for every start s, stride 1."""
    changes = flips(decisions(y))
    csum = np.concatenate(([0], np.cumsum(changes, dtype=np.int64)))
    starts = np.arange(len(y) - window + 1)
    # transitions inside the window are changes[s .. s+window-2]
    return csum[starts + window - 1] - csum[starts]


def select_regions(
    y: np.ndarray,
    window: int,
    num_regions: int,
    rng: np.random.Generator | None = None,
    sample: bool = False,
) -> list[Region]:
    """Pick disjoint high-flicker windows.

    Greedy by default: highest change count first, earlier start on
    ties, overlapping candidates skipped. With ``sample`` True the
    windows are drawn from ``rng`` proportionally to their change counts
    instead (uniformly when every count is zero), which is what gives
    repeated adaptation runs their spread.
    """
    y = np.asarray(y)
    t = y.shape[0]
    if t <= window:
        return [Region(0, t, count_decision_changes(y))]
    scores = _window_scores(y, window)

    chosen: list[Region] = []
    alive = np.ones(len(scores), dtype=bool)
    while len(chosen) < num_regions and alive.any():
        candidates = np.flatnonzero(alive)
        if sample:
            weights = scores[candidates].astype(np.float64)
            total = weights.sum()
            p = weights / total if total > 0 else None
            start = int(rng.choice(candidates, p=p))
        else:
            best = candidates[np.argmax(scores[candidates])]  # argmax: earliest of the tied
            start = int(best)
        chosen.append(Region(start, start + window, int(scores[start])))
        lo = max(0, start - window + 1)
        alive[lo : start + window] = False
    chosen.sort(key=lambda r: r.start)
    return chosen
