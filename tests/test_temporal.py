"""Median filter, flicker counting, and region selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempt import temporal
from tempt.errors import WindowTooLarge


def sort_oracle_median(y: np.ndarray, window: int) -> np.ndarray:
    """Naive per-window sort with the same edge-inclusive reflect padding."""
    half = window // 2
    padded = np.pad(y, ((half, half), (0, 0)), mode="symmetric")
    out = np.empty_like(y)
    for t in range(y.shape[0]):
        for c in range(y.shape[1]):
            seg = np.sort(padded[t : t + window, c])
            out[t, c] = seg[window // 2]
    return out


def test_median_window_one_identity(rng):
    y = rng.uniform(-1, 1, size=(7, 3)).astype(np.float32)
    out = temporal.median_filter(y, 1)
    assert np.array_equal(out, y)
    assert out is not y


def test_median_removes_single_outlier():
    col = np.array([1.0, 9.0, 1.0, 1.0, 1.0])[:, None]
    assert np.array_equal(temporal.median_filter(col, 3), np.ones((5, 1)))


def test_median_matches_sort_oracle(rng):
    for _ in range(100):
        t = int(rng.integers(2, 40))
        k = int(rng.integers(1, 6))
        window = int(rng.integers(0, (2 * t - 1) // 2 + 1)) * 2 + 1
        window = min(window, 2 * t - 1)
        y = rng.uniform(-5, 5, size=(t, k)).astype(np.float32)
        assert np.array_equal(temporal.median_filter(y, window), sort_oracle_median(y, window))


def test_median_window_validation():
    y = np.zeros((5, 2))
    with pytest.raises(WindowTooLarge):
        temporal.median_filter(y, 11)


def test_median_constant_series_any_window():
    y = np.full((6, 2), 3.5)
    for window in (1, 3, 5, 7, 9, 11):
        assert np.array_equal(temporal.median_filter(y, window), y)


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_median_second_pass_changes_less(seed, half_window):
    """Iterating the filter converges: pass two moves the signal no
    farther than pass one did."""
    window = 2 * half_window + 1
    rng = np.random.Generator(np.random.PCG64(seed))
    y = rng.uniform(-1, 1, size=(16, 2))
    once = temporal.median_filter(y, window)
    twice = temporal.median_filter(once, window)
    assert np.abs(once - twice).sum() <= np.abs(y - once).sum() + 1e-9


# ---------------------------------------------------------------------------
# decision changes


def test_changes_constant_argmax():
    y = np.tile(np.array([0.1, 0.9, 0.0]), (6, 1))
    assert temporal.count_decision_changes(y) == 0
    assert temporal.normalized_changes(y) == 0.0


def test_changes_alternating():
    y = np.zeros((5, 2))
    y[::2, 0] = 1.0
    y[1::2, 1] = 1.0
    assert temporal.count_decision_changes(y) == 4
    assert temporal.normalized_changes(y) == 1.0


def test_changes_single_frame():
    assert temporal.normalized_changes(np.zeros((1, 4))) == 0.0


def test_argmax_tie_breaks_low_index():
    y = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert temporal.count_decision_changes(y) == 0
    assert np.array_equal(temporal.decisions(y), [0, 0])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_normalized_changes_in_unit_interval(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    y = rng.uniform(-1, 1, size=(int(rng.integers(1, 30)), 4))
    assert 0.0 <= temporal.normalized_changes(y) <= 1.0


# ---------------------------------------------------------------------------
# region selection


def make_flicker_series(t, burst, k=4):
    """Argmax constant except alternating inside [burst0, burst1)."""
    y = np.zeros((t, k))
    y[:, 0] = 1.0
    for i, ti in enumerate(range(*burst)):
        y[ti] = 0.0
        y[ti, 1 + (i % 2)] = 2.0
    return y


def test_select_regions_zero_changes_earliest_first():
    y = np.zeros((100, 3))
    y[:, 0] = 1.0
    regions = temporal.select_regions(y, window=16, num_regions=3)
    assert [(r.start, r.end, r.change_count) for r in regions] == [(0, 16, 0), (16, 32, 0), (32, 48, 0)]


def test_select_regions_finds_burst():
    y = make_flicker_series(200, (40, 50))
    regions = temporal.select_regions(y, window=16, num_regions=1)
    assert len(regions) == 1
    r = regions[0]
    assert r.start <= 40 and 50 <= r.end

    # brute force: no window scores higher
    scores = temporal._window_scores(y, 16)
    assert r.change_count == scores.max()


def test_select_regions_disjoint(rng):
    for _ in range(50):
        t = int(rng.integers(20, 200))
        y = rng.uniform(-1, 1, size=(t, 5))
        window = int(rng.integers(2, 30))
        n = int(rng.integers(1, 6))
        regions = temporal.select_regions(y, window, n)
        assert len(regions) >= 1
        for a, b in zip(regions, regions[1:]):
            assert a.end <= b.start
        assert sum(r.end - r.start for r in regions) <= n * max(window, t)
        for r in regions:
            if r.end - r.start == window:
                assert r.change_count == temporal.count_decision_changes(y[r.start : r.end])


def test_select_regions_short_series_single_region():
    y = np.zeros((10, 2))
    regions = temporal.select_regions(y, window=16, num_regions=4)
    assert regions == [temporal.Region(0, 10, 0)]


def test_select_regions_sampling_seeded(rng):
    y = rng.uniform(-1, 1, size=(300, 4))
    r1 = temporal.select_regions(y, 32, 4, rng=np.random.Generator(np.random.PCG64(5)), sample=True)
    r2 = temporal.select_regions(y, 32, 4, rng=np.random.Generator(np.random.PCG64(5)), sample=True)
    r3 = temporal.select_regions(y, 32, 4, rng=np.random.Generator(np.random.PCG64(6)), sample=True)
    assert r1 == r2
    assert r1 != r3
    for regions in (r1, r3):
        for a, b in zip(regions, regions[1:]):
            assert a.end <= b.start
