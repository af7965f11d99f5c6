"""A fixed numpy kernel that measures how fast the host is right now.

On a host whose cores other tenants share, speed can drift by 20% and
more over seconds to minutes (seen on a 2-core cloud VM). The probe runs
in a short window before the first call of the untraced loop and after
every call, for a fixed share of that call's wall. Each call is then divided by the
mean of the probe medians of the windows just before and just after it,
which cancels most of the host's drift while the call ran. The kernel
never changes with the package under test: it is numpy only, shaped like
the package's hot path (an im2col copy, a matmul and batch-norm/ReLU-like
passes over a batch of 32 16-channel 32x32 maps), about 20 ms a pass. Its
buffers (about 23 MB) are allocated once, so every workload's memory peak
carries the same constant share of them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FIRST_WINDOW_S = 0.2


class Probe:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self.x = rng.standard_normal((32, 16, 34, 34), dtype=np.float32)
        self.w = rng.standard_normal((16 * 3 * 3, 16), dtype=np.float32)
        # written on every pass, allocated once: no page faults while timing,
        # and a constant share of the process's memory peak
        self.cols = np.zeros((32, 32, 32, 16, 3, 3), dtype=np.float32)
        self.y = np.zeros((32 * 32 * 32, 16), dtype=np.float32)
        self.walls: list[float] = []  # every pass
        self.windows: list[float] = []  # median pass wall of each window

    def once(self) -> float:
        t0 = time.perf_counter()
        np.copyto(self.cols, sliding_window_view(self.x, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5))
        y = self.y
        np.matmul(self.cols.reshape(y.shape[0], -1), self.w, out=y)
        np.subtract(y, y.mean(axis=0), out=y)
        np.multiply(y, 0.5, out=y)
        np.maximum(y, 0.0, out=y)
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        return wall

    def first_window(self) -> None:
        """The window before the first call, when no call wall is known yet."""
        self.window(FIRST_WINDOW_S)

    def window(self, seconds: float) -> None:
        """Pass at least once, and again until ``seconds`` have passed; keep the median."""
        end = time.perf_counter() + seconds
        walls = [self.once()]
        while time.perf_counter() < end:
            walls.append(self.once())
        self.windows.append(statistics.median(walls))

    def around(self, i: int) -> float:
        """Probe time around call i: the mean of the windows before and after it."""
        return (self.windows[i] + self.windows[i + 1]) / 2
