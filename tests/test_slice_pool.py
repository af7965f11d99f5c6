"""The frame-slice pool: same bytes, the caller's context, every slice finished, errors in frame order, forks."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tempt import adapt, config, model
from tempt import tensor as T
from tempt.errors import NonFiniteActivation, NonFiniteValue

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FS = T.FRAME_SLICE
BATCH = 3 * FS + 5  # four conv slices, the last a partial one
BAD_FRAMES = [0, BATCH // 2, BATCH - 1]  # in the first, a middle and the last slice
CLIP = 3 * model.TRUNK_SLICE + 5  # four trunk slices of a tape-free forward, the last a partial one
BAD_CLIP_FRAMES = [0, CLIP // 2, CLIP - 1]  # in the first, a middle and the last trunk slice


def _meet_in_pairs(record):
    """A slice function that records each slice, then waits for a second drainer at a two-party barrier.

    It returns only when two threads run slices at once, so a run that
    completes proves that the caller and a pool helper both ran slices.
    """
    barrier = threading.Barrier(2, timeout=30)

    def run(frames, part):
        record(frames, part)
        barrier.wait()

    return run


def test_slices_run_on_the_pool_in_the_callers_context(pool, monkeypatch):
    # one helper, as a 2-CPU host has: every barrier pair is then the caller and that helper, never two helpers
    helper = ThreadPoolExecutor(1, thread_name_prefix="test-slice")
    monkeypatch.setattr(T, "_POOL", helper)
    seen = []

    def record(frames, part):
        seen.append((frames.start, part.start, np.geterr()["over"], threading.current_thread().name))

    try:
        with np.errstate(over="raise"):
            T.run_frame_slices(_meet_in_pairs(record), BATCH, FS, 2, 0)
    finally:
        helper.shutdown()
    assert sorted(s[:3] for s in seen) == [(lo, 2 * lo, "raise") for lo in range(0, BATCH, FS)]
    names = {s[3] for s in seen}
    assert threading.current_thread().name in names
    assert any(name.startswith("test-slice") for name in names)
    assert all(name == threading.current_thread().name or name.startswith("test-slice") for name in names)


def test_a_slice_runs_its_own_slices_inline(pool):
    # two outer slices on a two-thread pool: had they submitted their own slices, both would wait forever
    on_own_thread = []

    def outer(frames, part):
        me = threading.get_ident()
        T.run_frame_slices(lambda f, p: on_own_thread.append(threading.get_ident() == me), BATCH, FS, 1, 0)

    T.run_frame_slices(outer, 2 * FS, FS, 1, 0)
    assert on_own_thread == [True] * (2 * len(range(0, BATCH, FS)))


@pytest.mark.parametrize(
    "size,chunk,want",
    [(32, None, [(0, 32), (32, 53)]), (32, 24, [(0, 24), (24, 48), (48, 53)]), (16, 40, [(0, 16), (16, 32), (32, 40), (40, 53)])],
    ids=["no-chunk", "chunk-below-size", "chunk-above-size"],
)
def test_slices_take_the_callers_size_and_restart_at_every_chunk(size, chunk, want):
    seen = []
    T.run_frame_slices(lambda frames, part: seen.append((frames.start, frames.stop, part.start, part.stop)), BATCH, size, 3, 0, chunk=chunk)
    assert seen == [(lo, hi, 3 * lo, 3 * hi) for lo, hi in want]


def test_every_slice_finishes_before_the_first_failing_slice_raises(pool):
    done = []

    def work(frames, part):
        if frames.start in (FS, 3 * FS):
            raise ValueError(f"slice at {frames.start}")
        time.sleep(0.05)
        done.append(frames.start)

    with pytest.raises(ValueError, match=f"^slice at {FS}$"):
        T.run_frame_slices(work, 5 * FS, FS, 1, 0)
    assert sorted(done) == [0, 2 * FS, 4 * FS]


@pytest.mark.parametrize("bad", BAD_FRAMES, ids=["first", "middle", "last"])
def test_nan_in_one_slice_of_a_tape_conv_raises_at_its_batch_norm(pool, rng, bad):
    """The conv leaves its output unchecked; the batch norm it feeds, as every conv in the model does, names the NaN."""
    x = rng.standard_normal((4, BATCH, 8, 8)).astype(np.float32)
    x[:, bad, 3, 5] = np.nan
    kernel = T.Tensor(rng.standard_normal((6, 4, 3, 3)).astype(np.float32), requires_grad=True)
    bn = [T.Tensor(np.ones(6, dtype=np.float32), requires_grad=True), T.Tensor(np.zeros(6, dtype=np.float32), requires_grad=True)]
    stats = [T.Tensor(np.zeros(6, dtype=np.float32)), T.Tensor(np.ones(6, dtype=np.float32))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.conv2d(T.Tensor._unchecked(x, requires_grad=True), kernel, stride=1, pad=1)
        with pytest.raises(NonFiniteValue, match="^op 'batchnorm2d'"):
            T.batchnorm2d(out, *bn, *stats, mode="train", relu=True)


@pytest.mark.parametrize("chunk", [CLIP, 24], ids=["one-chunk", "chunk24"])
@pytest.mark.parametrize("bad", BAD_CLIP_FRAMES, ids=["first", "middle", "last"])
def test_overflow_in_one_slice_of_forward_all_raises_non_finite_activation(pool, tiny_params, rng, bad, chunk):
    """With 24-frame chunks the last bad frame sits in a later head chunk and in the last, partial trunk slice."""
    params = tiny_params.copy()
    params["stem.conv.w"].array[...] = 1.0  # a frame of 1e38 sums 27 of them past float32's range
    frames = rng.uniform(-1, 1, size=(CLIP, 3, 8, 8)).astype(np.float32)
    frames[bad] = 1e38
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow happens in a pool thread, under the forward's errstate
        with pytest.raises(NonFiniteActivation, match="^op 'batchnorm2d'"):  # the stem batch norm
            adapt.forward_all(params, frames, chunk=chunk)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_forward_all_to_the_same_bytes(pool, tiny_params, rng):
    frames = rng.uniform(-1, 1, size=(CLIP, 3, 8, 8)).astype(np.float32)
    want = adapt.forward_all(tiny_params, frames, chunk=CLIP).tobytes()  # the parent's pool threads now exist
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: only this thread survives the fork
        try:
            os.close(read_end)
            os.write(write_end, adapt.forward_all(tiny_params, frames, chunk=CLIP).tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    got, deadline = b"", time.monotonic() + 60
    try:
        while True:
            ready, _, _ = select.select([read_end], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the forked child's forward_all did not finish within 60 s")
            chunk = os.read(read_end, 1 << 16)
            if not chunk:
                break
            got += chunk
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    assert got == want


@pytest.mark.parametrize(
    "blas,cpus,threads",
    [(1, 2, 1), (1, 4, 3), (1, 1, None), (2, 2, None), (None, 2, None)],
    ids=["blas1-cpus2", "blas1-cpus4", "blas1-cpus1", "blas2-cpus2", "blas-unknown"],
)
def test_the_pool_takes_every_cpu_when_blas_runs_on_one_thread(monkeypatch, blas, cpus, threads):
    monkeypatch.setattr(T, "_blas_threads", lambda: blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(T, "_POOL", T._POOL)  # put back after the test
    T._start_pool()
    started = T._POOL
    if started is not None:
        started.shutdown()
    assert (started and started._max_workers) == threads


@pytest.mark.skipif(T.bundled_openblas() is None, reason="numpy runs on another BLAS")
@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_come_from_openblas_itself(threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS runs on at most one thread per CPU")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(SRC)}
    probe = "from tempt import tensor; print(tensor._blas_threads(), tensor._POOL is not None)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [str(threads), str(threads == 1 and len(os.sched_getaffinity(0)) > 1)]


def test_a_call_runs_on_the_pool_only_from_the_work_floor(pool, monkeypatch):
    monkeypatch.setattr(T, "POOL_MIN_MACS", 100 * FS)
    names = []

    def record(frames, part):
        names.append(threading.current_thread().name)

    T.run_frame_slices(record, BATCH, FS, 1, 99)
    assert names == [threading.current_thread().name] * 4
    names.clear()
    T.run_frame_slices(_meet_in_pairs(record), BATCH, FS, 1, 100)
    assert len(names) == 4 and any(name.startswith("test-slice") for name in names)


def test_a_conv_gives_the_multiply_adds_of_its_gemms(monkeypatch, rng):
    seen = []
    real = T.run_frame_slices
    monkeypatch.setattr(T, "run_frame_slices", lambda fn, n, size, per_frame, macs: seen.append(macs) or real(fn, n, size, per_frame, macs))
    x = T.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32), requires_grad=True)
    out = T.conv2d(x, T.Tensor(rng.standard_normal((6, 4, 3, 3)).astype(np.float32)), stride=2, pad=1)
    out.node.backward_fn(np.ones_like(out.data))
    assert seen == [6 * 4 * 9 * 4 * 4] * 2  # forward, then dx: F*C*kh*kw per output pixel, 4x4 pixels a frame


def test_the_work_floor_keeps_the_shipped_model_serial_and_pools_the_default_one():
    # per frame: stem 432*32^2, conv1 and conv2 2304*16^2, 4608*8^2 and 9216*8^2, 18432*4^2 and 36864*4^2,
    # proj 256*16^2, 512*8^2 and 2048*4^2; a mean over ten convs
    assert model._trunk_macs(model.ModelSpec()) == 3_522_560 // 10
    shipped = config.load_config(REPO / "configs" / "default.json").model
    assert FS * model._trunk_macs(shipped) < T.POOL_MIN_MACS <= FS * model._trunk_macs(model.ModelSpec())


def test_untracked_forward_gives_the_serial_bytes_on_the_pool(pool, tiny_params, rng, monkeypatch):
    frames = rng.uniform(-1, 1, size=(CLIP, 3, 8, 8)).astype(np.float32)
    pooled = model.forward(tiny_params, frames).data.tobytes()
    monkeypatch.setattr(T, "_POOL", None)
    assert model.forward(tiny_params, frames).data.tobytes() == pooled
