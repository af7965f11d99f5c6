"""Per-layer tracing of the tempt package, applied from outside it.

``Tracer.install`` replaces the public functions of each ``src/tempt``
module with timing wrappers (module attributes, plus the names other tempt
modules imported with ``from ... import``), and ``Tracer.remove`` puts every
original back. Nothing in ``src/`` changes. Spans are kept in memory:
a span's *self* time is its duration minus that of the wrapped calls made
inside it. The backward time of a tensor op comes from wrapping the
``node.backward_fn`` of each tensor the op returns, so it is a span inside
``tensor.backward``; that call's self time is the tape walk itself (graph
order, finite checks of each gradient, accumulation).

In a ``run_benchmark`` call the tasks run in spawned workers. The tracer
swaps ``benchmark._run_task`` for ``traced_run_task``, which traces one
task in the worker, removes its wrappers again and returns its spans with
the row; the parent merges them and strips them from the rows.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import defaultdict

import numpy as np

from tempt import adapt, benchmark, data, losses, model, optim, temporal, training
from tempt import tensor as T

TENSOR_OPS = (
    "conv2d",
    "batchnorm2d",
    "relu",
    "matmul",
    "global_avg_pool",
    "tensor_binop",
    "div",
    "exp",
    "log",
    "sqrt",
    "tensor_sum",
    "tensor_mean",
    "take_rows",
)
BINOPS = ("tensor_binop", "div")

# ROADMAP direction 1 baseline, batch 128, single-thread BLAS: ms fwd, bwd(dx)
ROADMAP_BATCH128_MS = {
    "stem.conv.w": (24.3, None),
    "stage0.block0.conv1.w": (22.5, 22.4),
    "stage0.block0.conv2.w": (17.0, 17.0),
    "stage0.block0.proj.w": (1.4, 2.6),
    "stage1.block0.conv1.w": (4.7, 5.8),
    "stage1.block0.conv2.w": (9.2, 11.4),
    "stage2.block0.conv1.w": (2.8, 3.8),
    "stage2.block0.conv2.w": (5.3, 8.1),
    "all convs": (87.0, 71.0),
    "stem.bn (eval, 16x32x32)": (6.9, 4.2),
}

def _span_stats():
    return [0, 0.0, 0.0]  # calls, inclusive s, self s


def _kernel_stats():
    return [0, 0.0, 0, 0.0]  # fwd calls, fwd s, bwd calls, bwd s


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(_span_stats)
        self.counts: dict[str, float] = defaultdict(float)
        self.kernels: dict[str, list] = defaultdict(_kernel_stats)
        self.passes: set[str] = set()  # distinct (frames, params) pairs seen by forward_all
        self._open: list[float] = []  # child time of each span in progress
        self._patches: list[tuple[object, str, object]] = []
        self._removed: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _run(self, name: str, fn, args, kwargs):
        """``fn(*args, **kwargs)`` inside a span; returns (result, seconds)."""
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            span = self.spans[name]
            span[0] += 1
            span[1] += dt
            span[2] += dt - child
            if self._open:
                self._open[-1] += dt
        return out, dt

    def _span(self, name, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self._run(name, fn, args, kwargs)[0]
                if after is not None:
                    after(out)
                return out

            return wrapper

        return make

    # -- tensor ops ---------------------------------------------------------

    def _op(self, op: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out, dt = self._run(f"tensor.{op}", fn, args, kwargs)
                key, bwd_flops, bwd_bytes = None, 0, 0
                if op == "conv2d":
                    key, bwd_flops, bwd_bytes = self._conv_cost(args[0], args[1], out)
                elif op == "batchnorm2d":
                    mode = kwargs.get("mode", args[6] if len(args) > 6 else "eval")
                    key = f"batchnorm2d:{args[1].name}@{args[0].shape[0]}:{mode}"
                if key is not None:
                    self.kernels[key][0] += 1
                    self.kernels[key][1] += dt
                if out.node is not None:
                    out.node.backward_fn = self._bwd(op, out.node.backward_fn, key, bwd_flops, bwd_bytes)
                return out

            return wrapper

        return make

    def _conv_cost(self, x, kernel, out):
        """Count ops and computed bytes; returns (key, bwd flops, bwd bytes).

        Computed, not measured: a conv is one (M x K) @ (K x F) matmul over
        the im2col matrix, M = N*OH*OW and K = C*kh*kw. Bytes are float32
        traffic of the input, kernel and output, plus writing and reading
        the im2col (or, backward, col2im) matrix once.
        """
        n, c, h, w = x.shape
        f, _, kh, kw = kernel.shape
        m = n * out.shape[2] * out.shape[3]
        k = c * kh * kw
        x_el, w_el, y_el, cols_el = n * c * h * w, f * k, m * f, m * k
        self.counts["tensor.conv2d.fwd_gflop"] += 2 * m * k * f / 1e9
        self.counts["tensor.conv2d.fwd_mb"] += 4 * (x_el + w_el + y_el + 2 * cols_el) / 1e6
        flops = nbytes = 0
        if x.requires_grad:  # dx: dcols = g @ W, then col2im
            flops += 2 * m * k * f
            nbytes += 4 * (y_el + w_el + 2 * cols_el + x_el)
        if kernel.requires_grad:  # dw: g^T @ saved cols
            flops += 2 * m * k * f
            nbytes += 4 * (y_el + cols_el + w_el)
        return f"conv2d:{kernel.name}@{n}", flops, nbytes

    def _bwd(self, op, fn, key, flops, nbytes):
        def backward_fn(g):
            out, dt = self._run(f"tensor.{op}.bwd", fn, (g,), {})
            self.counts["tensor.backward.nodes"] += 1
            if key is not None:
                self.kernels[key][2] += 1
                self.kernels[key][3] += dt
            if op == "conv2d":
                self.counts["tensor.conv2d.bwd_gflop"] += flops / 1e9
                self.counts["tensor.conv2d.bwd_mb"] += nbytes / 1e6
            return out

        return backward_fn

    # -- model, adapt, training, benchmark -----------------------------------

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(params, batch, *args, **kwargs):
            mode = kwargs.get("mode", args[0] if args else "eval")
            leaves = kwargs.get("leaves", args[1] if len(args) > 1 else None)
            tracked = leaves is not None and any(t.requires_grad for t in leaves.values())
            name = f"model.forward[{'tracked' if tracked else 'untracked'},{mode}]"
            self.counts[f"{name}.frames"] += batch.shape[0]
            return self._run(name, fn, (params, batch) + args, kwargs)[0]

        return wrapper

    def _forward_all(self, fn):
        @functools.wraps(fn)
        def wrapper(params, frames, *args, **kwargs):
            self.passes.add(self._run("trace.pass_digest", _pass_digest, (params, frames), {})[0])
            self.counts["adapt.forward_all.frames"] += frames.shape[0]
            return self._run("adapt.forward_all", fn, (params, frames) + args, kwargs)[0]

        return wrapper

    def _run_benchmark(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            per_video = sum(1 if m == "none" else a["repeats"] for m in a["methods"])
            self.counts["benchmark.tasks_attempted"] += len(a["videos"]) * per_video
            result, dt = self._run("benchmark.run_benchmark", fn, args, kwargs)
            payloads = {}
            for row in result.rows:  # replicated "none" rows share one payload
                payload = row.pop("_trace", None)
                if payload is not None:
                    payloads[id(payload)] = payload
            for payload in payloads.values():
                self.merge(payload)
            self.counts["benchmark.tasks_succeeded"] += len(payloads)
            self.counts["benchmark.worker_s"] += a["jobs"] * dt
            return result

        return wrapper

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, worker: bool = False) -> "Tracer":
        self._removed = []
        span = self._span

        def steps_of_report(out):
            self.counts["adapt.adapt_video.steps"] += len(out[1].loss_trace)

        def steps_of_train(out):
            self.counts["training.train.steps"] += len(out.step_losses)

        for op in TENSOR_OPS:
            self._patch(T, op, self._op(op))
        self._patch(T, "backward", span("tensor.backward"))
        self._patch(model, "forward", self._forward)
        self._patch(model, "build_model", span("model.build_model"))
        self._patch(model.ModelParams, "copy", span("model.ModelParams.copy"))
        self._patch(model.ModelParams, "leaves", span("model.ModelParams.leaves"))
        self._patch(adapt, "forward_all", self._forward_all)
        self._patch(adapt, "trainable_subset", span("adapt.trainable_subset"))
        for owner in (adapt, benchmark):
            self._patch(owner, "adapt_video", span("adapt.adapt_video", after=steps_of_report))
        for name in ("ldam_loss", "cross_entropy", "entropy_loss", "temporal_consistency_loss"):
            self._patch(losses, name, span(f"losses.{name}"))
        for name in ("median_filter", "select_regions", "normalized_changes"):
            self._patch(temporal, name, span(f"temporal.{name}"))
        for owner in (optim, adapt, training):
            self._patch(owner, "adamw_step", span("optim.adamw_step"))
        self._patch(training, "train", span("training.train", after=steps_of_train))
        for owner in (data, benchmark):
            self._patch(owner, "make_videos", span("data.make_videos"))
        if not worker:
            self._patch(benchmark, "run_benchmark", self._run_benchmark)
            if hasattr(benchmark, "_run_task"):
                self._patch(benchmark, "_run_task", lambda original: traced_run_task)
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            self._removed.append((owner, attr, original))

    def wrappers_left(self) -> int:
        """Patched attributes that do not hold their original any more."""
        return sum(getattr(o, a) is not orig for o, a, orig in self._removed) + len(self._patches)

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "kernels": {k: list(v) for k, v in self.kernels.items()},
            "passes": sorted(self.passes),
        }

    def merge(self, payload: dict) -> None:
        for table, into in ((payload["spans"], self.spans), (payload["kernels"], self.kernels)):
            for key, values in table.items():
                into[key] = [a + b for a, b in zip(into[key], values)]
        for key, value in payload["counts"].items():
            self.counts[key] += value
        self.passes.update(payload["passes"])


def _pass_digest(params, frames) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(frames).data)
    for name in params.names():
        h.update(params[name].array.tobytes())
    return h.hexdigest()


def traced_run_task(args):
    """Stand-in for ``benchmark._run_task`` in the workers of a traced sweep.

    Traces the one task and returns its spans with the row under ``_trace``.
    """
    tracer = Tracer().install(worker=True)
    t0 = time.perf_counter()
    try:
        row = benchmark._run_task(args)
    finally:
        tracer.remove()
    tracer.counts["benchmark.task_s"] += time.perf_counter() - t0
    return {**row, "_trace": tracer.export()}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics: ``<span>.calls/.ms/.self_ms`` plus derived ones."""
    out: dict[str, float] = {}
    for name, (calls, incl, self_s) in sorted(tracer.spans.items()):
        out[f"{name}.calls"] = calls
        out[f"{name}.ms"] = incl * 1e3
        out[f"{name}.self_ms"] = self_s * 1e3
    out.update(sorted(tracer.counts.items()))

    def ms(name: str) -> float:
        return out.get(f"{name}.ms", 0.0)

    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
        out[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
        out[f"tensor.{op}.total_ms"] = ms(f"tensor.{op}") + ms(f"tensor.{op}.bwd")
    for part in ("fwd_ms", "bwd_ms", "total_ms"):
        out[f"tensor.binops.{part}"] = sum(out[f"tensor.{op}.{part}"] for op in BINOPS)
    out["tensor.backward.walk_ms"] = out.get("tensor.backward.self_ms", 0.0)
    backward_ms = ms("tensor.backward")
    out["tensor.backward.walk_share"] = out["tensor.backward.walk_ms"] / backward_ms if backward_ms else 0.0
    forwards = [n for n in tracer.spans if n.startswith("model.forward[")]
    out["model.forward.calls"] = sum(tracer.spans[n][0] for n in forwards)
    out["model.forward.ms"] = sum(tracer.spans[n][1] for n in forwards) * 1e3
    calls = out.get("adapt.forward_all.calls", 0)
    out["adapt.forward_all.distinct_passes"] = len(tracer.passes)
    out["adapt.forward_all.dup_ratio"] = len(tracer.passes) / calls if calls else 0.0
    worker_s = out.get("benchmark.worker_s", 0.0)
    out["benchmark.worker_busy_ratio"] = out.get("benchmark.task_s", 0.0) / worker_s if worker_s else 0.0
    return out


def kernel_table(tracer: Tracer) -> dict[str, dict]:
    """Mean ms per call of each conv / batch-norm, keyed by parameter and batch."""
    table = {}
    for key, (fc, fs, bc, bs) in sorted(tracer.kernels.items()):
        table[key] = {
            "fwd_calls": fc,
            "fwd_ms": fs * 1e3 / fc if fc else None,
            "bwd_calls": bc,
            "bwd_ms": bs * 1e3 / bc if bc else None,
        }
    return table


def batch128_comparison(table: dict[str, dict]) -> dict[str, dict]:
    """Per-conv fwd/bwd at batch 128 next to the ROADMAP direction 1 figures."""
    rows = {}
    for name, (ref_fwd, ref_bwd) in ROADMAP_BATCH128_MS.items():
        if name == "all convs":
            convs = [r for n, r in rows.items() if n.endswith(".w")]
            fwd = sum(r["fwd_ms"] or 0.0 for r in convs) if convs else None
            bwd = sum(r["bwd_ms"] or 0.0 for r in convs) if convs else None
        else:
            key = "batchnorm2d:stem.bn.gamma@128:eval" if name.startswith("stem.bn") else f"conv2d:{name}@128"
            if key not in table:
                continue
            fwd, bwd = table[key]["fwd_ms"], table[key]["bwd_ms"]
        rows[name] = {"fwd_ms": fwd, "bwd_ms": bwd, "roadmap_fwd_ms": ref_fwd, "roadmap_bwd_ms": ref_bwd}
    return rows
