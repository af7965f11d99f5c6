"""Benchmark of the tempt package: one workload per run.

    python3 perfbench/run.py --workload adapt-tempt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It imports ``tempt`` from ``src/``,
builds the pinned weights once into ``.bench_build/`` if they are
missing (and then measures in a fresh child process), sets the workload
up from ``--seed`` several times (reporting the median set-up time),
then runs the workload's operation in a closed loop for ``--seconds``
and checks every result. After each call of the untraced loop it times
the host-speed probe (``probe.py``); the gated call timings are in units
of the probe's wall around each call, so that the host's drift cancels. With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the loop runs once traced and once untraced over the same
operations, and the last line carries the per-layer metrics. Their
names and units are the ones ``BENCHMARK.json`` declares. Earlier lines
print every metric by name and unit, the environment and the resolved
config.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pinned


def manifest() -> dict:
    """BENCHMARK.json: the one list of metric names and units."""
    path = pinned.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise pinned.SetupError(f"no {path.name} at {pinned.ROOT}")
    return json.loads(path.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in pinned.THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pinned.ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(pinned.ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With fewer than 11 samples no percentile has ten beyond it; the
    maximum (p100) is reported instead and the output says so.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


class Loop:
    """Closed loop: one client, the next call issued when the last returned.

    With a probe, a probe window runs before the first call and after
    each call, for ``share`` of that call's wall.
    """

    def __init__(self, workload, tracer=None, probe=None, share=0.0):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.share = share
        self.walls: list[float] = []
        self.items: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, i: int) -> None:
        wl = self.workload
        item = wl.item(i)
        if self.probe is not None and not self.probe.windows:
            self.probe.first_window()
        if self.tracer is not None:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            result = wl.call(i, item)
        except Exception as exc:  # a failed operation, counted; the run goes on
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome = (1, 1, [f"call {i} raised {type(exc).__name__}: {exc}"])
        else:
            wall = time.perf_counter() - t0
            outcome = None
        finally:
            if self.tracer is not None:
                self.tracer.remove()
        if self.probe is not None:
            self.probe.window(self.share * wall)
        if outcome is None:
            outcome = wl.check(i, item, result)
        attempted, failed, problems = outcome
        self.walls.append(wall)
        self.items.append(wl.items(item))
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{wl.name} call {i}: {p}" for p in problems]


def run_for(seconds: float, *loops: Loop) -> None:
    """Issue call i on each loop in turn, while the next round should end within ``seconds``.

    Traced runs pass a traced and an untraced loop, so each call runs in
    both modes back to back and drift over the run hits both alike.
    """
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start + sum(statistics.median(lp.walls) for lp in loops) <= seconds:
        for loop in loops:
            loop.one(i)
        i += 1


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS; with workers, plus workers x the largest child's peak (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * children) / 1024.0


def layer_unit(name: str) -> str:
    for suffix, unit in (("ms", "ms"), ("_s", "s"), ("gflop", "GFLOP"), ("_mb", "MB"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def emit(name: str, value, unit: str) -> None:
    print(f"metric {name} = {value} {unit}")


def set_up(wl, run: dict, tracer) -> list[float]:
    """Set the workload up repeatedly; returns the timed walls.

    One untimed set-up goes first (first-use costs), then timed ones until
    there are ``setup_reps`` of them and they add up to ``setup_min_s``.
    A traced run traces one more, untimed.
    """
    wl.setup()
    walls: list[float] = []
    while len(walls) < run["setup_reps"] or sum(walls) < run["setup_min_s"]:
        t0 = time.perf_counter()
        wl.setup()
        walls.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.remove()
    return walls


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    pinned.pin_threads()
    pinned.import_tempt()
    declared = manifest()

    import probe
    import tracing
    import weights
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise pinned.SetupError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cfg = pinned.load(args.seed)
    if weights.ensure_weights():
        # measure in a fresh process: this one has waited for the build,
        # whose memory peak would count in RUSAGE_CHILDREN
        return subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv]).returncode

    wl = workloads.WORKLOADS[args.workload](cfg, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_walls = set_up(wl, cfg.run, tracer)
    wl.warmup()

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("config " + json.dumps(pinned.resolved(cfg), sort_keys=True))

    # end-to-end figures come from untraced calls only
    host = probe.Probe()
    timed = Loop(wl, probe=host, share=cfg.run["probe_share"])
    loops = [timed] if tracer is None else [Loop(wl, tracer), timed]
    run_for(args.seconds, *loops)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    problems = [p for lp in loops for p in lp.problems]
    extra_failed, extra_problems = wl.finish()
    failed += extra_failed
    problems += extra_problems
    if tracer is not None and tracer.wrappers_left():
        problems.append(f"{tracer.wrappers_left()} trace wrappers left in place")

    walls = timed.walls
    tail_s, tail_pct = tail(walls)
    workers = wl.opts.get("jobs", 0) if wl.uses_workers else 0
    in_refs = [wall / host.around(i) for i, wall in enumerate(walls)]
    rate_base = wl.rate_metric.removesuffix("_per_s")
    named = {
        "setup_s": (statistics.median(setup_walls), "s"),
        f"{wl.op_metric}_s_p50": (statistics.median(walls), "s"),
        f"{wl.op_metric}_s_tail": (tail_s, "s"),
        wl.rate_metric: (sum(timed.items) / sum(walls), f"{wl.unit_item}/s"),
        "probe_s_p50": (statistics.median(host.walls), "s"),
        f"{wl.op_metric}_ref_p50": (statistics.median(in_refs), "ref"),
        f"{rate_base}_per_ref": (sum(timed.items) / sum(in_refs), f"{wl.unit_item}/ref"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
        "error_rate": (failed / attempted, "ratio"),
        **wl.quality(),
    }
    for name, (value, unit) in named.items():
        emit(name, value, unit)
    print(
        f"note {wl.op_metric}_s_tail is p{tail_pct:.1f} of n={len(walls)} calls"
        + (" (fewer than 11 calls: no percentile has ten beyond it, so the maximum)" if len(walls) < 11 else "")
    )
    for problem in problems:
        print("problem " + problem)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_walls_s": setup_walls,
        "call_walls_s": walls,
        "probe_windows_s": host.windows,
        "tail_percentile": tail_pct,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "problems": problems,
    }
    if tracer is None:
        values = {
            "setup_s": named["setup_s"][0],
            "op_ref_p50": named[f"{wl.op_metric}_ref_p50"][0],
            "throughput_per_ref": named[f"{rate_base}_per_ref"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
        }
        out_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    else:
        traced_wall = sum(loops[0].walls)
        layers = tracing.layer_metrics(tracer)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        layers["trace.overhead_s"] = traced_wall - sum(walls)
        table = tracing.kernel_table(tracer)
        report["trace"] = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": sum(walls),
            "layers": layers,
            "kernels": table,
            "batch128_vs_roadmap": tracing.batch128_comparison(table),
        }
        for name, value in layers.items():
            emit(name, value, units.get(name) or layer_unit(name))
        for name, row in report["trace"]["batch128_vs_roadmap"].items():
            print(f"batch128 {name}: fwd {row['fwd_ms']} ms (ROADMAP {row['roadmap_fwd_ms']}), "
                  f"bwd {row['bwd_ms']} ms (ROADMAP {row['roadmap_bwd_ms']})")
        out_metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print("report " + json.dumps(report, sort_keys=True, default=str))

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0


def stop_resource_tracker() -> None:
    """Stop the resource tracker a spawn pool started, and wait for it to end.

    ``run_benchmark``'s spawn pool starts multiprocessing's resource
    tracker, a child process that otherwise outlives this one: it exits
    only once it reads end-of-file after this process has gone. Pool
    objects still awaiting collection are finalized first, since their
    finalizers would start a new tracker.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except pinned.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        stop_resource_tracker()
