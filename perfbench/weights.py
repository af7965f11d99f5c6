"""Pinned pretrained weights for the adaptation workloads.

The weights are the product of a fixed recipe (``config.json`` section
``weights``): ``training.train`` over a fixed train split, independent of
the workload seed. Pretraining takes tens of seconds, so it runs once per
checkout, in a child process, and the result is cached under
``.bench_build/``. The cache key covers the recipe and every source file
of the package, so a change to either rebuilds.

    python3 perfbench/weights.py --out weights.twgt   # build once by hand
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pinned

BUILD_TIMEOUT_S = 800


def cache_path() -> Path:
    raw = pinned.raw_config()
    recipe = {key: raw[key] for key in ("model", "benchmark", "weights")}
    h = hashlib.sha256(json.dumps(recipe, sort_keys=True).encode())
    for src in sorted((pinned.SRC / "tempt").rglob("*.py")):
        h.update(src.relative_to(pinned.SRC).as_posix().encode())
        h.update(src.read_bytes())
    return pinned.CACHE / f"weights-{h.hexdigest()[:16]}.twgt"


def train_weights() -> bytes:
    from tempt import benchmark, data, model, training

    cfg = pinned.load(seed=0)
    videos = benchmark.make_split(cfg.weights_bench, "train", cfg.spec.input_hw)
    result = training.train(cfg.spec, data.FrameDataset.from_videos(videos), cfg.weights_train)
    return model.save_weights(result.params)


def ensure_weights() -> bool:
    """Build the cached weights if they are absent; True if this call built them."""
    path = cache_path()
    if path.is_file():
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--out", str(tmp)],
            check=True,
            timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    pinned.pin_threads()
    pinned.import_tempt()
    args.out.write_bytes(train_weights())
    return 0


if __name__ == "__main__":
    sys.exit(main())
