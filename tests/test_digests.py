"""scripts/digests.py: the byte-identity check between two checkouts is itself deterministic."""

from __future__ import annotations

import importlib.util
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"

NAMES = [f"forward_all@{chunk}" for chunk in (16, 24, 128, 384, 400)] + [
    "stem_conv",
    "adapt_tempt.logits_after",
    "adapt_tempt.params",
    "adapt_tent.logits_after",
    "adapt_tent.params",
    "pretrain_epoch.weights",
    "train_step.grads",
    "adapt_step.grads",
    "config.default",
]


def test_digest_lines_repeat_and_name_every_artefact(tiny_spec):
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    first = digests.digest_lines(tiny_spec)
    assert digests.digest_lines(tiny_spec) == first
    assert [line.split()[0] for line in first] == NAMES
    assert all(len(line.split()[1]) == 64 for line in first)
