"""perfbench's tracer patches tempt functions by name; each name must still exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_removes_every_wrapper():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()  # looks up every patched name: a missing one raises here
    try:
        assert tracer.wrappers_left() > 0
    finally:
        tracer.remove()
    assert tracer.wrappers_left() == 0
