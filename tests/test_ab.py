"""scripts/ab.py: an in-process A/B of one tree against itself on a tiny spec runs every workload to the same bytes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORKLOADS = ["adapt-tempt", "adapt-tent", "forward_all", "train"]


def test_ab_times_every_workload_of_two_trees(tmp_path):
    out = tmp_path / "ab.json"
    argv = [sys.executable, str(REPO / "scripts" / "ab.py"), str(SRC), str(SRC), "--spec", "tiny", "--rounds", "2"]
    argv += ["--json", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("spec=tiny ") and "rounds=2" in lines[0]
    assert [line.split()[0] for line in lines[2:]] == WORKLOADS
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == WORKLOADS
    for name, result in doc["workloads"].items():
        assert result["same_bytes"] is True, name
        assert result["rounds"] == 2 and len(result["ratio"]) == 2 and len(result["a_s"]) == len(result["b_s"]) == 4, name
        assert 0 < result["ratio_q1"] <= result["ratio_median"] <= result["ratio_q3"], name
        assert 0 <= result["b_wins"] <= 2, name
