"""Smoke run of the benchmark: its per-layer table agrees with the recursion's
exact work (one normalization and one triviality test per node)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_disc_chords_counts():
    # writes its result files to the git-ignored bench-out/
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "disc_chords",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    metrics = result["metrics"]
    # every diagram of the pool has a 71-node recursion
    assert metrics["regions.is_trivial.calls"]["value"] == 71
    assert metrics["sutures.normalize.calls"]["value"] == 71
