"""Smoke runs of the benchmark: its per-layer table agrees with the exact
work of a peeled fan disc (one validation and normalization, no
triviality test and no surgery), of the peeled n = 7 census and of a script (one compile
per op, the pushed pair validated at entry and at the target); and the
names the bench reaches in the engine still exist."""

import ast
import importlib
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
    calls = {k: m["value"] for k, m in result["metrics"].items()}
    # every diagram of the pool is a fan disc, peeled digitally: its root
    # is validated and normalized once, the strand walk that reads its
    # matching finds it open, so it is not tested for triviality, and no
    # surgery runs and no memo entry is made
    assert calls["sutures.validate_sutures.calls"] == 1
    assert calls["sutures.normalize.calls"] == 1
    assert calls["regions.is_trivial.calls"] == 0
    assert calls["sutures.bypass_surgery.calls"] == 0
    assert calls["engine.memo_entries"] == 0


def test_traced_disc_census_counts():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "disc_census",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    calls = {k: m["value"] for k, m in result["metrics"].items()}
    # the 429 matchings of the n = 7 census are enumerated as mates and
    # built into roots directly, not through census.matching_system; each
    # root is trusted on the shared fan disc, so it is not validated. Each
    # carries its matching, so each is peeled with no triviality test: no
    # surgery, no triple listing and no memo entry
    assert calls["census.matching_system.calls"] == 0
    assert calls["sutures.validate_sutures.calls"] == 0
    assert calls["regions.is_trivial.calls"] == 0
    assert calls["sutures.bypass_surgery.calls"] == 0
    assert calls["sutures.bypass_triples.calls"] == 0
    assert calls["engine.memo_entries"] == 0


def test_traced_script_naturality_counts():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "script_naturality",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    calls = {k: m["value"] for k, m in result["metrics"].items()}
    # the op compiles its script once: each gluing and each collapse the
    # compile performs is transported once, not performed again by the push
    assert calls["surface.glue.calls"] == \
        calls["sutures.transport_glue.calls"] > 0
    assert calls["quad.collapse_slack_square.calls"] == \
        calls["routing.transport_collapse.calls"] > 0
    # the push checks its entry pair and the image is checked once, by the
    # element at the target
    assert calls["sutures.validate_sutures.calls"] < 3


def test_committed_bench_records_are_json():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert len(records) >= 7
    for path in records:
        assert isinstance(json.loads(path.read_text()), dict), path.name


def test_names_the_bench_reaches_exist():
    # LAYERS is read from the source, so the check imports nothing from
    # bench/ and runs no workload
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    for module, functions in layers.items():
        mod = importlib.import_module(f"sqft.{module}")
        for fn in functions:
            assert callable(getattr(mod, fn, None)), f"{module}.{fn}"
    # bench/workloads.py screens faults by this frame name
    routing = importlib.import_module("sqft.routing")
    assert callable(getattr(routing, "_collapse_degenerate", None))
