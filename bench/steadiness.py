"""Two sets of benchmark runs of the same code, side by side with the bounds.

    python3 bench/steadiness.py

It takes no options. It makes two sets of ten runs of every workload in
BENCHMARK.json, each run_seconds long; set 1 runs seeds 1-10 and set 2
seeds 11-20. Within a set the runs go round the workloads, so that a slow
spell of the machine falls on all of them. For each workload and end-to-end
metric it prints each set's median, quartiles and spread (quartile distance
over the median), and how far set 2's median moved from set 1's in the
worse direction, beside the bound in BENCHMARK.json. Then each workload gets two traced runs under different
PYTHONHASHSEED values, whose counts must be identical, and the traced
ops_per_s is set against the untraced run of the same seed. Everything is
also written to bench-out/steadiness.json. Exits 1 if a spread or a shift
exceeds its bound, a failure share differs or a count does not repeat.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
SETS = 2
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int,
        hash_seed: str = "0") -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets: list[dict[str, list[dict]]] = []
    for k in range(SETS):
        print(f"set {k + 1}", file=sys.stderr)
        runs: dict[str, list[dict]] = {w: [] for w in names}
        for i in range(RUNS):
            for w in names:
                runs[w].append(run(w, k * RUNS + i + 1, seconds, 0))
        sets.append(runs)

    ok = True
    summary: dict = {}
    print(f"\n{'workload':18} {'metric':12} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'shift':>7} {'bound':>6}")
    for w in names:
        shares = {tuple(r["failed"] / r["attempted"] for r in s[w])
                  for s in sets}
        if len({x for s in shares for x in s}) > 1:
            ok = False
            print(f"{w}: failed share differs between runs: {shares}")
        correct = all(r["correct"] for s in sets for r in s[w])
        ok &= correct
        summary[w] = {"correct": correct}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s[w]]
                med, q1, q3, sp = spread(values)
                shift = (med - rows[0]["median"]) / rows[0]["median"] \
                    if rows else 0.0
                if m["better"] == "higher":
                    shift = -shift
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": sp, "shift": shift, "values": values})
                flag = ""
                if sp > bound:
                    flag, ok = " WIDE", False
                elif sp > bound / 3:
                    flag = " (above bound/3)"
                if shift > bound:
                    flag, ok = flag + " SHIFT", False
                print(f"{w:18} {name:12} {k + 1:>3} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {sp:7.3f} {shift:7.3f} {bound:6.2f}{flag}")
            summary[w][name] = rows

    print("\ntraced runs (seed 1)", file=sys.stderr)
    for w in names:
        a = run(w, 1, seconds, 1, hash_seed="0")
        b = run(w, 1, seconds, 1, hash_seed="1")
        counts = [n for n in a["metrics"]
                  if n.endswith(".calls") or n.startswith("engine.memo_")]
        differ = [n for n in counts if a["metrics"][n]["value"]
                  != b["metrics"][n]["value"]]
        ok &= not differ
        detail = json.loads((OUT / f"result-{w}-s1-t1.json").read_text())
        traced = detail["end_to_end"]["ops_per_s"]["value"]
        untraced = sets[0][w][0]["metrics"]["ops_per_s"]["value"]
        summary[w]["trace"] = {
            "counts_compared": len(counts), "counts_differing": differ,
            "traced_ops_per_s": traced, "untraced_ops_per_s": untraced}
        print(f"{w:18} counts repeat: {not differ} ({len(counts)} "
              f"compared); ops_per_s traced {traced:.5g} untraced "
              f"{untraced:.5g} ({traced - untraced:+.5g}, "
              f"{(traced - untraced) / untraced:+.1%})")

    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(
        {"seconds": seconds, "runs": RUNS, "summary": summary},
        indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
