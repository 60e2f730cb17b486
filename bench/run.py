"""Benchmark of sqft: one workload per run, end to end or traced.

    python3 bench/run.py --workload disc_chords --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. A run
sets up (import, seeded inputs, JSON emission, warm-up), then makes whole
timed passes over its input list until the next pass would end past
--seconds, checks every output, and prints one JSON object as the last line
of standard output. With --trace 0 its metrics are the end-to-end ones;
with --trace 1 the calls into sqft are traced from outside and its metrics
are per layer and per operation. Result files, and the spans of a traced
run's first pass, go to ./bench-out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "bench-out"
SETUP_REPEATS = 3
# Times are scaled to a fixed machine speed: each op's time is multiplied by
# REF_S over the time of reference() measured around it. On a shared 2-vCPU
# VM (Intel Xeon, Python 3.11.7) a run's median reading ranged from 15 to
# 34 ms, in spells of tens of seconds, and raw times spread across seeds by
# up to 0.19; a reference read at most CHUNK_S of op time away tracks it.
# REF_S sits at the slow end of those readings.
REF_S = 0.030
CHUNK_S = 0.25


def reference() -> int:
    """A fixed piece of pure-Python work that touches no sqft code."""
    acc, table = 0, {}
    for i in range(20000):
        key = (i % 257, i % 31)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(frozenset((i & 7, i & 15, key))) & 0xff
    return acc + len(sorted(table.items()))


def ref_time() -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def load_program():
    """Import sqft from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "sqft" / "__init__.py").is_file():
        sys.exit(f"error: no sqft package under {src}")
    sys.path.insert(0, str(src))
    import sqft
    if Path(sqft.__file__).resolve().parent != (src / "sqft").resolve():
        sys.exit(f"error: imported sqft from {sqft.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


def timed_passes(w, items, seconds, tr):
    """Whole passes over items until the next would end past `seconds`.

    Each op is timed alone, and the reference is timed before the first op,
    after the last and between ops once CHUNK_S of op time has gone by. An
    op's output is checked right after it, outside the timed region, and
    only its fingerprint is kept, so the run holds one output at a time.
    A pass's whole wall time counts towards `seconds`: its ops, failed ones
    too, their checks and the reference readings, so a run whose ops all
    fail still ends on time. Returns the raw and scaled times of the
    ops that passed, the raw and scaled rate of each pass, the first pass's
    fingerprints, the counts of ops attempted and failed, the failures and
    the reference readings.
    """
    raw_times: list[float] = []
    times: list[float] = []
    raw_rates: list[float] = []
    rates: list[float] = []
    all_refs: list[float] = []
    first: list = []          # fingerprints, None where the op failed
    failed = attempted = 0
    problems: list[str] = []
    busy = 0.0
    engine = sys.modules["sqft.engine"]
    while True:
        start = time.perf_counter()
        gc.collect()
        refs = [ref_time()]
        done: list[tuple[float, int]] = []   # (op time, reference index)
        chunk = 0.0
        for i, item in enumerate(items):
            if chunk >= CHUNK_S:
                refs.append(ref_time())
                chunk = 0.0
            if tr is not None:
                tr.op = tr.ops
                tr.recording = True
                tr.keep_spans = len(first) < len(items)
            t = time.perf_counter()
            try:
                out = w.op(item)
                raised = None
            except Exception as exc:  # an op that raises counts as failed
                out = raised = exc
            dt = time.perf_counter() - t
            if tr is not None:
                tr.recording = False
                tr.ops += 1
                # the op cleared the memo first, so its size is the growth
                tr.memo_entries += len(engine._CACHE)
            attempted += 1
            chunk += dt
            if raised is not None:
                problem = f"raised {type(raised).__name__}: {raised}"
                fp = None
            else:
                fp = w.fingerprint(out)
                if len(first) < len(items):
                    problem = w.check(item, out)
                elif fp != first[i]:
                    problem = "output differs from the first pass"
                else:
                    problem = None
            del out, raised
            if len(first) < len(items):
                first.append(None if problem else fp)
            if problem:
                failed += 1
                problems.append(f"{w.name} op {i}: {problem}")
            else:
                done.append((dt, len(refs) - 1))
        refs.append(ref_time())
        all_refs += refs
        scaled = [dt * 2 * REF_S / (refs[k] + refs[k + 1]) for dt, k in done]
        raw = [dt for dt, _ in done]
        raw_times += raw
        times += scaled
        raw_rates.append(len(raw) / sum(raw) if raw else 0.0)
        rates.append(len(scaled) / sum(scaled) if scaled else 0.0)
        spent = time.perf_counter() - start
        busy += spent
        if busy + spent > seconds:
            break
    return (raw_times, times, raw_rates, rates, first, attempted, failed,
            problems, all_refs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(
        "disc_chords", "disc_census", "script_naturality"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads, tracer = load_program()
    import_s = time.perf_counter() - T0

    # Set-up runs SETUP_REPEATS times after the import, each time from the
    # workload's own files, and its median is reported: one cold set-up is a
    # single sample of a host whose speed drifts. The first, cold, one is
    # kept in the result file as cold_setup_s.
    refs = [ref_time()]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        w = workloads.WORKLOADS[args.workload]()
        items = w.inputs(args.seed)
        for item in items[:w.warm_ops]:
            try:
                w.op(item)
            except Exception:  # the timed pass reports it as a failed op
                pass
        setups.append(time.perf_counter() - t)
        refs.append(ref_time())
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = import_s * REF_S / refs[0] + statistics.median(
        dt * 2 * REF_S / (refs[k] + refs[k + 1])
        for k, dt in enumerate(setups))

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    try:
        (raw_times, times, raw_rates, rates, prints, attempted, failed,
         problems, pass_refs) = timed_passes(w, items, args.seconds, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        problems += w.run_checks(args.seed, items, prints)
    except Exception as exc:
        problems.append(f"{w.name} run checks raised "
                        f"{type(exc).__name__}: {exc}")

    e2e = {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(times or [0.0]),
                      "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    unscaled = {
        "ops_per_s": statistics.median(raw_rates),
        "op_p50_ms": 1000 * statistics.median(raw_times or [0.0]),
        "setup_s": raw_setup_s,
        "cold_setup_s": import_s + setups[0],
    }
    if tr is not None:
        layer = tr.layer_metrics()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracer.metric_names()}
    else:
        metrics = e2e
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, ops_per_pass=len(items),
                  passes=attempted // len(items), problems=problems[:20],
                  inputs_left_out=w.left_out,
                  end_to_end=e2e, unscaled=unscaled, setup_repeats_s=setups,
                  import_s=import_s, reference_s=refs,
                  pass_reference_median_s=statistics.median(pass_refs))
    if tr is not None:
        tr.write(OUT_DIR / f"trace-{tag}.json",
                 {"workload": args.workload, "seed": args.seed})
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for p in problems[:20]:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
