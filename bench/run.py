#!/usr/bin/env python3
"""Benchmark of bol2: three workloads, each repetition in a fresh interpreter.

    python3 bench/run.py --workload enum|check|ops|all --seed N --seconds S --trace 0|1

Repetitions of a workload run one after another, one process at a time:
at least three, and more while the next is expected to end within
``--seconds``.  With
``--trace 0`` the last line of output holds the end-to-end metrics named in
BENCHMARK.json; ``run_s`` there is ``measure.segment_floor`` over the
repetitions, the median wall time is printed as ``wall_run_s``.  With
``--trace 1`` untraced and traced repetitions
alternate and it holds the per-layer metrics and the tracing overhead.
Before it, one row per workload prints every end-to-end metric with its
unit, including the ``ops`` latencies and ``fail_ratio``.  ``--out FILE``
also writes the full result, stamped, for ``bench/compare.py``.

Run from the root of a checkout; the package is imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import (
    TAIL_SAMPLES,
    latency_summary,
    ratio,
    samples_beyond,
    segment_floor,
    stamp,
)
from tracing import PER_LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
MIN_REPS = 3
# Every run must end within 180 s; stop starting repetitions well before.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
OPS_LATENCIES = (("canon", "us"), ("mul", "us"), ("ldiv", "ms"))
UNITS = dict(END_TO_END, wall_run_s="s", floor_reps="count", fail_ratio="ratio") | {
    f"{op}_{kind}": (unit if kind != "samples" else "count")
    for op, unit in OPS_LATENCIES
    for kind in (f"p50_{unit}", f"p99_{unit}", "samples")
}


def spawn(workload: str, seed: int, rep: int, traced: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its report, or
    ``{"error": ...}`` when it crashed, printed no report or timed out."""
    # Fixed string hashing, so dict layouts do not differ between repetitions.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(REP), "--workload", workload, "--seed", str(seed),
        "--rep", str(rep), "--trace", str(int(traced)),
    ]
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": f"repetition {rep} timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"repetition {rep} exited {proc.returncode}: {tail[0]}"}
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"repetition {rep} printed no report: {lines[-1][:200]}"}
    report["traced"] = traced
    return report


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    start = time.monotonic()
    reps: list[dict] = []
    durations: list[float] = []
    while time.monotonic() < deadline:
        # Start another repetition only if it is expected to end in time.
        if len(reps) >= MIN_REPS:
            expected_end = time.monotonic() + statistics.median(durations)
            if expected_end - start > seconds:
                break
        traced = bool(trace) and len(reps) % 2 == 1
        began = time.monotonic()
        reps.append(spawn(workload, seed, len(reps), traced, deadline))
        durations.append(time.monotonic() - began)
    return summarize(workload, reps)


def summarize(workload: str, reps: list[dict]) -> dict:
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = sum(r["attempted"] for r in ok) + (len(reps) - len(ok))
    failed = sum(r["failed"] for r in ok) + (len(reps) - len(ok))
    result = {
        "workload": workload,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "errors": [r["error"] for r in reps if "error" in r]
        + [f for r in ok for f in r["failures"]],
        "notes": ok[0]["notes"] if ok else {},
        "tables": {"before": ok[0]["tables_before"], "after": ok[0]["tables_after"]}
        if ok else None,
        "metrics": {},
        "layers": {},
        "spans": next((r["spans"] for r in traced), None),
    }
    if not plain:
        return result

    def med(key):
        return statistics.median(r[key] for r in plain)

    metrics = result["metrics"]
    metrics["setup_s"] = med("setup_s")
    metrics["run_s"], metrics["floor_reps"] = segment_floor([r["segments"] for r in plain])
    metrics["items_per_s"] = med("items") / metrics["run_s"]
    metrics["peak_rss_mb"] = med("peak_rss_mb")
    metrics["wall_run_s"] = med("run_s")
    metrics["fail_ratio"] = ratio(failed, attempted)
    for op, unit in OPS_LATENCIES:
        pooled = [t for r in plain for t in r["samples"].get(f"{op}_{unit}", ())]
        if samples_beyond(len(pooled), 99) >= TAIL_SAMPLES:  # too few in a short run
            summary = latency_summary(pooled)
            metrics[f"{op}_p50_{unit}"] = summary["p50"]
            metrics[f"{op}_p99_{unit}"] = summary["tail"]
            metrics[f"{op}_samples"] = summary["n"]

    if traced:
        layers = result["layers"]
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_s"] = traced_run_s - metrics["wall_run_s"]
        layers["trace.overhead_ratio"] = traced_run_s / metrics["wall_run_s"]
    return result


def print_report(doc: dict) -> None:
    s = doc["stamp"]
    print(
        f"bol2 benchmark: python {s['python']}, nproc {s['nproc']}, {s['platform']}, "
        f"commit {s['commit']}, src {s['src_sha256']}, seed {s['seed']}, "
        f"{s['seconds']:g} s per workload, trace {s['trace']}"
    )
    for name, result in doc["results"].items():
        cells = [f"{k}={v:.6g} {UNITS[k]}" for k, v in result["metrics"].items()]
        print(f"{name:6} reps={result['reps']} {'  '.join(cells)}"
              f"  (failed {result['failed']} of {result['attempted']})")
        if result["notes"]:
            print("       notes " + " ".join(f"{k}={v:.6g}" for k, v in result["notes"].items()))
        if result["tables"]:
            before, after = result["tables"]["before"], result["tables"]["after"]
            print("       tables " + " ".join(f"{k}={before[k]}->{after[k]}" for k in before))
        for error in result["errors"][:5]:
            print(f"       FAILED: {error}")


def final_line(doc: dict, trace: int) -> dict:
    results = list(doc["results"].values())
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if trace:
        wanted = [(name, unit) for name, unit, _ in PER_LAYER_METRICS]
        source = "layers"
    else:
        wanted = [(name, unit) for name, unit in END_TO_END]
        source = "metrics"
    metrics = {}
    complete = True
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, unit in wanted:
            if name in r[source]:
                metrics[prefix + name] = {"value": r[source][name], "unit": unit}
            else:
                complete = False
    return {
        "correct": complete and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bol2" / "__init__.py").is_file():
        print(f"error: no bol2 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    doc = {"stamp": stamp(ROOT, names, args.seed, args.seconds, args.trace), "results": {}}
    start = time.monotonic()
    for i, name in enumerate(names):
        # Share what is left of the hard limit among the remaining workloads.
        left = HARD_LIMIT_S - (time.monotonic() - start)
        deadline = time.monotonic() + left / (len(names) - i)
        result = measure(name, args.seed, args.seconds, args.trace, deadline)
        w = WORKLOADS[name]
        doc["results"][name] = result | {"why": w.why, "predictions": w.predictions}
    print_report(doc)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(final_line(doc, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
