"""One repetition of one workload, in the fresh interpreter it was started in.

Started by ``run.py``; prints one JSON object as its last line.  The
package is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.

    python3 bench/rep.py --workload ops --seed 1 --rep 0 --trace 0 \\
        --spawned-at <time.monotonic() of the caller just before it started this>
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import os
import resource
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_layers() -> dict:
    if not (SRC / "bol2" / "__init__.py").is_file():
        raise SystemExit(f"error: no bol2 package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        layer: importlib.import_module(f"bol2.{layer}") for layer in tracing.LAYERS
    }
    origin = Path(modules["words"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: bol2 was imported from {origin}, not from {SRC}")
    return modules


def _api(modules) -> types.SimpleNamespace:
    """The package functions the benchmark calls; tracing wraps them here."""
    words, normalize, basis, loop, cli = (
        modules[k] for k in ("words", "normalize", "basis", "loop", "cli")
    )

    def forms_table():
        return getattr(getattr(basis, "SHARED_CACHE", None), "forms", None)

    return types.SimpleNamespace(
        main=cli.main,
        Alphabet=words.Alphabet,
        IDENTITY=words.IDENTITY,
        parse=words.parse,
        render=words.render,
        spine_factors=words.spine_factors,
        is_reduced=normalize.is_reduced,
        normal_form_chain=normalize.normal_form_chain,
        enumerate_basis=basis.enumerate_basis,
        enumerate_loop_words=basis.enumerate_loop_words,
        basis_by_fixpoint=getattr(basis, "basis_by_fixpoint", None),
        symmetric_form=loop.symmetric_form,
        mul=loop.mul,
        ldiv=loop.ldiv,
        forms_table=forms_table,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    modules = _import_layers()
    workload = WORKLOADS[args.workload]
    api = _api(modules)
    state = workload.prepare(args.seed, api)
    before = tracing.table_sizes(modules)
    tracer = forms = None
    if args.trace:
        tracer = tracing.Tracer()
        forms = tracing.install(tracer, modules, api)
    samples = defaultdict(list)  # per-call timings, by operation and unit
    # Checkpoints for measure.segment_floor: every garbage collector pass,
    # plus the ones the body marks.  An array of floats allocates nothing the
    # collector tracks, so recording them does not move the passes.
    marks = array.array("d")

    def on_gc(phase, info, mark=marks.append, clock=time.perf_counter):
        if phase == "start":
            mark(clock())

    if not args.trace:
        gc.callbacks.append(on_gc)
    setup_s = time.monotonic() - args.spawned_at
    start = time.perf_counter()
    outputs = workload.body(state, api, samples, marks.append)
    end = time.perf_counter()
    if not args.trace:
        gc.callbacks.remove(on_gc)
    run_s = end - start
    points = [start, *marks, end]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = tracing.table_sizes(modules)
    layers = tracing.layer_metrics(tracer, forms, before, after) if tracer else None

    outcome = workload.check(state, outputs, api, first=args.rep == 0)
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "segments": None if args.trace else [b - a for a, b in zip(points, points[1:])],
        "items": outcome.items,
        "peak_rss_mb": rss_mb,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:5],
        "notes": outcome.notes,
        "tables_before": before,
        "tables_after": after,
        "samples": samples,
        "layers": layers,
        "spans": tracer.spans() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    # Skip freeing the heap (tens of MB): it is not timed, and
    # the run fits more repetitions without it.
    os._exit(status)
