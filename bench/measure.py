"""Arithmetic of the benchmark: percentiles, ratios and result stamps.

Nothing here imports ``bol2``, so the self-tests in ``bench/tests`` run
without the package.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
from collections import Counter
from pathlib import Path

# A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

# Stamp fields that must agree before two results may be compared.  The
# commit and the source digest are left out on purpose: comparing two
# versions of the program is what a comparison is for.
COMPARABLE_FIELDS = (
    "python",
    "nproc",
    "platform",
    "bench_sha256",
    "workloads",
    "seed",
    "seconds",
    "trace",
)


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of the samples."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q / 100 * n), 1)


def latency_summary(samples, tail: float = 99.0) -> dict:
    """Median and tail percentile of per-call timings.

    Raises ``ValueError`` when fewer than :data:`TAIL_SAMPLES` samples lie
    beyond the tail percentile, so a short run cannot report a p99 that is
    really its maximum.
    """
    n = len(samples)
    beyond = samples_beyond(n, tail)
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{tail:g} of {n} samples has {beyond} beyond it; "
            f"need at least {TAIL_SAMPLES}"
        )
    return {"p50": percentile(samples, 50), "tail": percentile(samples, tail), "n": n}


def segment_floor(repetitions) -> tuple[float, int]:
    """Uncontended estimate of a timed body from several repetitions of it.

    Each repetition is the list of durations of the body's segments between
    checkpoints that every repetition passes in the same order (garbage
    collector passes, and in ``ops`` the start of each call).  The estimate
    is the sum, over segments, of the fastest time that segment took in any
    repetition: on a shared host, contention from other tenants comes and
    goes within milliseconds, so a segment a few milliseconds long is likely
    to run undisturbed in at least one of a run's 70 or more repetitions,
    while a median over whole repetitions follows the contention.

    Only repetitions with the most common segment count are aligned; the
    rest are left out.  Returns the estimate and the number of repetitions
    it rests on.
    """
    if not repetitions:
        raise ValueError("no repetitions")
    counts = Counter(len(r) for r in repetitions)
    size = max(counts, key=lambda n: (counts[n], n))
    aligned = [r for r in repetitions if len(r) == size]
    return math.fsum(map(min, zip(*aligned))), len(aligned)


def hit_ratio(calls: int, misses: int) -> float:
    """Share of memo lookups that found an entry; 0.0 when nothing was looked up."""
    if misses > calls or misses < 0:
        raise ValueError(f"misses {misses} out of range for {calls} calls")
    return (calls - misses) / calls if calls else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(root: Path, workloads, seed: int, seconds: float, trace: int) -> dict:
    """Where and on what a result was measured.

    The checkout the benchmark runs in need not be a git repository, so the
    digest of ``src/bol2`` identifies the program even when ``commit`` is None.
    """
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "src_sha256": _digest((root / "src" / "bol2").glob("*.py")),
        "bench_sha256": _digest(Path(__file__).parent.glob("*.py")),
        "workloads": list(workloads),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def stamp_mismatches(a: dict, b: dict) -> list[str]:
    """The comparable stamp fields on which two results differ."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in COMPARABLE_FIELDS
        if a.get(key) != b.get(key)
    ]
