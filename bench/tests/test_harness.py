"""Self-tests of the benchmark's own arithmetic; they do not import bol2.

    python3 -m pytest bench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import (  # noqa: E402
    hit_ratio,
    latency_summary,
    percentile,
    samples_beyond,
    segment_floor,
    stamp_mismatches,
)
from tracing import CountingDict, Tracer, install  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    summary = latency_summary([float(i) for i in range(1000)])
    assert summary == {"p50": 499.0, "tail": 989.0, "n": 1000}
    with pytest.raises(ValueError, match="9 beyond it"):
        latency_summary([1.0] * 999)


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle(f):
        clock.now += 1.0
        f()
        f()
        clock.now += 0.5

    traced_leaf = tracer.wrap("words.leaf", leaf)
    traced_middle = tracer.wrap("basis.middle", middle)
    traced_middle(traced_leaf)
    traced_leaf()

    assert tracer.calls == {"words.leaf": 3, "basis.middle": 1}
    assert tracer.inclusive["basis.middle"] == 5.5
    assert tracer.self_time["basis.middle"] == 1.5
    assert tracer.self_time["words.leaf"] == 6.0
    assert tracer.layer_self_time("words") == 6.0
    assert tracer.layer_self_time("cli") == 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    def outer(f):
        with pytest.raises(KeyError):
            f()
        clock.now += 1.0

    tracer.wrap("loop.outer", outer)(tracer.wrap("words.boom", boom))
    assert tracer.self_time["loop.outer"] == 1.0
    assert tracer.self_time["words.boom"] == 1.0


def test_segment_floor_sums_the_fastest_time_of_each_segment():
    reps = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 0.5]]
    assert segment_floor(reps) == (1.0 + 1.0 + 0.5, 3)
    assert segment_floor([[2.0, 3.0]]) == (5.0, 1)
    # A repetition whose checkpoints do not line up with the others is left out.
    assert segment_floor([[1.0, 1.0], [9.0], [2.0, 0.5]]) == (1.5, 2)
    with pytest.raises(ValueError):
        segment_floor([])


def test_hit_ratio():
    assert hit_ratio(10, 3) == 0.7
    assert hit_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        hit_ratio(2, 3)


def test_counting_dict_counts_lookups_and_misses():
    memo = CountingDict({"a": 1})
    assert memo["a"] == 1
    with pytest.raises(KeyError):
        memo["b"]
    assert "b" not in memo  # membership tests are not lookups
    assert (memo.lookups, memo.misses) == (2, 1)
    assert hit_ratio(memo.lookups, memo.misses) == 0.5


def test_install_wraps_only_calls_across_layers():
    def helper(n):
        return n + 1

    low = types.ModuleType("low")
    low.__all__ = ["helper"]
    low.helper = helper
    high = types.ModuleType("high")
    high.__all__ = []
    high.helper = helper
    high.table = {"inc": helper}
    bench = types.SimpleNamespace(helper=helper)
    modules = {"basis": low, "cli": high}

    tracer = Tracer()
    assert install(tracer, modules, bench) is None  # no shared forms memo here
    assert low.helper is helper
    assert high.helper is not helper and high.table["inc"] is not helper
    high.helper(1)
    high.table["inc"](1)
    bench.helper(1)
    assert tracer.calls["basis.helper"] == 3


def test_stamps_must_agree_except_on_the_program_version():
    a = {"python": "3.11.7", "nproc": 2, "platform": "x", "bench_sha256": "b",
         "workloads": ["ops"], "seed": 1, "seconds": 20, "trace": 0,
         "commit": "c1", "src_sha256": "s1"}
    assert stamp_mismatches(a, dict(a, commit="c2", src_sha256="s2")) == []
    assert stamp_mismatches(a, dict(a, nproc=4)) == ["nproc: 2 != 4"]
    assert stamp_mismatches(a, dict(a, seed=2)) == ["seed: 1 != 2"]
