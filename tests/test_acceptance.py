"""The acceptance gate: ten timed end-to-end criteria.

Each test prints one verdict line (visible under ``pytest -rP`` or ``-s``).
Criteria with a pinned wall-clock tolerance assert it; the others just report
their elapsed time.
"""

import time
from contextlib import contextmanager

from bol2 import (
    SampleSpec,
    check_identity_suite,
    enumerate_basis,
    enumerate_loop_words,
    in_basis,
    is_candidate,
    left_assoc,
    mul,
    normal_form,
    parse,
    render,
    symmetric_form,
    why_not_in_loop,
)
from bol2.cli import main as cli_main

from helpers import (
    check_collapse_reversal,
    check_compose_split,
    check_left_cancellation,
    check_right_congruence,
    check_square_collapse,
    palindrome_index,
)


@contextmanager
def criterion(number, description, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - t0
    if limit_s is not None:
        assert elapsed < limit_s, (
            f"criterion {number} took {elapsed:.1f}s (limit {limit_s}s)"
        )
        print(f"[criterion {number:02d}] PASS {description} "
              f"({elapsed:.2f}s < {limit_s:.0f}s)")
    else:
        print(f"[criterion {number:02d}] PASS {description} ({elapsed:.2f}s)")


def run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


BASIS_5 = {
    "a", "b", "ba", "((ba)b)a", "(b(ba))a", "((a(ba))b)a", "((b(ba))b)a",
}

CANDIDATES_5 = {
    "a", "b", "ba", "((ba)b)a", "(b(ab))a", "(b(ba))a", "((ba)(ab))a",
    "((a(ba))b)a", "((b(ab))a)b", "((b(ba))b)a", "(b(a(ab)))a", "(b(a(ba)))a",
    "(b(b(ab)))a", "(b(b(ba)))a", "(b((ab)a))a", "(b((ba)b))a",
}


def test_criterion_01_basis_enumeration(capsys):
    with criterion(1, "basis enumeration: 7 words of length <= 5", limit_s=5):
        code, out = run_cli(capsys, "enum", "R", "--max-len", "5",
                            "--alphabet", "ab")
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "count: 7"
        assert set(lines[:-1]) == BASIS_5


def test_criterion_02_candidate_enumeration(capsys):
    with criterion(2, "candidate enumeration: 16 words of length <= 5",
                   limit_s=5):
        code, out = run_cli(capsys, "enum", "D", "--max-len", "5",
                            "--alphabet", "ab")
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "count: 16"
        assert set(lines[:-1]) == CANDIDATES_5


def test_criterion_03_transpose_report(capsys):
    with criterion(3, "spine/transpose report for (a(bc))((ca)b)"):
        code, out = run_cli(capsys, "transpose", "(a(bc))((ca)b)",
                            "--alphabet", "abc")
        assert code == 0
        assert out == (
            "word: (a(bc))((ca)b)\n"
            "norm: 3\n"
            "spine: a, bc, (ca)b\n"
            "transpose: (((ca)b)(bc))a\n"
            "double-transpose: (((a(bc))b)a)c\n"
            "family-size: 8\n"
        )


def test_criterion_04_symmetric_factor_exclusions(ab):
    with criterion(4, "candidates with symmetric spine factors fall outside "
                      "the basis"):
        for text in ["(b((ba)b))a", "(b((ab)a))a"]:
            w = parse(text, ab)
            assert is_candidate(w), text
            assert not in_basis(w), text
            reason = why_not_in_loop(w, ab)
            assert reason is not None and "symmetric" in reason, (text, reason)


def test_criterion_05_bol_identity(ab):
    with criterion(5, "Bol identity: exhaustive at length <= 3, sampled at "
                      "length <= 4", limit_s=60):
        exhaustive = check_identity_suite("bol", ab, SampleSpec(max_len=3))
        assert exhaustive.ok and exhaustive.failures == []
        assert exhaustive.cases == 9 ** 3
        sampled = check_identity_suite(
            "bol", ab,
            SampleSpec(max_len=4, exhaustive_limit=1000, sample_size=2000,
                       seed=20240814),
        )
        assert sampled.ok and sampled.cases == 2000


def test_criterion_06_loop_axioms(ab):
    with criterion(6, "x x = 1 and (x y) y = x: exhaustive at length <= 3, "
                      "sampled at length <= 4"):
        for which, arity in (("exp2", 1), ("rip", 2)):
            exhaustive = check_identity_suite(which, ab, SampleSpec(max_len=3))
            assert exhaustive.ok, which
            assert exhaustive.cases == 9 ** arity
            sampled = check_identity_suite(
                which, ab,
                SampleSpec(max_len=4, exhaustive_limit=10, sample_size=2000,
                           seed=20240814),
            )
            assert sampled.ok and sampled.cases == 2000, which


def test_criterion_07_canonical_form_round_trip(ab):
    with criterion(7, "canonical palindromic forms: round trip on the "
                      "carrier <= 5 and injectivity of the brute-force "
                      "index", limit_s=120):
        for g in enumerate_loop_words(ab, 5):
            if g.size == 0:
                continue
            form = symmetric_form(g)
            assert normal_form(left_assoc(form.sequence)) is g, render(g, ab)
        # all palindromic basis sequences, entries <= 5 letters, half <= 3:
        # builds the map and asserts pairwise-distinct values internally
        index = palindrome_index(ab, 5, 3)
        assert len(index) == 301
        for value, half in index.items():
            assert symmetric_form(value).half == half, render(value, ab)


def test_criterion_08_reduction_algebra(ab):
    with criterion(8, "reduction-map algebra: five laws exhaustive over "
                      "words within 6 letters"):
        assert check_compose_split(ab, 6) == 3236  # pairs with |u|+|v| <= 6
        assert check_square_collapse(ab, 6) == 228  # |u| + 2|v| <= 6
        assert check_right_congruence(ab, 6) == 327898
        assert check_collapse_reversal(ab, 6) == 624  # letter-valued chains
        assert check_left_cancellation(ab, 6) == 327898


def test_criterion_09_non_associativity_and_nuclei(ab):
    with criterion(9, "associativity fails, middle nucleus is trivial, "
                      "one-letter carrier is the 2-element group"):
        pool = enumerate_loop_words(ab, 3)
        assert any(
            mul(mul(x, y), z) is not mul(x, mul(y, z))
            for x in pool for y in pool for z in pool
        )
        nuclei = check_identity_suite("nuclei", ab, SampleSpec(max_len=3))
        assert nuclei.ok and nuclei.failures == []

        one = __import__("bol2").Alphabet("a")
        carrier = enumerate_loop_words(one, 3)
        assert [render(w, one) for w in carrier] == ["1", "a"]
        e, a = carrier
        table = {(x, y): mul(x, y) for x in carrier for y in carrier}
        assert table == {
            (e, e): e, (e, a): a, (a, e): a, (a, a): e,
        }


def test_criterion_10_transversal_model(ab):
    with criterion(10, "group words over the length-5 basis return to the "
                       "identity stabilizer"):
        report = check_identity_suite("transversal", ab, SampleSpec(max_len=5, max_seq=3))
        assert report.ok and report.failures == []
        n = len(enumerate_basis(ab, 5))
        assert n == 7
        assert report.cases == sum(n * (n - 1) ** (k - 1) for k in (1, 2, 3))
