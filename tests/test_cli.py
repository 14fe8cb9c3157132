"""Command-line front end: golden outputs, formats, exit codes."""

import argparse
import contextlib
import gc
import io
import json
import re
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bol2 import (
    InternalInvariantError,
    Product,
    SampleSpec,
    cli,
    enumerate_loop_words,
    left_assoc,
    parse,
    render,
    verify,
)
from bol2.cli import build_parser, main
from bol2.verify import SUITES

from helpers import AB, all_words_up_to, transpose_family

EXHAUSTED = "error: wall-clock budget exhausted\n"

# One valid invocation of every command.
COMMANDS = {
    "normalize": ["a"],
    "compare": ["a", "b"],
    "transpose": ["ab"],
    "mul": ["a", "b"],
    "canon": ["a"],
    "ldiv": ["a", "b"],
    "rdiv": ["a", "b"],
    "enum": ["W", "--max-len", "3"],
    "check": ["bol"],
}


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_elapsed(text):
    report = json.loads(text)
    del report["elapsed_ms"]
    return report


def readme_examples():
    """(argv, expected) for each line of the README's CLI block that ends in
    ``# -> X``; a note after X, two or more spaces on, is not output."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, arrow, expected = line.partition("# -> ")
        if arrow:
            argv = shlex.split(command)
            assert argv[0] == "bol2", line
            examples.append((argv[1:], re.split(r"\s{2,}", expected.strip())[0]))
    return examples


README_EXAMPLES = readme_examples()


class TestNormalize:
    @pytest.mark.parametrize(
        "word,expected",
        [("((ab)b)a", "1"), ("(ab)(ab)", "1"), ("1", "1"), ("b(ba)", "b(ba)")],
    )
    def test_text(self, capsys, word, expected):
        code, out, err = run(capsys, "normalize", word)
        assert (code, err) == (0, "")
        assert out == expected + "\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "abb", "--format", "json")
        assert code == 0
        assert json.loads(out) == "a"


class TestCompare:
    @pytest.mark.parametrize(
        "left,right,verdict",
        [("ba", "ab", "less"), ("ab", "ab", "equal"), ("ab", "ba", "greater"),
         ("1", "a", "less")],
    )
    def test_verdicts(self, capsys, left, right, verdict):
        code, out, _ = run(capsys, "compare", left, right)
        assert code == 0 and out.strip() == verdict


class TestTranspose:
    def test_example_block(self, capsys):
        code, out, _ = run(
            capsys, "transpose", "(a(bc))((ca)b)", "--alphabet", "abc"
        )
        assert code == 0
        assert out == (
            "word: (a(bc))((ca)b)\n"
            "norm: 3\n"
            "spine: a, bc, (ca)b\n"
            "transpose: (((ca)b)(bc))a\n"
            "double-transpose: (((a(bc))b)a)c\n"
            "family-size: 8\n"
        )

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "transpose", "(a(bc))((ca)b)", "--alphabet", "abc",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["norm"] == 3
        assert payload["spine"] == ["a", "bc", "(ca)b"]
        assert payload["transpose"] == "(((ca)b)(bc))a"
        assert payload["double_transpose"] == "(((a(bc))b)a)c"
        assert payload["family_size"] == 8

    def test_family_size_matches_the_built_family(self, capsys, ab, abc):
        # The command counts the family; the oracle builds it.
        for alphabet, max_len in [(ab, 4), (abc, 3)]:
            for w in all_words_up_to(alphabet, max_len):
                code, out, _ = run(
                    capsys, "transpose", render(w, alphabet),
                    "--alphabet", alphabet.symbols, "--format", "json",
                )
                assert code == 0
                assert json.loads(out)["family_size"] == len(transpose_family(w))


class TestLoopOps:
    def test_mul(self, capsys):
        assert run(capsys, "mul", "b", "ab")[1] == "((a(ba))a)b\n"
        assert run(capsys, "mul", "ab", "ab")[1] == "1\n"

    def test_canon(self, capsys):
        assert run(capsys, "canon", "ab")[1] == "b a ba\n"
        code, out, _ = run(capsys, "canon", "c(ba)", "--alphabet", "abc")
        assert out == "ba a b (ca)b\n"

    def test_canon_json(self, capsys):
        _, out, _ = run(capsys, "canon", "ab", "--format", "json")
        assert json.loads(out) == ["b", "a", "ba"]

    def test_rdiv(self, capsys):
        assert run(capsys, "rdiv", "((ab)a)b", "b")[1] == "(ab)a\n"

    def test_ldiv_found(self, capsys):
        assert run(capsys, "ldiv", "a", "ab")[1] == "b\n"

    def test_ldiv_not_found_within_bound(self, capsys):
        code, out, _ = run(capsys, "ldiv", "b", "(ab)a")
        assert code == 0 and out == "not-found\n"
        _, out_json, _ = run(capsys, "ldiv", "b", "(ab)a", "--format", "json")
        assert json.loads(out_json) is None

    def test_ldiv_with_bound(self, capsys):
        code, out, _ = run(capsys, "ldiv", "b", "(ab)a", "--bound", "10")
        assert code == 0 and out == "(((((ab)a)(((ba)b)a))a)b)a\n"

    @pytest.mark.parametrize(
        "operands,quotient",
        [
            (["(b(ba))a", "((((b(ba))a)b)a)b"], "(ba)b"),
            (["(b(ba))a", "((((((b(ba))a)b)a)(ba))a)b"], "ab"),
            (["a", "b", "--bound", "1000000"], "(a(ba))a"),
        ],
    )
    def test_ldiv_stops_at_the_quotient_length(self, capsys, operands, quotient):
        # The bounds are 16, 20 and a million letters, far beyond any
        # listing; the search builds the reduced words only up to the
        # quotient's length, so it ends well within the budget.
        code, out, _ = run(capsys, "ldiv", *operands, "--budget", "5000")
        assert (code, out) == (0, quotient + "\n")


    def test_readme_has_examples(self):
        assert len(README_EXAMPLES) == 6

    @pytest.mark.parametrize(
        "argv,expected", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES]
    )
    def test_readme_example(self, capsys, argv, expected):
        assert run(capsys, *argv)[:2] == (0, expected + "\n")


class TestEnum:
    def test_basis_golden(self, capsys):
        code, out, _ = run(capsys, "enum", "R", "--max-len", "5")
        assert code == 0
        assert out.splitlines() == [
            "a", "b", "ba", "((ba)b)a", "(b(ba))a", "((a(ba))b)a",
            "((b(ba))b)a", "count: 7",
        ]

    def test_candidates_count(self, capsys):
        code, out, _ = run(capsys, "enum", "D", "--max-len", "5")
        assert code == 0
        assert out.splitlines()[-1] == "count: 16"

    def test_carrier_includes_identity(self, capsys):
        _, out, _ = run(capsys, "enum", "B", "--max-len", "3")
        lines = out.splitlines()
        assert lines[0] == "1" and lines[-1] == "count: 9"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "enum", "W", "--max-len", "2", "--format", "json")
        assert json.loads(out) == ["a", "b", "ba", "ab"]

    def test_unknown_kind(self, capsys):
        # argparse rejects the choice; main converts the exit into code 2
        code, _, err = run(capsys, "enum", "Q", "--max-len", "3")
        assert code == 2
        assert "invalid choice: 'Q'" in err


class TestCheck:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "check", "exp2", "--max-len", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "property: exp2"
        assert "cases: 9" in lines
        assert lines[-1] == "verdict: pass"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "rip", "--max-len", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["cases"] == 25
        assert payload["seed"] is None

    def test_sampled_seed_is_reported(self, capsys):
        code, out, _ = run(
            capsys, "check", "bol", "--max-len", "4", "--sample", "50",
            "--exhaustive-limit", "10", "--seed", "7", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["seed"] == 7 and payload["cases"] == 50

    def test_transversal(self, capsys):
        code, out, _ = run(
            capsys, "check", "transversal", "--max-len", "3", "--max-seq", "2"
        )
        assert code == 0
        assert "cases: 9" in out.splitlines()

    @pytest.mark.parametrize("suite", ["transversal", "unique-form"])
    def test_long_runs_over_two_basis_words_are_listed_exhaustively(
        self, capsys, suite
    ):
        # Two basis words have 2 runs of each length: 80 runs of up to 40
        # entries, listed without building the 2^k products of each length.
        code, out, _ = run(
            capsys, "check", suite, "--max-len", "1", "--max-seq", "40",
            "--budget", "5000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["cases"] == 80 and payload["seed"] is None

    def test_a_long_sampled_run_is_drawn_in_linear_time(self, capsys):
        # One run of up to 200,000 entries: drawn entry by entry into a list,
        # not by copying a growing tuple at each entry.
        code, out, _ = run(
            capsys, "check", "transversal", "--max-len", "3", "--max-seq", "200000",
            "--sample", "1", "--budget", "5000", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["cases"] == 1

    def test_unique_form_samples_a_large_universe(self, capsys):
        # Runs of up to 9 basis words of length <= 9 are far too many to
        # scan, so the default limit replaces them by a seeded sample.
        code, out, _ = run(
            capsys, "check", "unique-form", "--max-len", "9", "--max-seq", "9",
            "--budget", "20000",
        )
        assert code == 0
        lines = out.splitlines()
        assert "cases: 2000" in lines and "seed: 0" in lines
        assert lines[-1] == "verdict: pass"

    def test_defaults_are_those_of_sample_spec(self):
        ns = build_parser().parse_args(["check", "bol"])
        defaults = asdict(SampleSpec())
        assert {name: getattr(ns, name) for name in defaults} == defaults


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["check", "bol", "--max-len", "3", "--sample", "-5",
              "--exhaustive-limit", "0"], "--sample: must be at least 1, got -5"),
            (["check", "bol", "--max-len", "3", "--sample", "0"],
             "--sample: must be at least 1, got 0"),
            (["enum", "B", "--max-len", "-3"], "--max-len: must be at least 1, got -3"),
            (["check", "bol", "--max-len", "0"], "--max-len: must be at least 1, got 0"),
            (["check", "transversal", "--max-seq", "0"],
             "--max-seq: must be at least 1, got 0"),
            (["ldiv", "a", "b", "--bound", "0"], "--bound: must be at least 1, got 0"),
            (["check", "bol", "--exhaustive-limit", "-1"],
             "--exhaustive-limit: must be at least 0, got -1"),
        ],
    )
    def test_bound_below_its_minimum_is_2(self, capsys, argv, complaint):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"bol2 {argv[0]}: error: argument {complaint}"]

    def test_seed_belongs_to_check_alone(self, capsys):
        code, out, err = run(capsys, "enum", "B", "--max-len", "3", "--seed", "1")
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["bol2: error: unrecognized arguments: --seed 1"]
        assert "Traceback" not in err

    def test_exhaustive_limit_zero_samples(self, capsys):
        code, out, _ = run(
            capsys, "check", "bol", "--max-len", "2", "--exhaustive-limit", "0",
            "--sample", "5", "--format", "json",
        )
        assert code == 0 and json.loads(out)["cases"] == 5

    def test_syntax_error_is_2(self, capsys):
        code, _, err = run(capsys, "normalize", "a(")
        assert code == 2
        assert err == "error: empty word (at position 2)\n"

    def test_unknown_letter_is_2(self, capsys):
        code, _, err = run(capsys, "normalize", "xy")
        assert code == 2 and "unknown letter 'x'" in err

    def test_non_loop_element_is_3(self, capsys):
        code, _, err = run(capsys, "mul", "b((ba)b)", "a")
        assert code == 3
        assert err == (
            "error: 'b((ba)b)' is not a loop element: spine factor (ba)b "
            "is not a basis member (the factor is symmetric)\n"
        )

    def test_budget_exhaustion_is_4(self, capsys):
        code, _, err = run(capsys, "enum", "D", "--max-len", "6", "--budget", "0")
        assert code == 4 and "budget" in err

    @pytest.mark.parametrize("suite", SUITES)
    def test_check_budget_exhaustion_is_4(self, capsys, suite):
        code, out, err = run(capsys, "check", suite, "--max-len", "3", "--budget", "0")
        assert (code, out) == (4, "")
        assert err == "error: wall-clock budget exhausted\n"

    def test_ldiv_budget_exhaustion_is_4(self, capsys):
        # A zero budget is spent before the search starts.
        code, out, err = run(
            capsys, "ldiv", "(b(ba))a", "((((b(ba))a)b)a)b", "--budget", "0"
        )
        assert (code, out) == (4, "")
        assert err == "error: wall-clock budget exhausted\n"

    def test_too_deep_input_is_5(self, capsys):
        # A basis word 1,500 levels deep, (b(...(b(ba))a...))a: it parses,
        # but basis membership recurses through its spine factors.
        a, b = AB.letters
        word = Product(b, a)
        for _ in range(1500):
            word = Product(Product(b, word), a)
        code, out, err = run(capsys, "canon", render(word, AB))
        assert (code, out) == (5, "")
        assert err == "error: input too large for this process (RecursionError)\n"

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_deeply_parenthesized_input_parses(self, capsys, shape):
        # 10,000 nested parentheses: parse keeps its own stack.
        if shape == "left":
            text = render(left_assoc(AB.letters * 5001), AB)
            assert text.startswith("(" * 10_000 + "ab)")
        else:
            text = "a(" * 10_000 + "ab" + ")" * 10_000
        assert run(capsys, "normalize", text) == (0, text + "\n", "")

    def test_canon_of_a_deep_right_comb_is_3(self, capsys):
        # Reduced, but its second spine factor, a(a(...(ab))), has no letter
        # as its right child, so it is no basis word.
        text = "a(" * 10_000 + "ab" + ")" * 10_000
        code, out, err = run(capsys, "canon", text)
        assert (code, out) == (3, "")
        assert err.endswith("is not a basis member\n")
        # The quoted operand and the factor each have about 30,000
        # characters; the diagnosis shows a prefix and the length of each.
        assert err.count("\n") == 1 and len(err.encode()) <= 300
        assert f"({len(text) + 2} characters)" in err

    def test_long_flat_run_is_not_too_deep(self, capsys):
        code, out, err = run(capsys, "normalize", "ab" * 2000)
        assert (code, err) == (0, "")
        assert out.replace("(", "").replace(")", "") == "ab" * 2000 + "\n"

    def test_collapse_under_a_long_flat_run_is_not_too_deep(self, capsys):
        # The bottom square makes every ancestor unreduced, so the normal
        # form descends through all 4,002 letters.
        code, out, err = run(capsys, "normalize", "aa" + "ba" * 2000)
        assert (code, err) == (0, "")
        assert out == render(parse("ba" * 2000, AB), AB) + "\n"

    def test_compare_of_long_flat_runs_is_not_too_deep(self, capsys):
        left, right = "a" + "ba" * 2000, "b" + "ba" * 2000
        assert run(capsys, "compare", left, right) == (0, "less\n", "")
        assert run(capsys, "compare", right, left) == (0, "greater\n", "")

    def test_budget_zero_is_4_for_every_command(self, capsys):
        (commands,) = (
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(commands) == set(COMMANDS)
        for command, operands in COMMANDS.items():
            code, out, err = run(capsys, command, *operands, "--budget", "0")
            assert (code, out, err) == (4, "", EXHAUSTED), command

    def test_budget_stops_transpose_of_a_long_flat_run(self):
        # The family of a 4,000-letter flat run has 7,998 members of that
        # length; the command counts them instead of building them, so it
        # ends well inside its budget.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bol2", "transpose", "ab" * 2000,
             "--budget", "200", "--format", "json"],
            capture_output=True, text=True, timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["family_size"] == 7998
        assert elapsed < 2.0

    def test_timer_is_off_and_handler_restored_after_main(self, capsys):
        def previous(signum, frame):
            pass

        saved = signal.signal(signal.SIGALRM, previous)
        try:
            for code, argv in [
                (0, ["mul", "a", "b", "--budget", "60000"]),
                (0, ["mul", "a", "b", "--budget", "inf"]),
                (2, ["normalize", "a(", "--budget", "60000"]),
                (2, ["mul", "a", "b", "--budget", "nan"]),
                (4, ["check", "bol", "--max-len", "5", "--budget", "20"]),
                (4, ["mul", "a", "b", "--budget", "0"]),
            ]:
                assert run(capsys, *argv)[0] == code, argv
                assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), argv
                assert signal.getsignal(signal.SIGALRM) is previous, argv
        finally:
            signal.signal(signal.SIGALRM, saved)

    def test_interrupted_check_leaves_no_wrong_entry(self, capsys, fresh_cache):
        # Exhaustive over 27,000 tuples: even with every table warm the check
        # takes several times the largest budget below.
        argv = ["check", "bol", "--max-len", "5", "--format", "json"]
        fresh = subprocess.run(
            [sys.executable, "-m", "bol2", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert fresh.returncode == 0
        # Each run goes on from the tables the runs before it filled.
        for ms in ("1", "2", "4", "8", "16"):
            assert run(capsys, *argv, "--budget", ms) == (4, "", EXHAUSTED), ms
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert without_elapsed(out) == without_elapsed(fresh.stdout)

    def test_alarm_in_a_gc_callback_still_ends_the_command(self, capsys, monkeypatch):
        # Python discards an exception raised in a gc callback.  The first
        # product runs a collection whose callback spins while the timer is
        # pending (at most 0.2 s), then a few loops more: the timer expires
        # before its handler runs, at the next backward jump, still in here.
        enumerate_loop_words(AB, 5)  # warm: the first product comes at once

        def spin(phase, info):
            end = time.perf_counter() + 0.2
            while signal.getitimer(signal.ITIMER_REAL)[0] and time.perf_counter() < end:
                pass
            for _ in range(100):
                pass

        real_mul = verify.mul
        collected = []

        def mul(x, y):
            if not collected:
                collected.append(True)
                gc.callbacks.append(spin)
                try:
                    gc.collect()
                finally:
                    gc.callbacks.remove(spin)
            return real_mul(x, y)

        def previous(signum, frame):
            pass

        monkeypatch.setattr(verify, "mul", mul)
        saved = signal.signal(signal.SIGALRM, previous)
        try:
            argv = ["check", "bol", "--max-len", "5", "--budget", "10"]
            assert run(capsys, *argv) == (4, "", EXHAUSTED)
            assert collected == [True]
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is previous
        finally:
            signal.signal(signal.SIGALRM, saved)

    def test_budget_without_setitimer_is_2(self, capsys, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        code, out, err = run(capsys, "mul", "a", "b", "--budget", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: --budget needs signal.setitimer")
        assert err.count("\n") == 1
        assert run(capsys, "mul", "a", "b") == (0, "ab\n", "")

    def test_budget_stops_inside_a_length_level(self):
        # Without a budget this lists every reduced word of up to 11 letters
        # on ab (about 2.5 million); building length 10 alone takes over a
        # second, so the deadline must be checked while a level is built.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bol2", "enum", "W", "--max-len", "11",
             "--budget", "300"],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "error: wall-clock budget exhausted\n"
        assert elapsed < 1.0

    def test_budget_stops_the_carrier_generator(self):
        # The carrier of ab to 40 letters is far too large to list; the
        # generated levels grow about threefold per letter, so the budget
        # must stop the build of a level.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bol2", "enum", "B", "--max-len", "40",
             "--budget", "300"],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "error: wall-clock budget exhausted\n"
        assert elapsed < 1.0

    def test_internal_invariant_failure_is_6(self, capsys, monkeypatch):
        def broken(x, y):
            raise InternalInvariantError("form does not denote its element")

        monkeypatch.setattr(cli, "mul", broken)
        code, out, err = run(capsys, "mul", "a", "b")
        assert (code, out) == (6, "")
        assert err == (
            "error: internal invariant failed: form does not denote its element\n"
        )

    def test_canon_of_identity_is_2(self, capsys):
        code, _, err = run(capsys, "canon", "1")
        assert code == 2
        assert err == "error: the identity word has no canonical form\n"

    def test_check_failure_would_be_1(self, capsys):
        # no real suite fails; exercise the path via a degenerate alphabet
        # where associativity *does* hold, inverted through the nuclei check:
        # over one letter the only non-identity element is central, which the
        # nuclei suite reports as a failure (exit 1).
        code, out, _ = run(capsys, "check", "nuclei", "--max-len", "1",
                           "--alphabet", "a")
        assert code == 1
        assert "verdict: fail" in out

    def test_one_letter_nuclei_names_the_central_element(self, capsys):
        # On one letter the loop is the group of order 2: a is central.
        code, out, _ = run(capsys, "check", "nuclei", "--max-len", "2",
                           "--alphabet", "a")
        assert code == 1
        assert (
            "  non-identity element a passes the middle-nucleus test"
            " at this bound\n"
        ) in out


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bol2", "mul", "a", "b"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ab\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_pipe_ends_the_command_like_a_filter():
    # About 200 KB of listing, more than a pipe holds: after the reader
    # closes, a write meets the closed pipe and SIGPIPE ends the process,
    # with no traceback and not the exit code of a failed check.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bol2", "enum", "B", "--max-len", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")


@pytest.mark.parametrize(
    "code,argv",
    [
        (0, ["mul", "a", "b"]),
        (2, ["enum", "B", "--max-len", "-3"]),
        (4, ["check", "bol", "--budget", "0"]),
    ],
)
def test_console_entry_prints_and_exits_as_main_returns(capsys, code, argv):
    expected = run(capsys, *argv)
    assert expected[0] == code
    proc = subprocess.run(
        [sys.executable, "-m", "bol2", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_console_entry_flushes_both_streams_before_exiting(monkeypatch):
    events = []

    class Stream(io.StringIO):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def flush(self):
            events.append(("flush", self.name))
            super().flush()

    out, err = Stream("stdout"), Stream("stderr")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(sys, "argv", ["bol2", "mul", "a", "b"])
    monkeypatch.setattr(cli.os, "_exit", lambda code: events.append(("exit", code)))
    # run() restores the default SIGPIPE action; give this process its own back.
    pipe_action = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    try:
        cli.run()
    finally:
        if pipe_action is not None:
            signal.signal(signal.SIGPIPE, pipe_action)
    assert (out.getvalue(), err.getvalue()) == ("ab\n", "")
    assert events == [("flush", "stdout"), ("flush", "stderr"), ("exit", 0)]


# A small grammar of argv: every command with too few, enough or too many
# operands, words that are loop elements, malformed or over unknown letters,
# its own flags or another command's, numbers that are valid, out of range or
# not numbers, and alphabets that are not alphabets.
OPERANDS = {"normalize": 1, "compare": 2, "transpose": 1, "mul": 2, "canon": 1,
            "ldiv": 2, "rdiv": 2, "enum": 0, "check": 0}
KINDS = {"check": (*SUITES, "ring"), "enum": ("W", "D", "R", "B", "Q")}
FLAGS = {"check": ["--max-len", "--max-seq", "--sample", "--exhaustive-limit",
                   "--seed"],
         "enum": ["--max-len"], "ldiv": ["--bound"]}
WORDS = st.one_of(
    st.sampled_from(["a", "b", "1", "ab", "ba", "b(ba)", "(b(ba))a", "a(ab)",
                     "b((ba)b)", "(ab)a"]),
    st.text("ab()1xc", max_size=6),
)
NUMBERS = st.sampled_from(["1", "2", "3"] * 2 + ["-1", "0", "nan", "x"])
ALPHABETS = ["ab", "a", "aa", "a(", ""]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command in KINDS:
        argv.append(draw(st.sampled_from(KINDS[command])))
    n = OPERANDS[command]
    n = draw(st.sampled_from([n] * 4 + [abs(n - 1), n + 1]))
    argv += draw(st.lists(WORDS, min_size=n, max_size=n))
    flags = FLAGS.get(command, [])
    if not draw(st.integers(0, 3)):  # now and then, any command's flags
        flags = sum(FLAGS.values(), [])
    if flags:
        for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
            argv += [flag, draw(NUMBERS)]
    if draw(st.booleans()):
        argv += ["--alphabet", draw(st.sampled_from(ALPHABETS))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv + ["--budget", "500"]


@settings(max_examples=300)
@given(argv=argvs())
def test_random_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in range(7) and "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:  # a check found failures: its report, no error
        assert argv[0] == "check" and err == ""
    else:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
