"""Group words over the basis, the loop action, and the check harness.

A group word is a plain tuple of basis words with adjacent entries distinct:
``free_reduce`` multiplies two of them and ``normal_form_chain`` folds one
into a start word, which is its action on the carrier."""

import inspect
import itertools
import json
import random
import subprocess
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from bol2 import (
    IDENTITY,
    Alphabet,
    CheckReport,
    SampleSpec,
    check_identity_suite,
    enumerate_basis,
    enumerate_loop_words,
    mul,
    normal_form_chain,
    parse,
    render,
    spine_factors,
    symmetric_form,
)
from bol2 import cli, loop, verify
from bol2.loop import free_reduce
from bol2.verify import SUITES

from helpers import (
    bol_unshared,
    central_elements,
    choice_cases,
    choice_runs,
    distinct_runs,
    load_script,
    plant_product,
    transversal_brute,
)


def act_without_emptying(spine, *ys):
    """:func:`~bol2.loop.act` with a fault: a stack equal to the spine of the
    next factor ``f`` is pushed onto, not emptied, so the fold leaves the
    non-reduced word ``f f`` inside its result."""
    stack = list(spine)
    for y in ys:
        for f in symmetric_form(y).sequence if y.size else ():
            if not stack:
                stack += spine_factors(f)
            elif stack[-1] is f:
                stack.pop()
            else:
                stack.append(f)
    return tuple(stack)


def gw(ab, *texts):
    return tuple(parse(t, ab) for t in texts)


class TestGroupWord:
    def test_mul_cancels_at_the_seam(self, ab):
        u = gw(ab, "a", "b", "ba")
        v = gw(ab, "ba", "b", "a")
        assert free_reduce(u, v) == ()
        # v reversed starts with a, so nothing cancels at the seam
        assert free_reduce(u, v[::-1]) == gw(ab, "a", "b", "ba", "a", "b", "ba")

    def test_group_axioms_on_small_words(self, ab):
        pool = [t for n in range(0, 3)
                for t in distinct_runs(enumerate_basis(ab, 3), n)]
        for u in pool:
            assert free_reduce(u, u[::-1]) == ()
            assert free_reduce((), u) == u and free_reduce(u, ()) == u
            for v in pool:
                for w in pool:
                    assert free_reduce(free_reduce(u, v), w) == free_reduce(
                        u, free_reduce(v, w)
                    )

    def test_inverse_reverses(self, ab):
        # Generators are involutions, so the inverse is the reversed word.
        u = gw(ab, "a", "ba", "b")
        assert free_reduce(u, u[::-1]) == ()
        assert free_reduce(u[::-1], u) == ()

    def test_seam_cancellation_eats_through(self, ab):
        # (a b) * (b a b): the seam cancels b,b then a,a, leaving (b,)
        assert free_reduce(gw(ab, "a", "b"), gw(ab, "b", "a", "b")) == gw(ab, "b")


class TestAction:
    def test_act_folds_left_to_right(self, ab):
        w = gw(ab, "a", "b")
        assert normal_form_chain(IDENTITY, w) is mul(mul(IDENTITY, w[0]), w[1])
        assert normal_form_chain(IDENTITY, ()) is IDENTITY

    def test_act_composes_with_group_mul_on_stabilizer_free_paths(self, ab):
        # action is by right multiplications, so acting by u then v is acting
        # by the concatenation; seam cancellation respects it because each
        # generator acts as an involution.
        u = gw(ab, "a", "ba")
        v = gw(ab, "ba", "b")
        assert normal_form_chain(normal_form_chain(IDENTITY, u), v) is (
            normal_form_chain(IDENTITY, free_reduce(u, v))
        )

    def test_act_matches_the_mul_fold(self, ab, abc):
        # The fold takes the generators directly; mul goes through each
        # generator's palindromic form, which is the generator itself.
        for alphabet, max_len in [(ab, 5), (abc, 4)]:
            basis_words = enumerate_basis(alphabet, max_len)
            carrier = enumerate_loop_words(alphabet, max_len)
            starts = carrier[:: len(carrier) // 10][:10]
            # The mul fold of each group word, from its one-shorter prefix.
            folded = {(): starts}
            for n in range(1, 4):
                for gens in distinct_runs(basis_words, n):
                    expected = [mul(x, gens[-1]) for x in folded[gens[:-1]]]
                    folded[gens] = expected
                    assert [normal_form_chain(x, gens) for x in starts] == expected

    def test_s_word_is_the_palindrome_of_the_image(self, ab):
        # The palindromic word of the image denotes the image, and the group
        # word times it stabilizes the identity.
        u = gw(ab, "a", "b")
        image = normal_form_chain(IDENTITY, u)
        seq = symmetric_form(image).sequence
        assert seq == seq[::-1] and len(seq) % 2 == 1
        assert normal_form_chain(IDENTITY, seq) is image
        assert normal_form_chain(IDENTITY, free_reduce(u, seq)) is IDENTITY

    def test_action_is_transitive_onto_small_carrier(self, ab):
        # every carrier element of length <= 3 is hit by some short group word
        hits = {normal_form_chain(IDENTITY, t)
                for n in range(0, 4)
                for t in distinct_runs(enumerate_basis(ab, 3), n)}
        assert set(enumerate_loop_words(ab, 3)) <= hits


class TestSuites:
    @pytest.mark.parametrize("which", ["bol", "exp2", "rip"])
    def test_tuple_suites_pass_exhaustively(self, ab, which):
        report = check_identity_suite(which, ab, SampleSpec(max_len=3))
        assert report.ok
        assert report.failures == []
        assert report.seed is None  # exhaustive run, no sampling
        assert "exhaustive" in report.universe

    def test_sampled_run_records_seed(self, ab):
        spec = SampleSpec(max_len=3, exhaustive_limit=10, sample_size=64, seed=11)
        report = check_identity_suite("bol", ab, spec)
        assert report.ok and report.cases == 64 and report.seed == 11
        again = check_identity_suite("bol", ab, spec)
        assert report.universe == again.universe  # deterministic under a seed

    @pytest.mark.parametrize(
        "letters,spec,failing",
        [
            ("ab", SampleSpec(max_len=3), 560),
            ("abc", SampleSpec(max_len=2), 792),
            ("ab", SampleSpec(max_len=4, exhaustive_limit=0, sample_size=500, seed=3), 435),
        ],
    )
    def test_shared_bol_reports_what_the_unshared_law_reports(
        self, letters, spec, failing, monkeypatch
    ):
        # A planted product with its operands swapped breaks the law at most
        # bindings; the suite, which computes ``x y`` and ``(y z) y`` once per
        # binding of their variables, reports the failures of the law tested
        # afresh at every binding.  ``failing`` is what the suite reported
        # before it shared subterms, so the sample draws the same cases.  The
        # first scan runs the real product, so a table that outlived it
        # would hide failures of the second.
        alphabet = Alphabet(letters)
        assert check_identity_suite("bol", alphabet, spec).ok
        plant_product(monkeypatch, lambda x, y: loop.mul(y, x))
        shared = check_identity_suite("bol", alphabet, spec).to_dict()
        law = verify._law("((x y) z) y = x ((y z) y)", 3, lambda pool: bol_unshared)
        unshared = law("bol", alphabet, spec).to_dict()
        del shared["elapsed_ms"], unshared["elapsed_ms"]
        assert shared == unshared
        assert shared["cases"] > len(shared["failures"]) == failing

    def test_a_fold_without_the_empty_rule_is_caught(self, ab, monkeypatch, capsys):
        # The Bol scan builds ``(y z) y`` from a result of the faulty fold
        # and stops at it, exhaustive or sampled.
        argvs = (["check", "bol", "--max-len", "3"],
                 "check bol --max-len 5 --exhaustive-limit 0 --sample 3000 --seed 7".split())
        for argv in argvs:
            assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(verify, "act", act_without_emptying)
        for argv in argvs:
            assert cli.main(argv) == 6
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: internal invariant failed: a fold left a non-reduced word")

    @pytest.mark.parametrize("suite,max_len,cases,failing", [
        ("exp2", 6, 64, 35),
        ("rip", 5, 900, 34),
    ])
    def test_a_fault_in_act_alone_fails_the_compared_laws(
        self, suite, max_len, cases, failing, monkeypatch, capsys
    ):
        # ``exp2`` and ``rip`` only compare spines, so they build no word
        # from the faulty fold: they report its wrong products as failures.
        argv = ["check", suite, "--max-len", str(max_len), "--format", "json"]
        assert cli.main(argv) == 0
        monkeypatch.setattr(verify, "act", act_without_emptying)
        capsys.readouterr()
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["cases"], len(report["failures"]), err) == (cases, failing, "")

    def test_an_exhaustive_bol_scan_interns_few_words(self):
        # The sides of each case are compared as spines: only the scan's
        # ``(y z) y`` products and the canonical forms become words.  In a
        # process of its own, as interned words live as long as one.
        code = (
            "from bol2 import Alphabet, Product, SampleSpec, check_identity_suite\n"
            "before = len(Product._interned)\n"
            "report = check_identity_suite('bol', Alphabet('ab'), SampleSpec(max_len=5))\n"
            "print(report.cases, report.ok, len(Product._interned) - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.stderr == ""
        cases, ok, added = proc.stdout.split()
        assert (cases, ok) == ("27000", "True")
        assert int(added) < 10_000

    def test_nuclei_suite_finds_trivial_middle_nucleus(self, ab):
        report = check_identity_suite("nuclei", ab, SampleSpec(max_len=4))
        assert report.ok
        assert report.cases == len(enumerate_loop_words(ab, 4)) - 1 == 15
        assert report.universe.endswith("exhaustive (15 elements)")

    def test_nuclei_suite_refuses_to_sample(self, ab):
        with pytest.raises(ValueError):
            check_identity_suite("nuclei", ab, SampleSpec(max_len=3, exhaustive_limit=1))

    def test_nuclei_limit_bounds_one_row_of_witness_pairs(self, ab):
        # The row of one element is every pair of the n non-identity
        # elements: a limit of n² runs, and one less refuses.
        n = len(enumerate_loop_words(ab, 4)) - 1
        with pytest.raises(ValueError, match=f"{n * n} > limit {n * n - 1}"):
            check_identity_suite("nuclei", ab, SampleSpec(max_len=4, exhaustive_limit=n * n - 1))
        report = check_identity_suite("nuclei", ab, SampleSpec(max_len=4, exhaustive_limit=n * n))
        assert report.ok and report.cases == n and report.seed is None

    @pytest.mark.parametrize("letters,max_len", [("ab", 4), ("abc", 3), ("a", 3)])
    def test_nuclei_failures_are_the_central_elements(self, letters, max_len):
        # The witness search, which skips the identity as x and y and stops
        # at the first witness, against the full row of every element.
        alphabet = Alphabet(letters)
        report = check_identity_suite("nuclei", alphabet, SampleSpec(max_len=max_len))
        central = central_elements(enumerate_loop_words(alphabet, max_len))
        assert central[0] is IDENTITY
        assert report.failures == [
            f"non-identity element {render(a, alphabet)} passes the middle-nucleus"
            " test at this bound"
            for a in central[1:]
        ]
        assert len(central) == (2 if letters == "a" else 1)

    def test_unique_form_suite(self, ab):
        report = check_identity_suite("unique-form", ab, SampleSpec(max_len=3, max_seq=2))
        assert report.ok
        assert report.cases == 9  # 3 singleton halves + 3*2 pairs
        assert report.seed is None and report.universe.endswith("exhaustive (9 halves)")

    def test_unique_form_sampled_repeats_are_not_collisions(self, ab):
        # 50 draws from 9 halves: repeats are certain, and none is a failure.
        spec = SampleSpec(max_len=3, max_seq=2, exhaustive_limit=1,
                          sample_size=50, seed=4)
        report = check_identity_suite("unique-form", ab, spec)
        assert report.ok and report.cases == 50 and report.seed == 4
        assert "sample of 50 halves (seed 4)" in report.universe
        again = check_identity_suite("unique-form", ab, spec)
        assert report.universe == again.universe

    @pytest.mark.parametrize("which", ["unique-form", "transversal"])
    def test_one_letter_runs_sample_without_hanging(self, which):
        # One basis word, so only the run of length 1 exists: every draw is it.
        spec = SampleSpec(max_len=3, max_seq=3, exhaustive_limit=0,
                          sample_size=20, seed=1)
        report = check_identity_suite(which, Alphabet("a"), spec)
        assert report.ok and report.cases == 20 and report.seed == 1

    @pytest.mark.parametrize("limit", [200_000, 1])
    def test_unique_form_reports_a_wrong_canonical_form(self, ab, monkeypatch, limit):
        # A planted form whose half is reversed: every half of two or more
        # distinct entries is then not the canonical form of its value.
        real = verify.symmetric_form
        monkeypatch.setattr(
            verify, "symmetric_form", lambda v: SimpleNamespace(half=real(v).half[::-1])
        )
        spec = SampleSpec(max_len=3, max_seq=2, exhaustive_limit=limit,
                          sample_size=50, seed=4)
        report = check_identity_suite("unique-form", ab, spec)
        assert not report.ok
        assert all("but is not its canonical form" in f for f in report.failures)
        if limit == 1:
            assert report.seed == 4
        else:
            assert len(report.failures) == 6  # the 3*2 two-entry halves

    def test_unique_form_reports_a_planted_collision(self, ab, monkeypatch):
        # Every half folds to ``a``: only the half ``(a,)`` is that element's
        # canonical form, so each other half of a collision is reported.
        a = parse("a", ab)
        monkeypatch.setattr(verify, "normal_form_chain", lambda head, factors: a)
        report = check_identity_suite("unique-form", ab, SampleSpec(max_len=3, max_seq=2))
        halves = ["(b)", "(ba)", "(a, b)", "(a, ba)", "(b, a)", "(b, ba)",
                  "(ba, a)", "(ba, b)"]
        assert report.failures == [
            f"{half} denotes a but is not its canonical form" for half in halves
        ]

    def test_unknown_suite_is_an_error(self, ab):
        with pytest.raises(ValueError):
            check_identity_suite("associativity", ab)

    def test_report_serialization(self, ab):
        report = check_identity_suite("exp2", ab, SampleSpec(max_len=2))
        d = report.to_dict()
        assert set(d) == {
            "property", "universe", "cases", "failures", "elapsed_ms",
            "seed", "passed",
        }
        assert d["property"] == "exp2" and d["passed"] is True
        assert isinstance(d["elapsed_ms"], float)

    def test_failures_fail_the_report(self):
        bad = CheckReport(name="demo", universe="u", cases=1, failures=["boom"])
        assert not bad.ok
        assert bad.to_dict()["passed"] is False

    def test_suite_names_are_stable(self):
        assert SUITES == (
            "bol", "exp2", "rip", "nuclei", "unique-form", "transversal",
        )


class TestTransversal:
    def test_exhaustive_small(self, ab):
        report = check_identity_suite("transversal", ab, SampleSpec(max_len=3, max_seq=2))
        assert report.ok
        assert report.cases == 9  # 3 + 3*2 group words

    def test_sampled(self, ab):
        spec = SampleSpec(max_len=4, max_seq=3, exhaustive_limit=10,
                          sample_size=40, seed=3)
        report = check_identity_suite("transversal", ab, spec)
        assert report.ok and report.cases == 40 and report.seed == 3

    def test_failure_messages(self, ab, monkeypatch):
        # A planted product that fixes its left operand: no element then
        # squares to the identity, and every one of the 9 group words fails,
        # labelled by its generators.
        plant_product(monkeypatch, lambda x, y: x)
        report = check_identity_suite("transversal", ab, SampleSpec(max_len=3, max_seq=2))
        assert report.failures[8] == (
            "ba*b * its palindromic word does not stabilize the identity"
        )
        assert len(report.failures) == report.cases == 9

    @pytest.mark.parametrize("letters,max_len", [("a", 3), ("ab", 1), ("abc", 1)])
    @pytest.mark.parametrize("max_seq", range(1, 7))
    def test_run_count_is_the_length_of_the_listing(self, letters, max_len, max_seq):
        # One, two and three basis words: the count's three closed forms.
        alphabet = Alphabet(letters)
        spec = SampleSpec(max_len=max_len, max_seq=max_seq)
        _, _, total, every, _ = verify._runs("{}", "runs", alphabet, spec)
        gens = enumerate_basis(alphabet, max_len)
        assert len(gens) == len(letters)
        expected = [run for k in range(1, max_seq + 1) for run in distinct_runs(gens, k)]
        assert total == len(expected)
        assert list(every) == expected

    @pytest.mark.parametrize(
        "letters,max_len,max_seq,runs", [("ab", 5, 4, 1813), ("abc", 3, 3, 657)]
    )
    def test_squaring_is_the_group_side_step(self, letters, max_len, max_seq, runs):
        # The check's ``v v = 1``, with v the element a run denotes, against
        # the group-side step it stands for: the run times the palindromic
        # word of v, freely reduced, folds to the identity.
        gens = enumerate_basis(Alphabet(letters), max_len)
        cases = [run for k in range(1, max_seq + 1) for run in distinct_runs(gens, k)]
        assert len(cases) == runs
        for run in cases:
            v = normal_form_chain(IDENTITY, run)
            assert transversal_brute(run) == (mul(v, v) is IDENTITY), run


class TestSampling:
    """A sample draws the cases that ``random.Random.choice`` and ``randint``
    would draw from the same seed, and reads the same bits."""

    @pytest.mark.parametrize("letters,max_len", [("a", 3), ("ab", 5), ("abc", 3)])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_tuples_are_the_choice_draws(self, letters, max_len, arity):
        alphabet = Alphabet(letters)
        pool = enumerate_loop_words(alphabet, max_len)
        *_, draw = verify._carrier("law", arity, pool, alphabet, SampleSpec(max_len=max_len))
        for seed in range(10):
            rng, oracle = random.Random(seed), random.Random(seed)
            assert list(draw(rng, 50)) == choice_cases(oracle, pool, arity, 50)
            assert rng.getstate() == oracle.getstate()

    # One basis word (``a``, where a run has one entry), three and six.
    @pytest.mark.parametrize("letters,max_len", [("a", 1), ("ab", 3), ("abc", 2)])
    @pytest.mark.parametrize("max_seq", range(1, 6))
    def test_runs_are_the_choice_draws(self, letters, max_len, max_seq):
        alphabet = Alphabet(letters)
        spec = SampleSpec(max_len=max_len, max_seq=max_seq)
        *_, draw = verify._runs("{}", "runs", alphabet, spec)
        gens = enumerate_basis(alphabet, max_len)
        for seed in range(10):
            rng, oracle = random.Random(seed), random.Random(seed)
            assert list(draw(rng, 50)) == choice_runs(oracle, gens, max_seq, 50)
            assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize(
        "universe",
        [
            partial(verify._carrier, "law", 3, enumerate_loop_words(Alphabet("ab"), 5)),
            partial(verify._runs, "{}", "runs"),
        ],
        ids=["tuples", "runs"],
    )
    def test_a_sample_is_drawn_as_it_is_read(self, ab, universe):
        # Tested before the call, since a draw that built its cases first
        # would not return.
        *_, draw = universe(ab, SampleSpec(max_len=5, max_seq=6))
        assert inspect.isgeneratorfunction(draw)
        cases = draw(random.Random(0), 10**12)
        assert iter(cases) is cases
        assert len(list(itertools.islice(cases, 5))) == 5

    @pytest.mark.parametrize("command,cases,failing", [
        ("check bol --max-len 5 --exhaustive-limit 0 --sample 3000 --seed 7", 3000, 2805),
        ("check rip --max-len 6 --exhaustive-limit 0 --sample 500 --seed 3", 500, 477),
    ])
    def test_planted_swap_reports_are_unchanged(self, command, cases, failing, monkeypatch):
        # Under a product with its operands swapped most sampled cases
        # fail, so the report's digest fixes every case drawn.
        golden = load_script("golden")
        plant_product(monkeypatch, lambda x, y: loop.mul(y, x))
        code, report = golden.output(command)
        assert (code, report["cases"], len(report["failures"])) == (1, cases, failing)
        expected = json.loads(golden.GOLDEN.read_text())
        assert golden.digest([code, report]) == expected[f"swapped mul: {command}"]
