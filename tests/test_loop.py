"""Canonical palindromic forms and the loop operations built on them.

The anchor here is ``palindrome_index``: a brute-force map from every
reduced value to the palindromic basis sequence spelling it, built by
enumerating *all* short sequences and asserting injectivity along the way.
``symmetric_form`` must reproduce that index entry for entry.
"""

import collections
import itertools
import random
import subprocess
import sys

import pytest

from bol2 import (
    IDENTITY,
    Alphabet,
    PalindromicForm,
    Product,
    enumerate_basis,
    enumerate_loop_words,
    fine_factors,
    in_basis,
    in_loop,
    ldiv,
    left_assoc,
    mul,
    normal_form,
    normal_form_chain,
    parse,
    render,
    spine_factors,
    symmetric_form,
)

from bol2 import InternalInvariantError, loop, verify
from bol2.loop import free_reduce

from helpers import (
    AB,
    ABC,
    BOL8,
    bol_loop_search,
    evaluate,
    is_associative,
    is_bol_loop_of_exponent_two,
    palindrome_index,
    word_values,
)


@pytest.fixture(scope="module")
def oracle(ab):
    # entries from R of length <= 4, halves of length <= 5 (long enough to
    # cover every carrier element of length <= 4; some need all five slots)
    return palindrome_index(ab, 4, 5)


class TestOracleAgreement:
    def test_every_oracle_value_round_trips(self, ab, oracle):
        for value, half in oracle.items():
            form = symmetric_form(value)
            assert form.half == half, render(value, ab)
            assert normal_form_chain(IDENTITY, form.sequence) is value

    def test_oracle_values_cover_the_small_carrier(self, ab, oracle):
        # every non-identity carrier element of length <= 4 appears
        for w in enumerate_loop_words(ab, 4):
            if w.size:
                assert w in oracle, render(w, ab)


class TestSymmetricForm:
    @pytest.mark.parametrize(
        "text,half",
        [
            ("a", ["a"]),
            ("ba", ["ba"]),
            ("ab", ["b", "a", "ba"]),
            ("(ab)a", ["a", "b"]),
            ("(ba)b", ["b", "a"]),
            ("a(ba)", ["ba", "a", "b"]),
            ("b(ba)", ["ba", "a"]),
            ("((ba)b)a", ["((ba)b)a"]),
            ("(b(ba))a", ["(b(ba))a"]),
            ("(((ba)b)a)b", ["b", "a", "b"]),
            ("((ab)a)(ba)", ["ba", "a", "b", "a"]),
            # The wrap eats a one-entry core and the middle entries merge.
            ("((b(ba))a)b", ["b", "a", "ba", "b"]),
        ],
    )
    def test_goldens(self, ab, text, half):
        w = parse(text, ab)
        assert [render(h, ab) for h in symmetric_form(w).half] == half

    def test_three_letter_golden(self, abc):
        w = parse("c(ba)", abc)
        assert [render(h, abc) for h in symmetric_form(w).half] == [
            "ba", "a", "b", "(ca)b",
        ]

    def test_wrap_orientation_regression(self, abc):
        # The last spine factor of c(ba) is not a letter, so its form is the
        # form of its transpose (ba)c conjugated by (ba, c).  The wrap that
        # results descends through the spine of ba and climbs back:
        # (ba, a, b, ...).  The ascending variant (ba, b, a, ...) spells a
        # palindrome that folds to a different, longer element — both
        # palindromes are over the basis, only one denotes the input.
        g = parse("c(ba)", abc)
        good = symmetric_form(g)
        assert normal_form_chain(IDENTITY, good.sequence) is g
        swapped = (good.half[0], good.half[2], good.half[1]) + good.half[3:]
        bad = PalindromicForm(swapped)
        assert normal_form_chain(IDENTITY, bad.sequence) is not g

    @pytest.mark.parametrize(
        "letters, max_len, reached",
        [
            ("ab", 9, {"tt shrinks": 18, "t is tt": 27, "t": 150, "tt": 57}),
            ("abc", 6, {"tt shrinks": 12, "t is tt": 30, "t": 353, "tt": 163}),
        ],
    )
    def test_same_size_transpose_of_a_composite_last_factor(
        self, letters, max_len, reached
    ):
        # When the last spine factor is not a letter and the transpose t keeps
        # the size, the form is t's form conjugated by the reversed spine.
        # The element's double transpose tt is t's transpose; each way that
        # t's form can be found is reached (tt shrinks, t is symmetric, t or
        # tt is the basis member).
        alphabet = Alphabet(letters)
        seen = collections.Counter()
        for g in enumerate_loop_words(alphabet, max_len)[1:]:
            spine = spine_factors(g)
            t = normal_form_chain(IDENTITY, spine[::-1])
            if spine[-1].size == 1 or t.size < g.size:
                continue
            conjugated = free_reduce(
                free_reduce(spine[::-1], symmetric_form(t).sequence), spine
            )
            assert symmetric_form(g).sequence == conjugated, render(g, alphabet)
            tt = normal_form_chain(IDENTITY, fine_factors(g))
            if tt.size < g.size:
                seen["tt shrinks"] += 1
            elif t is tt:
                seen["t is tt"] += 1
            else:
                seen["t" if in_basis(t) else "tt"] += 1
        assert seen == reached

    def test_round_trip_on_whole_carrier(self, ab):
        for g in enumerate_loop_words(ab, 5):
            if g.size == 0:
                continue
            form = symmetric_form(g)
            assert normal_form(left_assoc(form.sequence)) is g, render(g, ab)
            for h in form.half:
                assert in_basis(h)

    def test_basis_members_are_singletons(self, ab):
        for r in enumerate_basis(ab, 5):
            assert symmetric_form(r).half == (r,)

    def test_identity_is_rejected(self):
        with pytest.raises(ValueError):
            symmetric_form(IDENTITY)

    def test_non_carrier_words_are_rejected(self, ab, abc):
        with pytest.raises(ValueError, match="not a carrier element"):
            symmetric_form(parse("(a(bc))((ca)b)", abc))
        with pytest.raises(ValueError, match="not a carrier element"):
            symmetric_form(parse("a(ab)", ab))

    def test_wrong_steps_on_a_valid_element_are_internal_errors(
        self, ab, fresh_cache, monkeypatch
    ):
        # The element is in the carrier, so a step that goes wrong is a fault
        # of this package (exit 6 on the command line), never the ValueError
        # of a non-element.  A flipped order picks a non-basis core; a fold
        # that collapses to the identity gives an unusable shrunk transpose.
        element = parse("((ba)b)a", ab)
        with monkeypatch.context() as patch:
            patch.setattr(loop, "compare", lambda u, v: 1)
            with pytest.raises(InternalInvariantError, match="no form for"):
                symmetric_form(element)
        with monkeypatch.context() as patch:
            patch.setattr(loop, "normal_form_chain", lambda head, factors: IDENTITY)
            with pytest.raises(InternalInvariantError, match="unusable"):
                symmetric_form(element)
        assert not fresh_cache.forms
        assert symmetric_form(element).half == (element,)

    def test_a_form_that_denotes_another_element_is_not_memoized(
        self, ab, fresh_cache, monkeypatch
    ):
        # A well-formed palindrome over the basis, but of the wrong element:
        # the core ``a``, planted in the conjugation for ``((ba)b)a``,
        # denotes ``a``.  The denotation check is the one place such a form
        # is caught.
        element, a = parse("((ba)b)a", ab), parse("a", ab)
        real = loop.free_reduce
        monkeypatch.setattr(
            loop,
            "free_reduce",
            lambda left, right: tuple(
                a if w is element else w for w in real(left, right)
            ),
        )
        with pytest.raises(InternalInvariantError, match="does not denote"):
            symmetric_form(element)
        assert not fresh_cache.forms

    def test_a_palindrome_with_no_split_over_the_basis_is_an_internal_error(
        self, ab, fresh_cache, monkeypatch
    ):
        # ``(ba)b`` is its own transpose, so its core is its palindromic
        # split; without one, the steps are wrong, and nothing is memoized.
        element = parse("(ba)b", ab)
        with monkeypatch.context() as patch:
            patch.setattr(loop, "palindromic_split", lambda word: None)
            with pytest.raises(
                InternalInvariantError, match="no palindromic split over the basis"
            ):
                symmetric_form(element)
        assert not fresh_cache.forms
        assert symmetric_form(element).half == (parse("b", ab), parse("a", ab))

    def test_memoized_per_cache(self, ab, fresh_cache):
        w = parse("ab", ab)
        first = symmetric_form(w)
        assert fresh_cache.forms[w] is first
        assert symmetric_form(w) is first
        fresh_cache.forms.clear()
        again = symmetric_form(w)
        assert again is not first and again.half == first.half

    def test_a_cold_form_does_not_recurse(self, ab, fresh_cache, monkeypatch):
        # Every shrunk transpose is stepped through in the one loop, with no
        # call back into ``symmetric_form``, and only the requested element
        # is memoized.
        def recursed(element):
            raise AssertionError(f"symmetric_form called on {element!r}")

        monkeypatch.setattr(loop, "symmetric_form", recursed)
        for g in enumerate_loop_words(ab, 9)[1:]:
            fresh_cache.forms.clear()
            form = loop._cold_form(g)
            assert fresh_cache.forms == {g: form}, render(g, ab)

    def test_forms_with_and_without_memo_hits_agree(
        self, ab, abc, fresh_cache, monkeypatch
    ):
        # A warm pass meets memoized transposes and stops at them; a pass
        # with the table emptied before each element meets none.
        class Hits(dict):
            hits = 0

            def get(self, key, default=None):
                value = dict.get(self, key, default)
                self.hits += value is not None
                return value

        table = Hits()
        monkeypatch.setattr(fresh_cache, "forms", table)
        carrier = [
            g
            for alphabet, max_len in ((ab, 10), (abc, 6))
            for g in enumerate_loop_words(alphabet, max_len)[1:]
        ]
        assert len(carrier) == 4371
        warm = [symmetric_form(g) for g in carrier]
        hits = table.hits
        assert hits > 0
        for g, form in zip(carrier, warm):
            table.clear()
            assert symmetric_form(g) == form, g
        assert table.hits == hits

    def test_cold_forms_intern_no_non_reduced_word(self):
        # A fresh interpreter, so that no word built by another test can hide
        # one.  The transposes are folded, not built: a non-reduced transpose
        # never reaches the intern table.
        script = (
            "from bol2 import Alphabet, Product, SHARED_CACHE,"
            " enumerate_loop_words, symmetric_form\n"
            "for letters, max_len in (('ab', 8), ('abc', 6)):\n"
            "    SHARED_CACHE.forms.clear()\n"
            "    SHARED_CACHE.basis.clear()\n"
            "    carrier = enumerate_loop_words(Alphabet(letters), max_len)[1:]\n"
            "    before = set(Product._interned.values())\n"
            "    for g in carrier:\n"
            "        symmetric_form(g)\n"
            "    added = set(Product._interned.values()) - before\n"
            "    print(len(carrier), sum(not w.reduced for w in added))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "371 0\n1779 0\n"


class TestPalindromicForm:
    def test_sequence_and_word(self, ab):
        a, b = parse("a", ab), parse("b", ab)
        form = PalindromicForm((b, a, b))
        assert form.sequence == (b, a, b, a, b)
        assert render(left_assoc(form.sequence), ab) == "(((ba)b)a)b"

    def test_equality_and_hash_use_the_half_only(self, ab):
        a, b = parse("a", ab), parse("b", ab)
        one, two = PalindromicForm((b, a)), PalindromicForm((b, a))
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert one != PalindromicForm((a, b))
        assert "sequence" not in repr(one)

    def test_fields_cannot_be_assigned_or_deleted(self, ab):
        form = PalindromicForm((parse("b", ab), parse("a", ab)))
        for name in ("half", "sequence"):
            with pytest.raises(AttributeError):
                setattr(form, name, ())
            with pytest.raises(AttributeError):
                delattr(form, name)
        assert render(left_assoc(form.sequence), ab) == "(ba)b"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PalindromicForm(())

    def test_rejects_adjacent_repeats(self, ab):
        a = parse("a", ab)
        with pytest.raises(ValueError):
            PalindromicForm((a, a))

    def test_rejects_non_basis_entries(self, ab):
        with pytest.raises(ValueError):
            PalindromicForm((parse("ab", ab),))
        with pytest.raises(ValueError):
            PalindromicForm((IDENTITY,))


def test_free_reduce_cancels_at_the_seam_only(ab):
    a, b, ba = (parse(t, ab) for t in ("a", "b", "ba"))
    # through the whole seam, and past the end of either side
    assert free_reduce((a, b, ba), (ba, b, a)) == ()
    assert free_reduce((b, a, b), (b, a)) == (b,)
    assert free_reduce((a, b), (b, a, ba)) == (ba,)
    # up to the first mismatch; equal entries past it stay
    assert free_reduce((a, b, ba), (ba, a, b)) == (a, b, a, b)
    assert free_reduce((a, b), (a, b)) == (a, b, a, b)
    # empty sides
    assert free_reduce((), (a, b)) == (a, b)
    assert free_reduce((a, b), ()) == (a, b)
    assert free_reduce((), ()) == ()


class TestMul:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ("a", "b", "ab"),
            ("b", "ab", "((a(ba))a)b"),
            ("ab", "ab", "1"),
            ("ab", "ba", "(ab)(ba)"),
            ("ba", "ab", "(((((ba)b)a)(ba))a)b"),
            ("(ab)a", "b", "((ab)a)b"),
            ("a", "(ba)b", "((ab)a)b"),
            ("1", "(ab)a", "(ab)a"),
            ("(ab)a", "1", "(ab)a"),
            ("1", "1", "1"),
        ],
    )
    def test_goldens(self, ab, x, y, expected):
        got = mul(parse(x, ab), parse(y, ab))
        assert render(got, ab) == expected

    def test_closure(self, ab):
        pool = enumerate_loop_words(ab, 3)
        for x in pool:
            for y in pool:
                assert in_loop(mul(x, y)), (render(x, ab), render(y, ab))

    def test_identity_is_neutral(self, ab):
        for x in enumerate_loop_words(ab, 4):
            assert mul(IDENTITY, x) is x
            assert mul(x, IDENTITY) is x

    def test_every_element_has_order_two(self, ab):
        for x in enumerate_loop_words(ab, 4):
            assert mul(x, x) is IDENTITY

    def test_left_translations_are_injective(self, ab):
        pool = enumerate_loop_words(ab, 4)
        for a in enumerate_loop_words(ab, 2):
            images = {mul(a, x) for x in pool}
            assert len(images) == len(pool), render(a, ab)

    def test_mul_is_the_normal_form_of_the_spelled_palindrome(self, ab, abc):
        # The fold against the tree reduction of the whole word x h1 ... h1.
        for alphabet, max_len in [(ab, 5), (abc, 4)]:
            pool = enumerate_loop_words(alphabet, max_len)
            for y in pool:
                tail = symmetric_form(y).sequence if y.size else ()
                for x in pool:
                    head = (x,) if x.size else ()
                    expected = normal_form(left_assoc(head + tail))
                    assert mul(x, y) is expected, (
                        render(x, alphabet), render(y, alphabet)
                    )

    def test_not_commutative(self, ab):
        x, y = parse("ba", ab), parse("ab", ab)
        assert mul(x, y) is not mul(y, x)


_spine = verify._spine


class TestAct:
    """``act`` against the word fold it stands for."""

    def test_one_product_is_the_spine_of_mul(self, ab, abc):
        # Every pair of ab <= 6 and abc <= 4.  Each basis word is its own
        # one-entry form, so ``act(stack, f)`` takes one step of the stack
        # machine: the steps are checked one at a time, rule by rule, and
        # each rule must be taken somewhere.
        taken = collections.Counter()
        pairs = 0
        for alphabet, max_len in [(ab, 6), (abc, 4)]:
            pool = enumerate_loop_words(alphabet, max_len)
            for x, y in itertools.product(pool, repeat=2):
                pairs += 1
                expected = _spine(mul(x, y))
                assert loop.act(_spine(x), y) == expected
                stack = _spine(x)
                for f in symmetric_form(y).sequence if y.size else ():
                    after = loop.act(stack, f)
                    if not stack:
                        rule, rule_gives = "start", spine_factors(f)
                    elif stack[-1] is f:
                        rule, rule_gives = "pop", stack[:-1]
                    elif stack == spine_factors(f):
                        rule, rule_gives = "empty", ()
                    else:
                        rule, rule_gives = "push", stack + (f,)
                    assert after == rule_gives, (x, y, f, rule)
                    taken[rule] += 1
                    stack = after
                assert stack == expected
        assert pairs == 15_332
        assert set(taken) == {"start", "pop", "empty", "push"}
        assert min(taken.values()) > 0

    def test_a_chain_is_the_spine_of_the_mul_fold(self, ab, abc):
        # ``act(spine(x), y, z, y)``, the left side of the Bol law, against
        # ``((x y) z) y`` folded by ``mul``, on seeded triples.
        rng = random.Random(35)
        for alphabet, max_len in [(ab, 7), (abc, 5)]:
            pool = enumerate_loop_words(alphabet, max_len)
            for _ in range(2_000):
                x, y, z = (rng.choice(pool) for _ in range(3))
                expected = _spine(mul(mul(mul(x, y), z), y))
                assert loop.act(_spine(x), y, z, y) == expected, (x, y, z)

    def test_no_word_is_built(self, ab):
        # On warm forms the fold reads the forms table and builds nothing.
        pool = enumerate_loop_words(ab, 5)
        for y in pool[1:]:
            symmetric_form(y)
        before = len(Product._interned)
        for x, y in itertools.product(pool, repeat=2):
            loop.act(_spine(x), y, x, y)
        assert len(Product._interned) == before


class TestDivision:
    def test_ldiv_finds_short_quotients(self, ab):
        a, b = parse("a", ab), parse("ab", ab)
        assert ldiv(a, b, ab) is parse("b", ab)
        assert ldiv(IDENTITY, b, ab) is b
        assert ldiv(b, IDENTITY, ab) is b  # x*x = 1
        assert ldiv(b, b, ab) is IDENTITY

    def test_ldiv_respects_its_bound(self, ab):
        # the true quotient b \ (ab)a has length 10, beyond the default bound
        b, target = parse("b", ab), parse("(ab)a", ab)
        assert ldiv(b, target, ab) is None
        found = ldiv(b, target, ab, max_len=10)
        assert found is parse("(((((ab)a)(((ba)b)a))a)b)a", ab)
        assert mul(b, found) is target

    def test_left_division_has_a_closed_form(self, ab):
        # a \ b = (a(ba))a: x = y = a and z = ba in the right Bol law give
        # a((a(ba))a) = ((aa)(ba))a = (ba)a = b.
        pool = enumerate_loop_words(ab, 6)
        assert len(pool) == 64
        for a in pool:
            for x in pool:
                b = mul(a, x)
                assert mul(mul(a, mul(b, a)), a) is x, (render(a, ab), render(x, ab))

    def test_ldiv_returns_the_closed_form_quotient(self, ab):
        # The search and the closed form (a(ba))a agree on every quotient,
        # with the bound at the quotient's own length.
        pool = enumerate_loop_words(ab, 5)
        for a in pool:
            for x in pool:
                b = mul(a, x)
                assert ldiv(a, b, ab, max_len=x.size) is x, (render(a, ab), render(x, ab))
                assert mul(mul(a, mul(b, a)), a) is x

    def test_ldiv_inverts_mul_within_bound(self, ab):
        pool = enumerate_loop_words(ab, 2)
        for a in pool:
            for x in pool:
                b = mul(a, x)
                got = ldiv(a, b, ab, max_len=x.size)
                assert got is not None and mul(a, got) is b


def test_first_factor_of_palindrome_values(ab, oracle):
    # The normal form of a basis palindrome b1..bk..b1 is b1 itself (k = 1)
    # or a composite ending in b1; it lies back in the basis only when k = 1.
    for value, half in oracle.items():
        b1 = half[0]
        if len(half) == 1:
            assert value is b1
        else:
            assert value.right is b1, render(value, ab)
            assert not in_basis(value), render(value, ab)


class TestFiniteImage:
    """``mul`` against a homomorphism into a finite Bol loop of exponent two.

    Every assignment of loop elements to the letters extends to the words,
    multiplying each tree as it stands; it respects the two collapses, so a
    carrier element's value is the value of the loop element it denotes,
    and ``mul`` must map to the table's product.  Nothing here calls ``mul``
    to compute an expected value.
    """

    def test_the_table_is_a_bol_loop_of_exponent_two_and_no_group(self):
        assert bol_loop_search(8) == BOL8
        assert is_bol_loop_of_exponent_two(BOL8)
        assert not is_associative(BOL8)
        for order in (2, 4):  # every Bol loop of exponent two this small is a group
            assert bol_loop_search(order) is None
        # Two elements generate the whole loop.
        generated, grown = set(), {2, 4}
        while grown != generated:
            generated = grown
            grown = generated | {BOL8[x][y] for x in generated for y in generated}
        assert generated == set(range(8))

    @pytest.mark.parametrize("letters,max_len", [("ab", 6), ("abc", 3)])
    def test_mul_maps_to_the_table_product(self, letters, max_len):
        alphabet = Alphabet(letters)
        assignments = list(itertools.product(range(8), repeat=len(letters)))
        memo: dict = {}

        def values(w):
            return word_values(w, BOL8, assignments, memo)

        pool = enumerate_loop_words(alphabet, max_len)
        for x in pool:
            for y in pool:
                expected = tuple(BOL8[u][v] for u, v in zip(values(x), values(y)))
                assert values(mul(x, y)) == expected, (
                    render(x, alphabet), render(y, alphabet)
                )


def _swapped(x, y):
    # A planted product with its operands swapped.
    return mul(y, x)


def _self_evaluation_mismatches(product):
    """The carrier elements of ``ab`` <= 9 and ``abc`` <= 6 that, read as
    terms with each letter its own image, do not evaluate to themselves."""
    for alphabet, max_len in ((AB, 9), (ABC, 6)):
        letters = {l: l for l in alphabet.letters}
        for w in enumerate_loop_words(alphabet, max_len)[1:]:
            if evaluate(w, letters, product) is not w:
                yield w


def _endomorphism_mismatches(product):
    """The pairs ``(x, y)`` with ``e(x y) != e(x) e(y)``, over 300 seeded
    endomorphisms ``e`` of the loop on ``ab``, each sending the letters to
    elements of length at most 5, and ten pairs each."""
    rng = random.Random(17)
    pool = enumerate_loop_words(AB, 5)
    for _ in range(300):
        images = {l: rng.choice(pool) for l in AB.letters}
        for _ in range(10):
            x, y = rng.choice(pool), rng.choice(pool)
            ex, ey = evaluate(x, images, product), evaluate(y, images, product)
            if evaluate(product(x, y), images, product) is not product(ex, ey):
                yield x, y


class TestUniversalProperty:
    """The loop is free on its letters, so any images of the letters extend
    to an endomorphism: evaluate each element as a term.  Two consequences
    need no table; each is checked against a planted wrong product too."""

    def test_every_element_evaluates_to_itself(self):
        # 965 and 1,779 elements besides the identity.
        assert len(enumerate_loop_words(AB, 9)) == 966
        assert len(enumerate_loop_words(ABC, 6)) == 1780
        assert next(_self_evaluation_mismatches(mul), None) is None
        assert next(_self_evaluation_mismatches(_swapped), None) is not None

    def test_endomorphisms_respect_the_product(self):
        assert next(_endomorphism_mismatches(mul), None) is None
        assert next(_endomorphism_mismatches(_swapped), None) is not None
