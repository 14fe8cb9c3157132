"""Word construction, parsing, rendering, spines and transposes."""

import functools

import pytest
from hypothesis import given

from bol2 import (
    IDENTITY,
    Alphabet,
    Letter,
    Product,
    WordSyntaxError,
    compare,
    enumerate_basis,
    enumerate_candidates,
    enumerate_loop_words,
    enumerate_reduced,
    is_symmetric,
    left_assoc,
    parse,
    render,
    spine_factors,
    transpose,
)
from bol2.basis import enumerate_filtered
from bol2.words import fine_factors, palindromic_split, render_all

from helpers import (
    AB,
    ABC,
    all_words_up_to,
    enumerate_words,
    family_brute,
    palindromic_splits_brute,
    subwords,
    symmetric_brute_set,
    transpose_family,
    transpose_twice,
    word_key,
    word_strategy,
)


class TestAlphabet:
    def test_letters_are_interned(self, ab):
        assert ab.letter("a") is Alphabet("ab").letter("a")
        assert ab.letter("a") is ABC.letter("a")  # index-based, not symbol-set-based

    def test_rejects_bad_symbol_sets(self):
        for bad in ("", "aa", "a b", "a(", "1a", "a)"):
            with pytest.raises(ValueError):
                Alphabet(bad)

    def test_iteration_and_lookup(self, abc):
        assert len(abc) == 3
        assert [abc.name(l.index) for l in abc] == ["a", "b", "c"]
        with pytest.raises(ValueError):
            abc.letter("z")


class TestInterning:
    def test_equal_parses_are_identical(self, ab):
        assert parse("(ba)b", ab) is parse("(ba)b", ab)
        assert parse("bab", ab) is parse("(ba)b", ab)  # flat runs associate left

    def test_product_is_hash_consed(self, ab):
        x = parse("ab", ab)
        assert Product(x, x.left) is Product(x, x.left)

    def test_intern_table_is_keyed_by_the_children(self, ab):
        a, b = ab.letters
        assert Product._interned[a, b] is Product(a, b)

    def test_identity_cannot_be_a_child(self):
        with pytest.raises(ValueError):
            Product(IDENTITY, Letter(0))
        with pytest.raises(ValueError):
            Product(Letter(0), IDENTITY)

    def test_sizes(self, ab):
        assert IDENTITY.size == 0
        assert parse("a", ab).size == 1
        assert parse("(b(ba))a", ab).size == 4


class TestParseRender:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("1", "1"),
            ("a", "a"),
            ("ba", "ba"),
            ("bab", "(ba)b"),
            ("(ba)b", "(ba)b"),
            ("b(ab)", "b(ab)"),
            ("  (b (ba)) a ", "(b(ba))a"),
            ("((a(ba))b)a", "((a(ba))b)a"),
        ],
    )
    def test_round_trip_goldens(self, ab, text, canonical):
        assert render(parse(text, ab), ab) == canonical

    @pytest.mark.parametrize(
        "text,position",
        [(")a", 0), ("a)", 1), ("(a", 2), ("a(", 2), ("", 0), ("ax", 1), ("a1", 1), ("()", 1)],
    )
    def test_syntax_errors_carry_positions(self, ab, text, position):
        with pytest.raises(WordSyntaxError) as exc:
            parse(text, ab)
        assert exc.value.position == position

    @given(word_strategy(ABC, max_size=8))
    def test_round_trip_is_identity(self, w):
        assert parse(render(w, ABC), ABC) is w

    def test_render_rejects_letters_outside_the_alphabet_but_repr_does_not(self, ab):
        w = Product(parse("b", ab), Letter(27))
        with pytest.raises(ValueError, match="outside alphabet"):
            render(w, ab)
        with pytest.raises(ValueError, match="outside alphabet"):
            render_all([w], ab)
        assert repr(w) == "Word('bx27')"
        assert repr(Product(w, Letter(2))) == "Word('(bx27)c')"
        assert repr(IDENTITY) == "Word('1')"

    @pytest.mark.parametrize("letters,max_len", [("ab", 7), ("abc", 5)])
    @pytest.mark.parametrize(
        "enumerate_kind",
        [
            functools.partial(enumerate_filtered, keep=bool),
            enumerate_candidates,
            enumerate_basis,
            enumerate_loop_words,
        ],
        ids=["W", "D", "R", "B"],
    )
    def test_render_all_spells_a_listing_as_render_does(
        self, letters, max_len, enumerate_kind
    ):
        alphabet = Alphabet(letters)
        words = enumerate_kind(alphabet, max_len)
        # Reversed, each word comes before its subwords, so the walk spells
        # every child first.
        for listing in (words, words[::-1]):
            assert render_all(listing, alphabet) == [render(w, alphabet) for w in listing]

    def test_render_all_of_repeats_the_identity_and_unreduced_words(self, ab):
        words = [parse(t, ab) for t in ("1", "aa", "(aa)(aa)", "a", "1", "aa")]
        assert render_all(words, ab) == ["1", "aa", "(aa)(aa)", "a", "1", "aa"]
        assert render_all([], ab) == []

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_render_all_needs_no_recursion(self, ab, shape):
        # 2,001 letters, 2,000 products deep.
        a, b = ab.letters
        if shape == "left":
            w = left_assoc([a] + [b, a] * 1000)
        else:
            w = functools.reduce(lambda acc, y: Product(y, acc), [b, a] * 1000, a)
        assert render_all([w, IDENTITY, w], ab) == [render(w, ab), "1", render(w, ab)]

    def test_identity_only_stands_alone(self, ab):
        with pytest.raises(WordSyntaxError):
            parse("a1", ab)
        with pytest.raises(WordSyntaxError):
            parse("(1)", ab)


class TestSpine:
    def test_golden(self, abc):
        y = parse("(a(bc))((ca)b)", abc)
        assert [render(f, abc) for f in spine_factors(y)] == ["a", "bc", "(ca)b"]
        assert [render(f, abc) for f in fine_factors(y)] == ["a", "bc", "b", "a", "c"]

    def test_identity_has_no_spine(self):
        with pytest.raises(ValueError):
            spine_factors(IDENTITY)

    @given(word_strategy(AB, max_size=8))
    def test_left_assoc_inverts_spine(self, w):
        factors = spine_factors(w)
        assert left_assoc(factors) is w
        assert factors[0].size == 1  # the head of a spine is a letter

    @given(word_strategy(AB, max_size=8))
    def test_fine_factors_spell_the_double_transpose_spine(self, w):
        assert spine_factors(transpose_twice(w)) == fine_factors(w)

    def test_left_assoc_of_nothing_is_identity(self):
        assert left_assoc(()) is IDENTITY


class TestTranspose:
    def test_example_golden(self, abc):
        y = parse("(a(bc))((ca)b)", abc)
        assert render(transpose(y), abc) == "(((ca)b)(bc))a"
        assert render(transpose_twice(y), abc) == "(((a(bc))b)a)c"

    @given(word_strategy(AB, max_size=8))
    def test_transpose_preserves_size(self, w):
        assert transpose(w).size == w.size

    @given(word_strategy(AB, max_size=8))
    def test_triple_transpose_is_single(self, w):
        # t is an involution on the image of t.
        assert transpose(transpose_twice(w)) is transpose(w)
        assert transpose_twice(transpose_twice(w)) is transpose_twice(w)

    @given(word_strategy(AB, max_size=8))
    def test_double_transpose_fixpoints(self, w):
        fixed = transpose_twice(w) is w
        assert fixed == (spine_factors(w)[-1].size == 1)

    def test_letters_are_self_transpose(self, ab):
        a = parse("a", ab)
        assert transpose(a) is a


class TestFamily:
    def test_example_golden(self, abc):
        y = parse("(a(bc))((ca)b)", abc)
        fam = transpose_family(y)
        assert len(fam) == 8
        assert y in fam
        assert transpose(y) in fam and transpose_twice(y) in fam
        assert sorted(render(x, abc) for x in fam) == [
            "(((a(bc))b)a)c",
            "(((ca)b)(bc))a",
            "((a(bc))b)(ca)",
            "((ca)b)(a(bc))",
            "(a(bc))((ca)b)",
            "(ca)((a(bc))b)",
            "a(((ca)b)(bc))",
            "c(((a(bc))b)a)",
        ]

    def test_brute_force_equality(self, ab):
        for w in all_words_up_to(ab, 5):
            assert transpose_family(w) == family_brute(w, ab), render(w, ab)

    def test_cardinality(self, ab, abc):
        # k-1 rearrangements per transpose when the transposes coincide,
        # 2(k-1) otherwise, where k counts fine factors: the count that
        # ``bol2 transpose`` reports without building the family.
        for alphabet, max_len in [(ab, 7), (abc, 5)]:
            for w in all_words_up_to(alphabet, max_len):
                k = len(fine_factors(w))
                twin = transpose(w) is transpose_twice(w)
                expected = max(k - 1 if twin else 2 * (k - 1), 1)
                assert len(transpose_family(w)) == expected, render(w, alphabet)

    def test_minimum(self, ab):
        for w in all_words_up_to(ab, 5):
            fam = transpose_family(w)
            low = min(fam, key=word_key)
            assert low in (transpose(w), transpose_twice(w))


class TestCompare:
    def test_goldens(self, ab):
        ba, ab_ = parse("ba", ab), parse("ab", ab)
        assert compare(ba, ab_) < 0
        assert compare(ab_, ba) > 0
        assert compare(ba, ba) == 0
        assert compare(IDENTITY, ba) < 0
        assert compare(parse("a", ab), parse("ba", ab)) < 0  # shorter first

    def test_sorted_order_of_small_reduced_words(self, ab):
        from bol2 import enumerate_reduced

        two = sorted(enumerate_reduced(ab, 2), key=word_key)
        assert [render(w, ab) for w in two] == ["ba", "ab"]
        assert sorted(enumerate_words(ab, 2), key=word_key) == [
            parse(t, ab) for t in ("aa", "ba", "ab", "bb")
        ]

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_deep_words_need_no_recursion(self, ab, shape):
        # 10,001 letters deep, differing only in the deepest letter.
        a, b = ab.letters
        if shape == "left":
            u, v = (left_assoc([x] + [b, a] * 5000) for x in (a, b))
        else:
            u, v = (
                functools.reduce(lambda acc, y: Product(y, acc), [b, a] * 5000, x)
                for x in (a, b)
            )
        assert (compare(u, v), compare(v, u), compare(u, u)) == (-1, 1, 0)

    @given(word_strategy(AB, 6), word_strategy(AB, 6))
    def test_antisymmetry_and_identity_of_equals(self, u, v):
        assert compare(u, v) == -compare(v, u)
        assert (compare(u, v) == 0) == (u is v)

    @given(word_strategy(AB, 5), word_strategy(AB, 5), word_strategy(AB, 5))
    def test_transitivity(self, u, v, w):
        if compare(u, v) <= 0 and compare(v, w) <= 0:
            assert compare(u, w) <= 0


class TestSymmetric:
    def test_goldens(self, ab):
        assert is_symmetric(parse("(ab)a", ab))
        assert is_symmetric(parse("(ba)b", ab))
        assert is_symmetric(parse("((ab)(ba))(ab)", ab))
        assert not is_symmetric(parse("ba", ab))
        assert not is_symmetric(parse("a", ab))
        assert not is_symmetric(IDENTITY)

    def test_brute_force_equality(self, ab):
        brute = symmetric_brute_set(ab, 6)
        for w in all_words_up_to(ab, 6):
            assert is_symmetric(w) == (w in brute), render(w, ab)

    def test_splits_match_the_built_head_oracle(self, ab, abc):
        words = [
            w
            for alphabet, max_len in ((ab, 8), (abc, 6))
            for n in range(1, max_len + 1)
            for w in enumerate_reduced(alphabet, n)
        ]
        assert len(words) == 29_501
        symmetric = 0
        for w in words:
            # The head is the last spine factor, so there is at most one split.
            brute = palindromic_splits_brute(w)
            assert len(brute) <= 1, repr(w)
            assert palindromic_split(w) == (brute[0] if brute else None), repr(w)
            symmetric += bool(brute)
        assert symmetric > 0

    @given(word_strategy(AB, 3), word_strategy(AB, 2))
    def test_explicit_palindromes_are_symmetric(self, mid, outer):
        assert is_symmetric(left_assoc((outer, mid, outer)))


class TestEnumeration:
    def test_counts_are_catalan_times_letterings(self, ab):
        assert [len(enumerate_words(ab, n)) for n in range(1, 7)] == [
            2, 4, 16, 80, 448, 2688,
        ]

    def test_subwords_golden(self, ab):
        w = parse("(ab)a", ab)
        assert {render(s, ab) for s in subwords(w)} == {"(ab)a", "ab", "a", "b"}

    def test_words_are_alphabet_agnostic(self, ab, abc):
        assert set(enumerate_words(ab, 2)) <= set(enumerate_words(abc, 2))
