"""Candidate words, the basis fixpoint, and the loop carrier."""

import pytest
from hypothesis import given

from bol2 import (
    IDENTITY,
    SHARED_CACHE,
    Alphabet,
    basis,
    basis_by_fixpoint,
    compare,
    enumerate_basis,
    enumerate_candidates,
    enumerate_loop_words,
    enumerate_reduced,
    in_basis,
    in_loop,
    is_candidate,
    is_reduced,
    ldiv,
    normal_form_chain,
    palindromic_split,
    parse,
    render,
    spine_factors,
    transpose,
    why_not_in_loop,
)
from bol2.basis import enumerate_filtered

from helpers import (
    ABC,
    all_words_up_to,
    candidate_brute,
    candidate_by_fold,
    carrier_level_sizes,
    reduced_level_sizes,
    transpose_family,
    word_key,
    word_strategy,
)

EXAMPLE_D5 = {
    "a", "b", "ba", "((ba)b)a", "(b(ab))a", "(b(ba))a", "((ba)(ab))a",
    "((a(ba))b)a", "((b(ab))a)b", "((b(ba))b)a", "(b(a(ab)))a", "(b(a(ba)))a",
    "(b(b(ab)))a", "(b(b(ba)))a", "(b((ab)a))a", "(b((ba)b))a",
}

EXAMPLE_R5 = {"a", "b", "ba", "((ba)b)a", "(b(ba))a", "((a(ba))b)a", "((b(ba))b)a"}

# |B_n| and |C_n| on ab for n = 1, ..., 13, and on abc for n = 1, ..., 9.
AB_BASIS_SIZES = [2, 1, 0, 2, 2, 7, 18, 49, 128, 355, 990, 2792, 7920]
AB_CARRIER_SIZES = [2, 2, 4, 7, 14, 34, 86, 222, 594, 1627, 4520, 12715, 36142]
ABC_BASIS_SIZES = [3, 3, 3, 21, 72, 330, 1497, 7071, 33960]
ABC_CARRIER_SIZES = [3, 6, 21, 75, 309, 1365, 6294, 29871, 145068]


class TestCandidates:
    def test_golden_set(self, ab):
        assert {render(w, ab) for w in enumerate_candidates(ab, 5)} == EXAMPLE_D5

    def test_closed_form_matches_brute_definition(self, ab):
        for w in all_words_up_to(ab, 6):
            assert is_candidate(w) == candidate_brute(w), render(w, ab)

    def test_closed_form_matches_brute_definition_three_letters(self, abc):
        for w in all_words_up_to(abc, 4):
            assert is_candidate(w) == candidate_brute(w), render(w, abc)

    @given(word_strategy(ABC, max_size=7))
    def test_closed_form_matches_brute_sampled(self, w):
        assert is_candidate(w) == candidate_brute(w)

    @pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6), ("abcd", 5)])
    def test_spine_rules_match_the_folded_transpose(self, letters, max_len):
        # Every reduced word: 86,056, 13,101 and 8,680 of them.
        alphabet = Alphabet(letters)
        words = enumerate_filtered(alphabet, max_len, bool)
        assert len(words) == sum(reduced_level_sizes(len(letters), max_len))
        wrong = [w for w in words if is_candidate(w) != candidate_by_fold(w)]
        assert [render(w, alphabet) for w in wrong] == []

    @staticmethod
    def folded_transpose(word):
        return normal_form_chain(IDENTITY, spine_factors(word)[::-1])

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ba", True),  # a before b: the first pair, two letters
            ("ab", False),
            ("((a(ba))b)a", True),  # the first pair is equal; b before ba
            ("((ab)(ba))a", False),  # the transpose of the word above
        ],
    )
    def test_the_order_rule(self, ab, text, expected):
        w = parse(text, ab)
        t = self.folded_transpose(w)
        assert t.size == w.size and t is not w
        assert is_candidate(w) is expected
        assert candidate_by_fold(w) is expected

    @pytest.mark.parametrize("text", ["((b(ab))b)a", "((a(ab))b)a"])
    def test_the_size_rule(self, ab, text):
        # The word precedes its transpose, built as a word of the same size,
        # so the order rule passes it.  But its spine is (b|a, ab, b, a), and
        # ``ab`` is the comb of (a, b), the entries after it reversed: the
        # transpose is not reduced and shrinks, so the word is no candidate.
        w = parse(text, ab)
        assert compare(w, transpose(w)) < 0
        assert spine_factors(spine_factors(w)[1]) == spine_factors(w)[:1:-1]
        assert self.folded_transpose(w).size < w.size
        assert not is_candidate(w)
        assert not candidate_by_fold(w)

    def test_a_palindromic_spine_is_its_own_transpose(self, ab):
        w = parse("(ab)a", ab)
        assert w.reduced and transpose(w) is w
        assert not is_candidate(w)
        assert not candidate_by_fold(w)

    def test_letters_and_identity(self, ab):
        assert is_candidate(parse("a", ab))
        assert not is_candidate(IDENTITY)

    def test_exact_length_counts(self, ab):
        cumulative = [len(enumerate_candidates(ab, n)) for n in range(1, 7)]
        assert cumulative == [2, 3, 3, 6, 16, 77]


class TestBasis:
    def test_golden_set(self, ab):
        assert {render(w, ab) for w in enumerate_basis(ab, 5)} == EXAMPLE_R5
        assert [render(w, ab) for w in enumerate_basis(ab, 4)] == [
            "a", "b", "ba", "((ba)b)a", "(b(ba))a",
        ]

    def test_agrees_with_fixpoint_construction(self, ab):
        for n in range(1, 7):
            assert set(enumerate_basis(ab, n)) == set(basis_by_fixpoint(ab, n)), n

    def test_growth(self, ab):
        assert [len(enumerate_basis(ab, n)) for n in range(1, 8)] == [
            2, 3, 3, 5, 7, 14, 32,
        ]

    def test_excluded_symmetric_factor_words(self, ab):
        # candidates whose own spine factors fall outside the basis
        for text in ["(b((ba)b))a", "(b((ab)a))a"]:
            w = parse(text, ab)
            assert is_candidate(w), text
            assert not in_basis(w), text

    def test_necessary_conditions(self, ab):
        for w in enumerate_basis(ab, 6):
            if w.size == 1:
                continue
            t = transpose(w)
            assert compare(w, t) < 0, render(w, ab)
            assert all(is_reduced(x) for x in transpose_family(w))
            assert spine_factors(w)[-1].size == 1
            assert palindromic_split(w) is None
            assert all(in_basis(f) for f in spine_factors(w))

    @pytest.mark.parametrize(
        "letters,max_len",
        [("ab", n) for n in range(10)]
        + [("abc", n) for n in range(7)]
        + [("abcd", n) for n in range(5)],
    )
    def test_carrier_extensions_match_the_filtered_scan(self, letters, max_len):
        alphabet = Alphabet(letters)
        assert enumerate_basis(alphabet, max_len) == enumerate_filtered(
            alphabet, max_len, in_basis
        )

    def test_membership_is_hereditary(self, ab):
        # basis words of every length <= n appear in the length-n enumeration
        assert set(enumerate_basis(ab, 3)) <= set(enumerate_basis(ab, 6))


class TestCarrier:
    def test_small_golden(self, ab):
        assert [render(w, ab) for w in enumerate_loop_words(ab, 3)] == [
            "1", "a", "b", "ba", "ab", "(ab)a", "(ba)b", "a(ba)", "b(ba)",
        ]

    def test_counts(self, ab):
        assert [len(enumerate_loop_words(ab, n)) for n in range(1, 7)] == [
            3, 5, 9, 16, 30, 64,
        ]

    def test_identity_and_order(self, ab):
        words = enumerate_loop_words(ab, 4)
        assert words[0] is IDENTITY
        rest = list(words[1:])
        assert rest == sorted(rest, key=word_key)

    def test_members_are_reduced_basis_chains(self, ab):
        for w in enumerate_loop_words(ab, 5):
            assert in_loop(w)
            if w.size:
                assert is_reduced(w)
                assert all(in_basis(f) for f in spine_factors(w))

    def test_basis_words_are_carrier_members(self, ab):
        assert all(in_loop(w) for w in enumerate_basis(ab, 6))


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,reason",
        [
            ("(b(ba))a", None),
            ("1", None),
            ("(ab)(ab)", "not reduced: normal form is 1"),
            (
                "b((ba)b)",
                "spine factor (ba)b is not a basis member (the factor is symmetric)",
            ),
            ("a(ab)", "spine factor ab is not a basis member"),
        ],
    )
    def test_why_not_in_loop(self, ab, text, reason):
        assert why_not_in_loop(parse(text, ab), ab) == reason

    def test_diagnosis_agrees_with_membership(self, ab):
        for w in all_words_up_to(ab, 5):
            assert (why_not_in_loop(w, ab) is None) == in_loop(w), render(w, ab)


class TestOrder:
    """No enumerator sorts: each level is built in the word order, and a
    listing filters the levels shortest first."""

    @pytest.mark.parametrize(
        "letters,max_len", [("ab", 8), ("abc", 6), ("abcd", 4), ("a", 4)]
    )
    def test_levels_and_listings_are_in_the_word_order(self, letters, max_len):
        alphabet = Alphabet(letters)
        for n in range(1, max_len + 1):
            level = list(enumerate_reduced(alphabet, n))
            assert level == sorted(level, key=word_key), n
        listings = {
            "filtered": enumerate_filtered(alphabet, max_len, bool),
            "candidates": enumerate_candidates(alphabet, max_len),
            "basis": enumerate_basis(alphabet, max_len),
            "carrier": enumerate_loop_words(alphabet, max_len),
        }
        for name, words in listings.items():
            assert words == sorted(words, key=word_key), name


class TestGenerated:
    """The generated carrier and basis against the filter of every reduced
    word and the basis fixpoint, compared as lists: the same words in the
    same order."""

    BOUNDS = (
        [("ab", n) for n in range(11)]
        + [("abc", n) for n in range(8)]
        + [("abcd", n) for n in range(6)]
        + [("a", n) for n in range(5)]
    )

    @pytest.mark.parametrize("letters,max_len", BOUNDS)
    def test_carrier_equals_the_filtered_scan(self, letters, max_len):
        alphabet = Alphabet(letters)
        assert enumerate_loop_words(alphabet, max_len) == [
            IDENTITY, *enumerate_filtered(alphabet, max_len, in_loop)
        ]

    @pytest.mark.parametrize("letters,max_len", BOUNDS)
    def test_basis_equals_the_sorted_fixpoint(self, letters, max_len):
        alphabet = Alphabet(letters)
        assert enumerate_basis(alphabet, max_len) == sorted(
            basis_by_fixpoint(alphabet, max_len), key=word_key
        )


class TestCounts:
    """Level sizes from the counting recurrences of ``helpers``, which list
    no word."""

    @staticmethod
    def generated_sizes(alphabet, max_len):
        # The generator yields C_1, B_1, C_2, B_2, ...
        sizes = [len(level) for level in basis._levels(alphabet, max_len)]
        return sizes[1::2], sizes[0::2]

    @pytest.mark.parametrize("letters,max_len", [("ab", 13), ("abc", 8)])
    def test_carrier_recurrence_matches_the_generated_levels(self, letters, max_len):
        basis_sizes, carrier_sizes = self.generated_sizes(Alphabet(letters), max_len)
        assert carrier_level_sizes(basis_sizes) == carrier_sizes

    def test_frozen_ab_sizes(self, ab):
        assert self.generated_sizes(ab, 13) == (AB_BASIS_SIZES, AB_CARRIER_SIZES)
        assert carrier_level_sizes(AB_BASIS_SIZES) == AB_CARRIER_SIZES

    def test_frozen_abc_sizes(self, abc):
        assert self.generated_sizes(abc, 9) == (ABC_BASIS_SIZES, ABC_CARRIER_SIZES)
        assert carrier_level_sizes(ABC_BASIS_SIZES) == ABC_CARRIER_SIZES

    @pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
    def test_reduced_recurrence_matches_the_levels(self, letters, max_len):
        alphabet = Alphabet(letters)
        assert reduced_level_sizes(len(alphabet), max_len) == [
            len(enumerate_reduced(alphabet, n)) for n in range(1, max_len + 1)
        ]


class TestCaching:
    def test_shared_cache_has_no_candidate_table(self):
        assert not hasattr(SHARED_CACHE, "candidate")
        assert set(vars(SHARED_CACHE)) == {"basis", "forms"}

    def test_shape_test_leaves_no_entry(self, ab, fresh_cache):
        w = parse("a(ab)", ab)  # reduced, but its right child is no letter
        assert not in_basis(w)
        assert not is_candidate(w)
        assert not fresh_cache.basis

    @pytest.mark.parametrize("letters,max_len", [("ab", 8), ("abc", 6)])
    def test_generated_listings_write_no_table(self, letters, max_len, fresh_cache):
        # The one-letter extensions of the carrier are tried for the basis
        # by the candidate test alone, which keeps no table.
        alphabet = Alphabet(letters)
        enumerate_basis(alphabet, max_len)
        enumerate_loop_words(alphabet, max_len)
        assert not any(vars(fresh_cache).values())
        # The search of ldiv memoizes memberships and forms, and no level.
        a, b = alphabet.letters[:2]
        assert ldiv(a, b, alphabet) is parse("(a(ba))a", alphabet)
        assert set(vars(fresh_cache)) == {"basis", "forms"}

    @pytest.mark.parametrize("letters,max_len", [("ab", 8), ("abc", 6)])
    def test_reduced_listings_write_no_table(self, letters, max_len, fresh_cache):
        # The levels of reduced words live only as long as their generator,
        # and the candidate test keeps no table.
        alphabet = Alphabet(letters)
        enumerate_filtered(alphabet, max_len, bool)
        enumerate_candidates(alphabet, max_len)
        enumerate_reduced(alphabet, max_len)
        assert not any(vars(fresh_cache).values())

    @pytest.mark.parametrize("letters,max_len", [("ab", 8), ("abc", 6)])
    def test_reduced_factor_levels_are_the_word_levels(self, letters, max_len):
        # With every reduced word as a spine factor, each factor level is the
        # word level just yielded, not a copy or a filtered list.
        levels = list(basis._levels(Alphabet(letters), max_len, reduced=True))
        assert len(levels) == 2 * max_len
        for words, factors in zip(levels[0::2], levels[1::2]):
            assert factors is words

    def test_only_words_ending_in_a_letter_are_memoized(self, ab, fresh_cache):
        # Filtering every reduced word of length <= 8 for the carrier tests
        # each spine factor, and memoizes only those that end in a letter.
        enumerate_filtered(ab, 8, in_loop)
        members = basis_by_fixpoint(ab, 8)
        memo = fresh_cache.basis
        assert memo
        assert all(w.reduced and w.right.size == 1 for w in memo)
        assert all(memo[w] == (w in members) for w in memo)

    @pytest.mark.parametrize("letters,max_len", [("ab", 7), ("abc", 5)])
    def test_cold_membership_matches_fixpoint(self, letters, max_len, fresh_cache):
        alphabet = Alphabet(letters)
        members = basis_by_fixpoint(alphabet, max_len)  # fills no table
        assert not fresh_cache.basis
        # Longest first, so that the recursion into spine factors meets
        # empty tables.
        for n in range(max_len, 0, -1):
            for w in enumerate_reduced(alphabet, n):
                assert in_basis(w) == (w in members), render(w, alphabet)

    def test_cache_fills_on_use(self, ab, fresh_cache):
        assert not fresh_cache.basis
        w = parse("((ba)b)a", ab)
        assert in_basis(w)
        assert fresh_cache.basis[w] is True
