"""Candidate words, the basis fixpoint, and the loop carrier."""

import itertools

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
    is_symmetric,
    parse,
    render,
    spine_factors,
    transpose,
    why_not_in_loop,
)
from bol2 import BudgetExceeded
from bol2.basis import enumerate_filtered
from bol2.words import word_key

from helpers import (
    ABC,
    all_words_up_to,
    candidate_brute,
    carrier_level_sizes,
    reduced_level_sizes,
    transpose_family,
    word_strategy,
)

EXAMPLE_D5 = {
    "a", "b", "ba", "((ba)b)a", "(b(ab))a", "(b(ba))a", "((ba)(ab))a",
    "((a(ba))b)a", "((b(ab))a)b", "((b(ba))b)a", "(b(a(ab)))a", "(b(a(ba)))a",
    "(b(b(ab)))a", "(b(b(ba)))a", "(b((ab)a))a", "(b((ba)b))a",
}

EXAMPLE_R5 = {"a", "b", "ba", "((ba)b)a", "(b(ba))a", "((a(ba))b)a", "((b(ba))b)a"}

# |B_n| and |C_n| on ab for n = 1, ..., 13.
AB_BASIS_SIZES = [2, 1, 0, 2, 2, 7, 18, 49, 128, 355, 990, 2792, 7920]
AB_CARRIER_SIZES = [2, 2, 4, 7, 14, 34, 86, 222, 594, 1627, 4520, 12715, 36142]


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
            assert not is_symmetric(w)
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


class TestLevels:
    def test_a_level_stopped_part_way_is_not_cached(self, monkeypatch):
        alphabet = Alphabet("pqrstu")  # its levels are built by no other test
        key = (len(alphabet), 3)
        made = itertools.count()
        build = basis.new_product

        def stop_at_the_51st(left, right):
            if next(made) == 50:
                raise BudgetExceeded("wall-clock budget exhausted")
            return build(left, right)

        # The level build calls new_product for each word not yet interned.
        # In a fresh process the 30 words of length 2 come first, then the
        # first 20 of length 3 in the word order, all of shape (x p) with x
        # of length 2.  Words over pqrs share their letters' ranks with abcd,
        # so another test may have interned some of them; that only moves
        # the cut further into length 3, where 246 words have a letter t or u.
        monkeypatch.setattr(basis, "new_product", stop_at_the_51st)
        with pytest.raises(BudgetExceeded):
            enumerate_filtered(alphabet, 3, bool)
        assert (len(alphabet), 2) in basis._reduced_words
        assert key not in basis._reduced_words
        monkeypatch.undo()
        words = enumerate_filtered(alphabet, 3, bool)
        assert basis._reduced_words[key] == enumerate_reduced(alphabet, 3)
        assert len(words) == 6 + 30 + len(basis._reduced_words[key])


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

    def test_only_words_ending_in_a_letter_are_memoized(self, ab, fresh_cache):
        # The carrier and the basis are generated, and only the one-letter
        # extensions of the carrier, tried for the basis, are tested for
        # membership: 210 entries, where filtering every reduced word of
        # length <= 8 would memoize all 5,342 that end in a letter.
        enumerate_basis(ab, 8)
        members = basis_by_fixpoint(ab, 8)
        memo = fresh_cache.basis
        assert all(w.reduced and w.right.size == 1 for w in memo)
        assert all(memo[w] == (w in members) for w in memo)
        assert len(memo) == 210
        assert sum(memo.values()) == len(members) - 2  # the letters are not stored

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
