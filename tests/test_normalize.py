"""The reduction map: collapses of uu and (uv)v, exhaustively cross-checked
against a literal no-shortcut recursion, plus its algebraic laws."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bol2 import (
    IDENTITY,
    InternalInvariantError,
    Product,
    enumerate_basis,
    enumerate_reduced,
    is_reduced,
    left_assoc,
    normal_form,
    normal_form_chain,
    parse,
    render,
)
from bol2 import normalize

from helpers import (
    AB,
    ABC,
    all_words_up_to,
    check_collapse_reversal,
    check_compose_split,
    check_left_cancellation,
    check_right_congruence,
    check_square_collapse,
    distinct_runs,
    iter_chains,
    normal_form_brute,
    reduced_brute,
    word_key,
    word_strategy,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", "1"),
        ("a", "a"),
        ("aa", "1"),
        ("(ab)b", "a"),
        ("(ab)(ab)", "1"),
        ("((ab)b)a", "1"),
        ("abb", "a"),
        ("a(bb)", "a"),
        ("(bb)a", "a"),
        ("b(ba)", "b(ba)"),
        ("((ba)(ab))(ab)", "ba"),
        ("(a(bb))a", "1"),
        ("(aa)(bb)", "1"),
    ],
)
def test_goldens(ab, text, expected):
    assert render(normal_form(parse(text, ab)), ab) == expected


def test_exhaustive_against_brute_recursion(ab):
    for w in all_words_up_to(ab, 6):
        assert normal_form(w) is normal_form_brute(w), render(w, ab)
        assert is_reduced(w) == reduced_brute(w), render(w, ab)


@given(word_strategy(ABC, max_size=9))
def test_sampled_against_brute_recursion(w):
    assert normal_form(w) is normal_form_brute(w)
    assert is_reduced(w) == reduced_brute(w)


@given(word_strategy(AB, max_size=9))
def test_idempotent_and_shrinking(w):
    nf = normal_form(w)
    assert normal_form(nf) is nf
    assert is_reduced(nf)
    assert nf.size <= w.size
    assert nf.size % 2 == w.size % 2  # every collapse removes an even count


@given(word_strategy(AB, max_size=9).filter(is_reduced))
def test_fixes_reduced_words(w):
    assert normal_form(w) is w


def test_chain_rejects_a_non_reduced_product(ab, monkeypatch):
    # Reduced factors never make one, so break the invariant by hand: once
    # through a corrupt intern entry (a hit), once through a builder that
    # makes a non-reduced word (a miss).  The patched builder writes nothing,
    # so the real intern table gets its entry back unchanged.
    a, b = parse("a", ab), parse("b", ab)
    ab_word = Product(a, b)
    bad = Product(parse("aa", ab), b)
    with monkeypatch.context() as patch:
        patch.setitem(Product._interned, (a, b), bad)
        with pytest.raises(InternalInvariantError, match="not reduced"):
            normal_form_chain(a, (b,))

    with monkeypatch.context() as patch:
        patch.delitem(Product._interned, (a, b))
        patch.setattr(normalize, "new_product", lambda left, right: bad)
        with pytest.raises(InternalInvariantError, match="not reduced"):
            normal_form_chain(a, (b,))
    assert Product._interned[a, b] is ab_word


def test_chain_collapses_past_interned_non_reduced_products(ab):
    # The fold reads the intern table before it takes the collapses, so a
    # collapse's product may be a hit: parsing interned it.  Such a hit is
    # not reduced and must not become the head.
    a, b, ba = parse("a", ab), parse("b", ab), parse("ba", ab)
    for text in ("aa", "(ab)b", "((ba)a)a"):
        assert not parse(text, ab).reduced
    assert normal_form_chain(a, (a,)) is IDENTITY
    assert normal_form_chain(parse("ab", ab), (b,)) is a
    assert normal_form_chain(b, (a, a, a)) is ba
    assert normal_form_chain(IDENTITY, (b, a, a, a, a)) is b
    # With every word of up to 5 letters interned, reduced or not, no fold
    # of reduced words of up to 6 letters in all returns a non-reduced word.
    all_words_up_to(AB, 5)
    chains = 0
    for chain in iter_chains(AB, 6):
        if all(w.reduced for w in chain):
            chains += 1
            folded = normal_form_chain(IDENTITY, chain)
            assert folded.reduced, chain
            assert folded is normal_form_brute(left_assoc(chain)), chain
    assert chains > 1000


def _fold_operands(words):
    """The drawn words as the fold takes them: normalized, identities dropped."""
    return tuple(w for w in map(normal_form, words) if w is not IDENTITY)


@given(st.lists(word_strategy(AB, max_size=4), max_size=5))
def test_chain_folding_matches_tree_reduction(chain):
    chain = _fold_operands(chain)
    assert normal_form_chain(IDENTITY, chain) is normal_form(left_assoc(chain))


@given(word_strategy(AB, 4), st.lists(word_strategy(AB, max_size=3), max_size=4))
def test_chain_folding_with_head(head, rest):
    head, rest = normal_form(head), _fold_operands(rest)
    assert normal_form_chain(head, rest) is normal_form(
        left_assoc(_fold_operands((head,)) + rest)
    )


def test_chain_refuses_operands_outside_its_contract(ab):
    # The fold normalizes nothing: an identity factor, a non-reduced factor
    # or a non-reduced head raises before any word is built, so the intern
    # table is unchanged.
    a, b = parse("a", ab), parse("b", ab)
    not_reduced = parse("((ba)a)a", ab)
    before = dict(Product._interned)
    for head, factors in [
        (a, (IDENTITY,)),
        (IDENTITY, (a, IDENTITY)),
        (not_reduced, (b,)),
        (not_reduced, ()),
        (a, (not_reduced,)),
        (IDENTITY, (not_reduced,)),
    ]:
        with pytest.raises(InternalInvariantError):
            normal_form_chain(head, factors)
    assert Product._interned == before


def test_reduced_chain_criterion_over_basis_words(ab):
    # For chains of basis words with adjacent entries distinct, the spelled
    # word is reduced exactly when no entry equals the product of everything
    # before it, and the first entry does not end in the second.
    pool = enumerate_basis(ab, 4)
    for n in range(1, 5):
        for chain in distinct_runs(pool, n):
            word = left_assoc(chain)
            prefix_hit = any(
                left_assoc(chain[:i]) is chain[i] for i in range(1, n)
            )
            head_tail_hit = (
                n > 1
                and isinstance(chain[0], Product)
                and chain[0].right is chain[1]
            )
            assert is_reduced(word) == (not (prefix_hit or head_tail_hit)), [
                render(c, ab) for c in chain
            ]
    # adjacent repeats, excluded above, always produce a collapse
    a = parse("a", ab)
    assert not is_reduced(left_assoc((a, a)))


def test_collapse_to_identity_is_reversal_invariant(ab):
    # nf(v1 ... vn) = 1  iff  nf(vn ... v1) = 1
    for chain in iter_chains(ab, 6):
        forward = normal_form(left_assoc(chain)) is IDENTITY
        backward = normal_form(left_assoc(chain[::-1])) is IDENTITY
        assert forward == backward, [render(c, ab) for c in chain]


class TestAlgebraSmall:
    """The five normal-form laws at reduced bounds (the acceptance suite
    re-runs them at the full bound)."""

    def test_compose_split(self, ab):
        assert check_compose_split(ab, 5) > 0

    def test_square_collapse(self, ab):
        assert check_square_collapse(ab, 5) > 0

    def test_right_congruence(self, ab):
        assert check_right_congruence(ab, 5) > 0

    def test_collapse_reversal(self, ab):
        assert check_collapse_reversal(ab, 5) > 0

    def test_left_cancellation(self, ab):
        assert check_left_cancellation(ab, 5) > 0


@pytest.mark.parametrize(
    "alphabet,max_len,counts",
    [(AB, 5, [2, 2, 6, 24, 106, 510]), (ABC, 4, [3, 6, 30, 198, 1452])],
    ids=["ab-5", "abc-4"],
)
def test_enumerate_reduced_counts_and_exactness(alphabet, max_len, counts):
    sizes = [len(enumerate_reduced(alphabet, n)) for n in range(1, len(counts) + 1)]
    assert sizes == counts
    # Each level against the brute-force reduced words of its size, in the
    # word order.
    for n in range(1, max_len + 1):
        produced = enumerate_reduced(alphabet, n)
        brute = [
            w for w in all_words_up_to(alphabet, n) if w.size == n and reduced_brute(w)
        ]
        assert produced == sorted(brute, key=word_key)


@pytest.mark.parametrize("shape", ["left", "right"])
def test_deep_combs_need_no_recursion(shape):
    # 10,000 letters deep: far past the interpreter's recursion limit, so
    # reducedness and the normal form of a reduced word must not recurse.
    a, b = AB.letters
    if shape == "left":
        w = left_assoc([a, b] * 5000)
    else:
        w = functools.reduce(lambda acc, x: Product(x, acc), [b, a] * 4999 + [b], a)
    assert w.size == 10_000
    assert is_reduced(w) == reduced_brute(w)
    assert normal_form(w) is w
    square = Product(Product(w, a), a)
    assert is_reduced(square) == reduced_brute(square)
    assert normal_form(square) is w


def test_deep_collapse_needs_no_recursion():
    # The square at the bottom of a 10,002-letter left comb makes every
    # ancestor unreduced, so the normal form walks the whole depth.
    a, b = AB.letters
    w = left_assoc([a, a] + [b, a] * 5000)
    assert not is_reduced(w)
    assert normal_form(w) is left_assoc([b, a] * 5000)
    assert normal_form(Product(w, w)) is IDENTITY
