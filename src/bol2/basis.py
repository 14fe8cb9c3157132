"""The canonical generating set and the loop carrier.

A reduced word is a *candidate* when it is the order-minimum of its transpose
family and that family stays reduced.  For a composite word those conditions
collapse to a cheap closed form (checked against the literal definition in
the test suite):

    the word and its transpose are reduced and distinct,
    its last spine factor is a letter      (so transposing twice fixes it),
    and it precedes its transpose in the total order.

*Basis* members are candidates all of whose spine factors are recursively in
the basis; the *carrier* consists of the identity word plus every reduced
word whose spine factors are basis members.  Letters are candidates (and
basis members) by convention.

Whether the word is reduced and whether its last spine factor (its right
child) is a letter are two field reads.  So the candidate test keeps no
table, and only the words that pass those reads are memoized for basis
membership.  Membership does not depend on the alphabet — only letter ranks
matter — so that table, and the canonical-form table of :mod:`.loop`, live
in one process-wide owner, :data:`SHARED_CACHE`.

The carrier and the basis are generated level by level, not filtered: a
carrier element longer than a letter is a carrier element times a basis
word, and a basis word longer than a letter is a carrier element times a
letter, so each level is built from shorter levels of the two (see
:func:`_levels`), and only the one-letter extensions are tested for
membership.  This module also owns the cache of complete length levels of
reduced words, which :func:`enumerate_filtered` scans for the listings
that need every reduced word (all of them, and the candidates), for
:func:`basis_by_fixpoint` and for :func:`~bol2.loop.ldiv`'s search.  Every
level, generated or cached, is built in the word order of
:func:`~bol2.words.compare` from ordered levels below it, so no listing
sorts.  No function here takes a time limit: the command line's
``--budget`` interrupts whatever is running (see :mod:`.cli`), and every
table here stores only finished values; the generated levels are in no
table.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

from .normalize import is_reduced, normal_form, normal_form_chain
from .words import (
    IDENTITY,
    Alphabet,
    Letter,
    Product,
    Word,
    clip,
    compare,
    is_symmetric,
    new_product,
    render,
    spine_factors,
)

__all__ = [
    "SHARED_CACHE",
    "is_candidate",
    "in_basis",
    "in_loop",
    "why_not_in_loop",
    "enumerate_reduced",
    "enumerate_filtered",
    "enumerate_candidates",
    "enumerate_basis",
    "enumerate_loop_words",
    "basis_by_fixpoint",
]


SHARED_CACHE = SimpleNamespace(basis={}, forms={})
"""The one owner of the memo tables keyed by word: ``basis`` (membership
flags of the words that pass the O(1) shape test of :func:`is_candidate`)
and ``forms`` (canonical forms of :mod:`.loop`).  Code reads each table
through this object on every call, never through an alias, so a table may
be replaced at run time."""


def is_candidate(word: Word) -> bool:
    """Order-minimal representative of a fully reduced transpose family.

    Length-1 words are candidates by convention; the identity word is not.
    """
    if word.size < 2:
        return word.size == 1
    # A composite candidate is reduced and its last spine factor, the right
    # child, is a letter: two field reads reject most words outright.
    if not (word.reduced and word.right.size == 1):
        return False
    # The transpose folded, not built: the reversed spine keeps the word's
    # size exactly when the transpose is reduced, and is then the transpose.
    t = normal_form_chain(IDENTITY, spine_factors(word)[::-1])
    # A shrunk fold is shorter and sorts first, and ``compare(word, word)`` is 0.
    return compare(word, t) < 0


def in_basis(word: Word) -> bool:
    """Basis membership: a candidate whose spine factors are all in the basis.

    Only words that pass the shape test of :func:`is_candidate` are memoized.
    """
    if word.size < 2:
        return word.size == 1
    if not (word.reduced and word.right.size == 1):
        return False
    try:
        return SHARED_CACHE.basis[word]
    except KeyError:
        pass
    ok = is_candidate(word) and all(in_basis(f) for f in spine_factors(word))
    SHARED_CACHE.basis[word] = ok
    return ok


def in_loop(word: Word) -> bool:
    """Carrier membership: the identity word, or a reduced word whose spine
    factors are basis members."""
    if word.size == 0:
        return True
    return is_reduced(word) and all(in_basis(f) for f in spine_factors(word))


def why_not_in_loop(word: Word, alphabet: Alphabet) -> str | None:
    """``None`` when the word is a carrier element, else a diagnosis; a long
    word it names is shown by :func:`~bol2.words.clip`."""
    if word.size == 0:
        return None
    if not is_reduced(word):
        shown = clip(render(normal_form(word), alphabet))
        return f"not reduced: normal form is {shown}"
    for f in spine_factors(word):
        if not in_basis(f):
            note = " (the factor is symmetric)" if is_symmetric(f) else ""
            shown = clip(render(f, alphabet))
            return f"spine factor {shown} is not a basis member{note}"
    return None


_reduced_words: dict[tuple[int, int], tuple[Word, ...]] = {}
"""Complete levels of reduced words, keyed by (number of letters, size).
A level is stored in one assignment once built, so a build interrupted part
way through stores nothing."""


def _level(n_letters: int, size: int) -> tuple[Word, ...]:
    """The reduced words of one size, cached once built to the end."""
    try:
        return _reduced_words[n_letters, size]
    except KeyError:
        pass
    # ``_products`` returns a list: a tuple grown from a generator goes back
    # to the youngest garbage-collector generation at each resize and is
    # scanned again, which costs about a tenth of the build.
    level = tuple(_products(n_letters, size))
    _reduced_words[n_letters, size] = level
    return level


def _products(n_letters: int, size: int) -> list[Word]:
    # Letters are the level of size 1; a longer word is a reduced product of
    # two shorter ones.  The right factor's size ascends, so a level built
    # from ordered levels is ordered.
    if size == 1:
        return list(map(Letter, range(n_letters)))
    out: list[Word] = []
    for right_size in range(1, size):
        out += _reduced_products(
            _level(n_letters, size - right_size), _level(n_letters, right_size)
        )
    return out


def _reduced_products(lefts: Sequence[Word], rights: Sequence[Word]) -> list[Word]:
    """The products ``(left right)`` of reduced words that are reduced: every
    pair but those where ``right`` is ``left`` or ``left``'s right child, the
    two square collapses at the root.  The loops run in the word order (the
    right factor, then the left), so two ordered levels, each of one size,
    give an ordered block."""
    interned = Product._interned
    out: list[Word] = []
    for right in rights:
        for left in lefts:
            if left is right or (left.size > 1 and left.right is right):
                continue
            w = interned.get((left, right))
            if w is None:
                w = new_product(left, right)
            out.append(w)
    return out


def enumerate_reduced(alphabet: Alphabet, size: int) -> tuple[Word, ...]:
    """All reduced words of exactly ``size`` letters in the word order, built
    bottom-up in that order with the two square collapses pruned at the root
    of each product."""
    if size < 1:
        raise ValueError("word size must be at least 1")
    return _level(len(alphabet), size)


def enumerate_filtered(
    alphabet: Alphabet, max_len: int, keep: Callable[[Word], bool]
) -> list[Word]:
    """Reduced words of length at most ``max_len`` that satisfy ``keep``, in
    the word order: shorter first, and each level is built in that order.

    This scans every reduced word up to ``max_len`` (about 2.5 million on
    ``ab`` to 11), so the carrier and the basis are generated instead; the
    scan serves the listings of all reduced words and of the candidates,
    and :func:`~bol2.loop.ldiv`'s search."""
    n_letters = len(alphabet)
    scanned = itertools.chain.from_iterable(
        _level(n_letters, n) for n in range(1, max_len + 1)
    )
    return [w for w in scanned if keep(w)]


def enumerate_candidates(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Candidates of length at most ``max_len``, in the word order."""
    return enumerate_filtered(alphabet, max_len, is_candidate)


def _levels(alphabet: Alphabet, max_len: int) -> Iterator[list[Word]]:
    """The carrier level C_n and then the basis level B_n, for n = 1, …,
    ``max_len``, each in the word order and each built only when the caller
    asks for it.

    C_1 and B_1 are the letters.  A longer carrier element is ``(c h)``: its
    last spine factor ``h`` is a basis word of some length j < n, and the
    product ``c`` of the others is a carrier element of length n − j.  So
    C_n is every reduced such product, built block by block, j ascending,
    which keeps the word order.  A longer basis word ends in a letter (a
    candidate's right child is one), so B_n is the members among the first
    block, the products ``(c l)`` with ``c`` in C_{n−1} and a letter ``l``.
    The levels live only as long as the generator.
    """
    letters = list(alphabet.letters)
    carrier: list[list[Word]] = [[]]  # carrier[k] is C_k; the identity is no factor
    basis: list[list[Word]] = [[]]  # basis[j] is B_j
    for n in range(1, max_len + 1):
        level = list(letters) if n == 1 else _reduced_products(carrier[n - 1], letters)
        ends_in_letter = len(level)
        for j in range(2, n):
            level += _reduced_products(carrier[n - j], basis[j])
        carrier.append(level)
        yield level
        basis.append([w for w in level[:ends_in_letter] if in_basis(w)])
        yield basis[n]


def enumerate_basis(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Basis members of length at most ``max_len``, in the word order: the
    basis levels of :func:`_levels`.  Each follows the carrier level of its
    length, so the top carrier level is built too, though only its first
    block is read."""
    levels = itertools.islice(_levels(alphabet, max_len), 1, None, 2)
    return list(itertools.chain.from_iterable(levels))


def enumerate_loop_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Carrier elements of length at most ``max_len`` (identity included),
    in the word order: the carrier levels of :func:`_levels`, read up to
    C_max_len, so that B_max_len is never built."""
    if max_len < 1:
        return [IDENTITY]
    levels = itertools.islice(_levels(alphabet, max_len), 0, 2 * max_len - 1, 2)
    return [IDENTITY, *itertools.chain.from_iterable(levels)]


def basis_by_fixpoint(alphabet: Alphabet, max_len: int) -> frozenset[Word]:
    """Basis by explicit length induction: letters seed the set, and a longer
    candidate joins once all its spine factors already have.

    Cross-checks the recursive :func:`in_basis` in the test suite.
    """
    if max_len < 1:
        return frozenset()
    members: set[Word] = set(alphabet.letters)
    for n in range(2, max_len + 1):
        for w in enumerate_reduced(alphabet, n):
            if is_candidate(w) and all(f in members for f in spine_factors(w)):
                members.add(w)
    return frozenset(members)
