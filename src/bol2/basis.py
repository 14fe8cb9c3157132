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
in one process-wide owner, :data:`SHARED_CACHE`.  This module also owns the
cache of complete length levels of reduced words.  Each level is built in
the word order of :func:`~bol2.words.compare`, from the levels below it, so
no listing sorts.  The carrier is listed by filtering those levels; the basis
is listed from the carrier, as the letters plus the members among its
elements' one-letter extensions ``(c l)``, since every longer basis word has
that shape, tried in the word order.  No function here takes a
time limit: the command line's ``--budget`` interrupts whatever is running
(see :mod:`.cli`), and every table here stores only finished values.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Callable

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
    # Letters are the level of size 1; a longer word is a product of two
    # shorter ones, pruned of the two square collapses at its root.  The
    # loops run in the word order (right factor's size, the right factor in
    # its level's order, then the left factor in its level's order), so a
    # level built from ordered levels is ordered.
    if size == 1:
        return list(map(Letter, range(n_letters)))
    interned = Product._interned
    out: list[Word] = []
    for right_size in range(1, size):
        lefts = _level(n_letters, size - right_size)
        for right in _level(n_letters, right_size):
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
    the word order: shorter first, and each level is built in that order."""
    n_letters = len(alphabet)
    scanned = itertools.chain.from_iterable(
        _level(n_letters, n) for n in range(1, max_len + 1)
    )
    return [w for w in scanned if keep(w)]


def enumerate_candidates(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Candidates of length at most ``max_len``, in the word order."""
    return enumerate_filtered(alphabet, max_len, is_candidate)


def enumerate_basis(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Basis members of length at most ``max_len``, in the word order.

    A basis word longer than one letter is ``(c l)``: its last spine factor
    is a letter ``l``, and the product ``c`` of the others is a carrier
    element.  So the basis is the letters plus the members among the
    one-letter extensions of the carrier elements of length below
    ``max_len``, and the reduced words of length ``max_len`` are never
    listed.  The extensions are tried in the word order, which compares the
    right factor first: by the size of ``c``, then by ``l``, then by ``c``
    in its level's order.
    """
    if max_len < 1:
        return []
    letters = alphabet.letters
    out = list(letters)
    carrier = enumerate_loop_words(alphabet, max_len - 1)[1:]
    for _, level in itertools.groupby(carrier, key=lambda c: c.size):
        level = list(level)
        # ``(c l)`` is reduced unless ``l`` is ``c`` or ``c``'s right child.
        lasts = [c.right if c.size > 1 else c for c in level]
        for letter in letters:
            for c, last in zip(level, lasts):
                if last is not letter:
                    w = Product(c, letter)
                    if in_basis(w):
                        out.append(w)
    return out


def enumerate_loop_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Carrier elements of length at most ``max_len`` (identity included),
    in the word order."""
    return [IDENTITY] + enumerate_filtered(alphabet, max_len, in_loop)


def basis_by_fixpoint(alphabet: Alphabet, max_len: int) -> frozenset[Word]:
    """Basis by explicit length induction: letters seed the set, and a longer
    candidate joins once all its spine factors already have.

    Cross-checks the recursive :func:`in_basis` in the test suite.
    """
    members: set[Word] = set(alphabet.letters)
    for n in range(2, max_len + 1):
        for w in enumerate_reduced(alphabet, n):
            if is_candidate(w) and all(f in members for f in spine_factors(w)):
                members.add(w)
    return frozenset(members)
