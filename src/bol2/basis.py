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

Membership does not depend on the alphabet — only letter ranks matter — so
its memo tables, and the canonical-form table of :mod:`.loop`, live in one
process-wide owner, :data:`SHARED_CACHE`.  As the lowest layer that
enumerates, this module also owns the wall-clock budget (:func:`budgeted`).
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Iterable

from .normalize import is_reduced, normal_form
from .words import (
    IDENTITY,
    Alphabet,
    Letter,
    Product,
    Word,
    compare,
    is_symmetric,
    render,
    spine_factors,
    transpose,
    word_key,
)

__all__ = [
    "BudgetExceeded",
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


SHARED_CACHE = SimpleNamespace(candidate={}, basis={}, forms={})
"""The one owner of the memo tables keyed by word: ``candidate`` and ``basis``
(membership flags) and ``forms`` (canonical forms of :mod:`.loop`).  Code
reads each table through this object on every call, never through an alias,
so a table may be replaced at run time."""


class BudgetExceeded(RuntimeError):
    """A command ran past its wall-clock budget."""


def deadline_after(budget_ms: float | None) -> float | None:
    """The deadline ``budget_ms`` milliseconds from now; ``None`` for none."""
    return None if budget_ms is None else time.monotonic() + budget_ms / 1000.0


def budgeted(items: Iterable, deadline: float | None) -> Iterable:
    """``items`` itself without a deadline; otherwise an iterator over them
    that raises :class:`BudgetExceeded` before any item once it has passed."""
    if deadline is None:
        return items
    return _until(deadline, items)


def _until(deadline: float, items: Iterable) -> Iterable:
    for item in items:
        if time.monotonic() >= deadline:
            raise BudgetExceeded("wall-clock budget exhausted")
        yield item


def is_candidate(word: Word) -> bool:
    """Order-minimal representative of a fully reduced transpose family.

    Length-1 words are candidates by convention; the identity word is not.
    """
    if word.size == 0:
        return False
    if word.size == 1:
        return True
    try:
        return SHARED_CACHE.candidate[word]
    except KeyError:
        pass
    ok = False
    if is_reduced(word) and spine_factors(word)[-1].size == 1:
        t = transpose(word)
        ok = t is not word and is_reduced(t) and compare(word, t) < 0
    SHARED_CACHE.candidate[word] = ok
    return ok


def in_basis(word: Word) -> bool:
    """Basis membership: a candidate whose spine factors are all in the basis."""
    if word.size == 0:
        return False
    if word.size == 1:
        return True
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
    """``None`` when the word is a carrier element, else a diagnosis."""
    if word.size == 0:
        return None
    if not is_reduced(word):
        return f"not reduced: normal form is {render(normal_form(word), alphabet)}"
    for f in spine_factors(word):
        if not in_basis(f):
            note = " (the factor is symmetric)" if is_symmetric(f) else ""
            return f"spine factor {render(f, alphabet)} is not a basis member{note}"
    return None


@lru_cache(maxsize=None)
def _reduced_words(n_letters: int, size: int) -> tuple[Word, ...]:
    if size == 1:
        return tuple(Letter(i) for i in range(n_letters))
    out: list[Word] = []
    for left_size in range(1, size):
        for left in _reduced_words(n_letters, left_size):
            for right in _reduced_words(n_letters, size - left_size):
                if left is right:
                    continue
                if isinstance(left, Product) and left.right is right:
                    continue
                out.append(Product(left, right))
    return tuple(out)


def enumerate_reduced(alphabet: Alphabet, size: int) -> tuple[Word, ...]:
    """All reduced words of exactly ``size`` letters, built bottom-up with the
    two square collapses pruned at the root of each product."""
    if size < 1:
        raise ValueError("word size must be at least 1")
    return _reduced_words(len(alphabet), size)


def enumerate_filtered(
    alphabet: Alphabet,
    max_len: int,
    keep: Callable[[Word], bool],
    *,
    deadline: float | None = None,
) -> list[Word]:
    """Reduced words of length at most ``max_len`` that satisfy ``keep``,
    sorted by the word order.  With a deadline the scan checks it before
    each word and raises :class:`BudgetExceeded` once it has passed."""
    scanned = itertools.chain.from_iterable(
        enumerate_reduced(alphabet, n) for n in range(1, max_len + 1)
    )
    out = [w for w in budgeted(scanned, deadline) if keep(w)]
    out.sort(key=word_key)
    return out


def enumerate_candidates(
    alphabet: Alphabet, max_len: int, *, deadline: float | None = None
) -> list[Word]:
    """Candidates of length at most ``max_len``, sorted by the word order."""
    return enumerate_filtered(alphabet, max_len, is_candidate, deadline=deadline)


def enumerate_basis(
    alphabet: Alphabet, max_len: int, *, deadline: float | None = None
) -> list[Word]:
    """Basis members of length at most ``max_len``, sorted by the word order."""
    return enumerate_filtered(alphabet, max_len, in_basis, deadline=deadline)


def enumerate_loop_words(
    alphabet: Alphabet, max_len: int, *, deadline: float | None = None
) -> list[Word]:
    """Carrier elements of length at most ``max_len`` (identity included),
    sorted by the word order."""
    carrier = enumerate_filtered(alphabet, max_len, in_loop, deadline=deadline)
    return [IDENTITY] + carrier


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
