"""Loop multiplication on the carrier via canonical palindromic forms.

Every non-identity carrier element ``g`` is the normal form of exactly one
odd palindrome ``h1 h2 ... hm ... h2 h1`` whose entries are basis words with
adjacent entries distinct (:func:`symmetric_form` computes it, returning the
half ``(h1, ..., hm)``).  The product is then

    x * y  =  normal form of  x h1 h2 ... hm ... h2 h1,

where the palindrome is the one denoting ``y``: :func:`mul` is one
:func:`~bol2.normalize.normal_form_chain` fold of the form's ``sequence``,
which each form builds once, into ``x``.  With the identity word
adjoined this operation makes the carrier a Bol loop in which every element
is its own inverse: ``x*x = 1`` and ``(x*y)*y = x``, so right division is
right multiplication.  Left division has a closed form too,
``a \\ b = (a(ba))a``: put ``x = y = a`` and ``z = ba`` in the right Bol law
``((xy)z)y = x((yz)y)`` to get ``a((a(ba))a) = ((aa)(ba))a = (ba)a = b``.
:func:`ldiv` still finds the quotient by a bounded search.

The canonical form is found by steering a word toward its transposes, in
one loop over a word ``g`` (at first the element) and its spine
``(a1, ..., as)``.  Each step folds one transpose: the reversed spine
``(as, ..., a1)``, folded through :func:`~bol2.normalize.normal_form_chain`,
gives the transpose itself when it keeps the size of ``g``, and the
transpose's normal form when it shrinks, so no non-reduced transpose enters
the intern table.  When ``as`` is a letter, the double transpose is ``g``
itself, so that one fold decides both whether ``g`` is a basis member (a
letter, or it precedes its transpose) and the core.  Every branch below
but the first uses the transpose as a word (the word of the recursion, the
core, or the next word), so a step folds it; only the membership test, as
:func:`~bol2.basis.is_candidate` does, could be read off the spine.  A step
finds the core, or passes a word to the next step:

* a basis member ``g`` is the one-entry core, and adds nothing to the wrap;
* otherwise ``(as, ..., a1)`` joins the wrap.  Then a shrunk transpose is
  a strictly shorter carrier element, and the core is its form, from
  :func:`symmetric_form`: the only recursion;
* else if ``as`` is a letter, the core is the transpose, the basis member,
  or, when the transpose is ``g`` itself, the unique odd palindromic
  factorization of ``g`` over the basis;
* else the transpose is a carrier element of the same size whose last spine
  factor is ``a1``, a letter: it is the next step's word, and its spine is
  the spine of ``as`` followed by ``(a(s-1), ..., a1)``.  Its reversed
  spine begins with ``(a1, ..., a(s-1))``, whose fold is the element's left
  child, so the second step folds its transpose from that left child and
  does not fold those ``s - 1`` factors again.  Its last spine factor is a
  letter, so the second step is the last.

The form is the core conjugated by the wrap, ``wrap + core +
reversed(wrap)``, freely reduced by :func:`free_reduce` (equal adjacent
entries are involutions and cancel).  Every computed form is checked to
denote its element before it is memoized.
"""

from __future__ import annotations

import itertools

from .basis import SHARED_CACHE, _levels, in_basis, in_loop
from .normalize import InternalInvariantError, normal_form_chain
from .words import (
    IDENTITY,
    Alphabet,
    Word,
    compare,
    palindromic_split,
    spine_factors,
)

__all__ = [
    "PalindromicForm",
    "free_reduce",
    "symmetric_form",
    "mul",
    "ldiv",
]


class PalindromicForm:
    """An odd palindrome ``h1 ... hm ... h1`` over the basis, stored as its
    half ``(h1, ..., hm)``; adjacent entries are distinct.  The full
    palindrome ``sequence`` is built once, here, and takes no part in
    equality, hashing or ``repr``.  A form is immutable."""

    __slots__ = ("half", "sequence")

    half: tuple[Word, ...]
    sequence: tuple[Word, ...]

    def __init__(self, half: tuple[Word, ...]) -> None:
        if not half:
            raise ValueError("a palindromic form has at least one entry")
        # One pass; a repeat anywhere is reported before a non-basis entry.
        # A letter is a basis member, so only other entries need the test.
        before = outside = None
        for h in half:
            if h is before:
                raise ValueError(f"adjacent entries must differ: {h!r}")
            if h.size != 1 and outside is None and not in_basis(h):
                outside = h
            before = h
        if outside is not None:
            raise ValueError(f"entry is not a basis member: {outside!r}")
        _set_half(self, half)
        _set_sequence(self, half + half[-2::-1])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.half == other.half
        return NotImplemented

    def __hash__(self):
        return hash((self.half,))

    def __repr__(self):
        return f"PalindromicForm(half={self.half!r})"


# The slots' own setters: ``__init__`` sets each field once, past the
# ``__setattr__`` that makes a form immutable.
_set_half = PalindromicForm.__dict__["half"].__set__
_set_sequence = PalindromicForm.__dict__["sequence"].__set__


def free_reduce(left: tuple[Word, ...], right: tuple[Word, ...]) -> tuple[Word, ...]:
    """Concatenate two sequences of involutions, cancelling the equal entries
    that meet at the seam, pair by pair, up to the first pair that differs."""
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1] is right[j]:
        i -= 1
        j += 1
    return left[:i] + right[j:]


def symmetric_form(element: Word) -> PalindromicForm:
    """The canonical palindromic form of a non-identity carrier element."""
    if element.size == 0:
        raise ValueError("the identity word has no canonical form")
    try:
        return SHARED_CACHE.forms[element]
    except KeyError:
        return _cold_form(element)


def _cold_form(element: Word) -> PalindromicForm:
    """The canonical form of a non-identity word that has none in the forms
    table yet: computed, checked to denote the word, and memoized."""
    # The carrier test of :func:`~bol2.basis.in_loop` on the spine that the
    # first step reads, so a cold form walks the element's spine once.
    # A letter is a basis member, so only the composite factors are tested.
    spine = spine_factors(element)
    if not (element.reduced and all(in_basis(f) for f in spine if f.size > 1)):
        raise ValueError(f"not a carrier element: {element!r}")
    # The steps of the module docstring.  The transpose is folded once, not
    # built: ``t`` is the transpose when it kept the size of ``g``, and
    # otherwise the transpose's normal form.
    g, wrap = element, ()
    reverse = spine[::-1]
    t = normal_form_chain(IDENTITY, reverse)
    while True:
        if g.size == 1 or spine[-1].size == 1 and compare(g, t) < 0:
            core = (g,)
            break
        wrap = free_reduce(wrap, reverse)
        if t.size < g.size:
            # Strictly shorter, so the recursion terminates, and a
            # non-identity carrier element, which the recursive call checks.
            try:
                core = symmetric_form(t).sequence
            except ValueError:
                raise InternalInvariantError(
                    f"transpose of {g!r} reduced to unusable {t!r}"
                ) from None
            break
        if spine[-1].size == 1:
            # The double transpose is ``g`` itself, so a transpose other
            # than ``g`` is the basis member.  A split's entries are spine
            # factors of ``g``, basis members by the carrier test, and the
            # form below tests them again.
            core = (t,) if t is not g else palindromic_split(g)
            if core is None:
                raise InternalInvariantError(
                    f"no palindromic split over the basis: {g!r}"
                )
            break
        # The next word is the transpose: its reversed spine is ``(a1, ...,
        # a(s-1))`` and then the reversed spine of ``as``, and the fold of
        # those first factors is ``g.left``, so its fold starts there.
        tail = spine_factors(spine[-1])[::-1]
        reverse, spine = spine[:-1] + tail, tail[::-1] + reverse[1:]
        g, t = t, normal_form_chain(g.left, tail)
    # Conjugate the core by the wrap; the free reduction of an odd
    # palindrome is one, so its first half is the form.
    sequence = free_reduce(free_reduce(wrap, core), wrap[::-1])
    try:
        form = PalindromicForm(sequence[: (len(sequence) + 1) // 2])
    except ValueError as exc:  # the element is valid, so the steps are wrong
        raise InternalInvariantError(f"no form for {element!r}: {exc}") from None
    if normal_form_chain(IDENTITY, form.sequence) is not element:
        raise InternalInvariantError(
            f"form {form.half!r} does not denote {element!r}"
        )
    SHARED_CACHE.forms[element] = form
    return form


def mul(x: Word, y: Word) -> Word:
    """The loop product: fold the palindrome denoting ``y`` into ``x``.

    Both operands must be carrier elements (not checked here; the command
    line front end validates its inputs)."""
    if y.size == 0:
        return x
    if x.size == 0:
        return y
    # The forms table is read here, not through ``symmetric_form``: in the
    # checks nearly every form is warm, and a miss needs no second read.
    try:
        form = SHARED_CACHE.forms[y]
    except KeyError:
        form = _cold_form(y)
    return normal_form_chain(x, form.sequence)


def ldiv(
    a: Word, b: Word, alphabet: Alphabet, max_len: int | None = None
) -> Word | None:
    """The ``x`` with ``a * x = b``, by search over carrier elements of length
    at most ``max_len`` (default ``|a| + |b| + 2``).

    The quotient always exists, is unique, and is ``(a(ba))a`` (see the
    module docstring); the search returns ``None`` exactly when it is longer
    than the bound, so ``None`` says only that.  The default bound is often
    too short: on ``ab``, 3,314 of the 3,906 ordered pairs of distinct
    non-identity elements of length at most 6 have a longer quotient.  On
    the command line, ``None`` prints ``not-found``, and ``--budget`` stops
    a long search.

    The search reads the levels of reduced words one at a time, as
    :func:`~bol2.basis._levels` builds them with every reduced word as a
    spine factor, filters each whole level to the carrier, and returns after
    the first level that holds the quotient; the identity is no candidate,
    since ``a is b`` is answered first.  So it meets the carrier elements in
    the order of :func:`~bol2.basis.enumerate_loop_words`, keeps no level
    after it returns, and costs the reduced words up to the quotient's
    length.  A level is filtered whole, not scanned lazily: the lazy scan is
    faster, but more benchmark repetitions fit into a run, and the
    peak-memory reading, which includes the harness, rises.  The closed form
    is to replace the search (ROADMAP)."""
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    if a is b:
        return IDENTITY
    bound = max_len if max_len is not None else a.size + b.size + 2
    for level in itertools.islice(_levels(alphabet, bound, reduced=True), 0, None, 2):
        for x in [w for w in level if in_loop(w)]:
            if mul(a, x) is b:
                return x
    return None
