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

The same fold is a stack machine on spines.  Each of its steps from a
reduced head ``u`` by a basis word ``f`` gives ``1`` when ``u`` is ``f``,
``u.left`` when ``u.right`` is ``f``, and the reduced product ``(u f)``
otherwise, whose spine is ``u``'s with ``f`` appended.  So the spine of
``x * y`` needs only ``x``'s spine and ``y``'s form, much as the reduced
words of the universal Coxeter group are the sequences with no equal
neighbours (Björner and Brenti 2005).  :func:`act` reads each entry ``f``
of each form's sequence and applies the first rule that fits:

* an empty stack becomes ``spine_factors(f)``;
* a last entry that is ``f`` is popped;
* a stack that is ``spine_factors(f)`` empties; its last entry is then
  ``f.right``, so only such a stack is compared, by a walk down ``f``;
* otherwise ``f`` is pushed.

It builds no word, so the checks fold a law's outermost products this way
and compare the two sides as tuples; :func:`mul` keeps the word fold.

The canonical form comes from one identity.  Let ``g`` have the spine
``s = (a1, ..., ak)`` and let ``t`` be the fold of the reversed spine
``s' = (ak, ..., a1)`` through :func:`~bol2.normalize.normal_form_chain`:
the transpose of ``g`` when it keeps the size of ``g``, and the
transpose's normal form when it shrinks, so no non-reduced transpose enters
the intern table.  Then

    form of g  =  s' + (form of t) + s,  freely reduced,

since folding ``s'`` moves the identity to ``t``, the form of ``t`` moves
``t`` to ``t*t = 1``, and ``s`` moves the identity to ``g``.  The spine's
entries are basis members, as ``g`` is a carrier element, so the right side
is an odd palindrome over the basis once :func:`free_reduce` cancels its
equal adjacent entries (involutions), and by uniqueness it is the form.
Two base cases end the recursion that the identity suggests:

* a basis member ``g`` (a letter, or a word whose last spine factor is a
  letter and that precedes its transpose) is its own one-entry form;
* when ``ak`` is a letter and ``t`` keeps the size, the transpose of ``t``
  is ``g`` again, so ``t`` is the basis member of the two and its own
  one-entry form, or, when ``t`` is ``g`` itself, its form is the unique
  odd palindromic factorization of ``g`` over the basis.

Otherwise the identity is applied again to ``t``: a strictly shorter word,
or one of the same size whose last spine factor ``a1`` is a letter, so
that the next step ends or shrinks.  :func:`symmetric_form` applies it in
one loop that collects the reversed spines into a wrap, stops at a base
case or at a ``t`` whose form is already memoized, and conjugates that
core by the wrap.  Only the requested element's form is memoized, once it
is checked to denote the element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    "act",
    "ldiv",
]


@dataclass(frozen=True, slots=True)
class PalindromicForm:
    """An odd palindrome ``h1 ... hm ... h1`` over the basis, stored as its
    half ``(h1, ..., hm)``; adjacent entries are distinct.  The full
    palindrome ``sequence`` is built once, here, and takes no part in
    equality, hashing or ``repr``.  A form is immutable."""

    half: tuple[Word, ...]
    sequence: tuple[Word, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        half = self.half
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
        object.__setattr__(self, "sequence", half + half[-2::-1])


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
    # The steps of the module docstring.  The transpose is folded, not
    # built: ``t`` is the transpose when it kept the size of ``g``, and
    # otherwise the transpose's normal form.
    g, wrap = element, ()
    while True:
        reverse = spine[::-1]
        t = normal_form_chain(IDENTITY, reverse)
        if g.size == 1 or spine[-1].size == 1 and compare(g, t) < 0:
            core = (g,)
            break
        wrap = free_reduce(wrap, reverse)
        if spine[-1].size == 1 and t.size == g.size:
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
        if t.size == 0:
            raise InternalInvariantError(
                f"transpose of {g!r} reduced to unusable {t!r}"
            )
        warm = SHARED_CACHE.forms.get(t)
        if warm is not None:
            core = warm.sequence
            break
        # Either shorter than ``g``, or of its size with a letter last, so
        # at most every other step keeps the size and the loop ends.
        g, spine = t, spine_factors(t)
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


def act(spine: tuple[Word, ...], *ys: Word) -> tuple[Word, ...]:
    """The spine of ``left_assoc(spine) * y1 * ... * yn``, by the stack
    machine of the module docstring; the empty spine is the identity.

    The spine must be a reduced word's, and each ``y`` a carrier element
    (not checked here).  Forms are read as :func:`mul` reads them, and no
    word is built."""
    stack = list(spine)
    push, pop = stack.append, stack.pop
    forms = SHARED_CACHE.forms
    for y in ys:
        if y.size == 0:
            continue
        try:
            form = forms[y]
        except KeyError:
            form = _cold_form(y)
        for f in form.sequence:
            if not stack:
                stack += spine_factors(f)
            elif stack[-1] is f:
                pop()
            elif f.size > 1 and stack[-1] is f.right and _is_spine(stack, f.left):
                stack.clear()
            else:
                push(f)
    return tuple(stack)


def _is_spine(stack: list[Word], w: Word) -> bool:
    """Whether ``stack`` without its last entry is the spine of ``w``: a walk
    down the left children of ``w``, with no tuple built."""
    i = len(stack) - 1
    while w.size > 1:
        i -= 1
        if i < 1 or stack[i] is not w.right:
            return False
        w = w.left
    return i == 1 and stack[0] is w


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
