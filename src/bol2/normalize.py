"""Reduction of words to normal form.

A word is *reduced* when no subtree has the shape ``uu`` or ``(uv)v``.  The
normal-form map fixes letters and the identity, collapses ``uu`` to ``1`` and
``(uv)v`` to ``u``, and otherwise recurses into both factors.

Reducedness is a field of the word (:attr:`Word.reduced`), set from the two
children when a product is built, so testing it costs constant time.  Every
product step is one step of the fold :func:`normal_form_chain`, which
multiplies a run of reduced, non-identity words into a reduced head and
normalizes nothing.  :func:`normal_form` descends only into the non-reduced
subtrees of a word (with an explicit stack, not recursion) and combines the
normal forms of two children by one such step.  Nothing here keeps a table
of its own.
"""

from __future__ import annotations

from typing import Iterable

from .words import IDENTITY, Product, Word, new_product

__all__ = [
    "InternalInvariantError",
    "is_reduced",
    "normal_form",
    "normal_form_chain",
]


class InternalInvariantError(RuntimeError):
    """A structural fact guaranteed by the theory failed to hold at runtime.

    Seeing this exception means a bug in this package (or an unvalidated
    input smuggled past a precondition), never a property of the input data.
    """


def is_reduced(word: Word) -> bool:
    """No subtree of shape ``uu`` or ``(uv)v``; letters and the identity word
    count as reduced."""
    return word.reduced


def normal_form(word: Word) -> Word:
    """The reduced word obtained by collapsing all squares, bottom-up."""
    if word.reduced:
        return word
    # Post-order over the non-reduced subtrees with an explicit stack, so the
    # depth of a word is not bounded by the recursion limit.  ``None`` marks
    # a node whose two children's normal forms are the last two results.
    done: list[Word] = []
    todo: list[Word | None] = [word]
    while todo:
        w = todo.pop()
        if w is None:
            v = done.pop()
            u = done.pop()
            done.append(u if v is IDENTITY else normal_form_chain(u, (v,)))
        elif w.reduced:
            done.append(w)
        else:
            todo += (None, w.right, w.left)
    return done[0]


def normal_form_chain(head: Word, factors: Iterable[Word]) -> Word:
    """Normal form of the left-associated product ``head f1 f2 ... fn``.

    The head must be reduced and every factor reduced and not the identity
    word; each caller passes such words (spine factors, form sequences, runs
    of basis words), so the fold normalizes nothing.  For normal forms ``u``
    and ``v`` the normal form of ``u v`` is ``1`` if ``u == v``, ``a`` if
    ``u == (a v)``, and otherwise ``(u v)``, which is then reduced.  Each
    step reads the intern table first.  A reduced hit is the next head, as
    neither collapse gives a reduced product: ``(v v)`` and ``((a v) v)``
    are not reduced.  Only a miss or a non-reduced hit goes on to the two
    collapses, and a miss then builds the product without a second read.
    A head or factor outside this contract raises
    :class:`InternalInvariantError` before a word with an identity or a
    non-reduced child is built, and a product read from the intern table
    that no collapse explains is checked to be reduced.

    The fold never builds a non-reduced word, so it can test a
    rearrangement of factors without interning a throwaway one: the result
    has the factors' total size exactly when no collapse happened, and is
    then their left-associated product itself; otherwise it is that
    product's (strictly shorter) normal form.
    """
    if not head.reduced:
        raise InternalInvariantError(f"fold from a non-reduced head: {head!r}")
    acc = head
    get = Product._interned.get
    for f in factors:
        w = get((acc, f))
        if w is not None and w.reduced:
            acc = w
        elif acc is f:
            acc = IDENTITY
        elif acc is IDENTITY:
            if not f.reduced:
                raise InternalInvariantError(f"factor outside the fold: {f!r}")
            acc = f
        elif acc.size > 1 and acc.right is f:  # size > 1: ``acc`` is a product
            acc = acc.left
        else:
            if w is None:
                # ``acc`` is reduced and neither collapse applies, so the
                # product is reduced exactly when ``f`` is.
                if f.size == 0 or not f.reduced:
                    raise InternalInvariantError(f"factor outside the fold: {f!r}")
                w = new_product(acc, f)
            if not w.reduced:
                raise InternalInvariantError(
                    f"product of reduced words is not reduced: {w!r}"
                )
            acc = w
    return acc
