"""Non-associative binary words over an ordered alphabet.

A word is a full binary tree whose leaves are letters; the product of two
words ``u`` and ``v`` is the tree ``(uv)``.  The product is *not*
associative: ``(ab)c`` and ``a(bc)`` are different words.  The empty word
``1`` acts as a multiplicative identity but never occurs inside a larger
word.  An unparenthesized run of factors associates to the left, so the
string ``bab`` denotes ``(ba)b``.

Every word has a unique maximal left-associated decomposition
``v = v1 v2 ... vm`` (descend through left children until a letter is
reached); we call the tuple ``(v1, ..., vm)`` the *spine* of ``v`` and ``m``
its norm.  Reversing the spine gives the transpose ``v^t``; transposing twice
reverses the finer decomposition obtained by also unfolding the last spine
factor.

Words are interned: building the same tree twice yields the *same* object,
so equality is ``is``, hashing is by id, the intern table of products is
keyed by the pair of children, and the memo tables of the layers above
(basis membership, canonical forms) are plain dicts.  Each word also
carries its size and whether it is reduced (no subtree ``uu`` or ``(uv)v``);
a product computes both from its two children when it is first built.
Interned words live as long as the process, so the layers above test a
rearrangement they do not keep (a transpose, the head of a palindromic
split) without building it: a head is a left descendant of the word, and a
transpose is folded through :func:`~bol2.normalize.normal_form_chain`.

Two walks spell words, each in one mode.  :func:`render` spells one word in
time and space linear in its size.  :func:`render_all` spells a listing
through one table, joining each composite subword's spelling from its two
children's spellings; the table holds each composite subword's full
spelling, so one very deep word costs its depth times its length there.

>>> ab = Alphabet("ab")
>>> w = parse("((ba)b)a", ab)
>>> [render(f, ab) for f in spine_factors(w)]
['b', 'a', 'b', 'a']
>>> render(transpose(w), ab)
'((ab)a)b'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "Word",
    "Letter",
    "Product",
    "IDENTITY",
    "Alphabet",
    "WordSyntaxError",
    "parse",
    "render",
    "render_all",
    "clip",
    "left_assoc",
    "spine_factors",
    "fine_factors",
    "transpose",
    "palindromic_split",
    "is_symmetric",
    "compare",
]


def _debug_name(index: int) -> str:
    # Debugging output spells ranks past z as x26, x27, ...
    return chr(ord("a") + index) if index < 26 else f"x{index}"


class Word:
    """Base class of all words; concrete instances are :class:`Letter`,
    :class:`Product`, or the :data:`IDENTITY` singleton."""

    __slots__ = ()

    size: int  # number of letters (0 for the identity word)
    reduced: bool  # no subtree of shape ``uu`` or ``(uv)v``

    def __repr__(self) -> str:
        return f"Word({_spell(self, _debug_name)!r})"


class _Identity(Word):
    __slots__ = ()
    size = 0
    reduced = True


IDENTITY: Word = _Identity()
"""The empty word: neutral for the product, never a factor of a larger word."""


class Letter(Word):
    """A single letter, identified by its rank in the alphabet."""

    __slots__ = ("index",)
    size = 1
    reduced = True

    _interned: dict[int, "Letter"] = {}

    def __new__(cls, index: int) -> "Letter":
        try:
            return cls._interned[index]
        except KeyError:
            pass
        if index < 0:
            raise ValueError("letter index must be non-negative")
        self = object.__new__(cls)
        self.index = index
        cls._interned[index] = self
        return self


class Product(Word):
    """The word ``(uv)``.  Neither factor may be the identity word."""

    __slots__ = ("left", "right", "size", "reduced")

    _interned: dict[tuple[Word, Word], "Product"] = {}

    def __new__(cls, left: Word, right: Word) -> "Product":
        # ``get``: a miss, which every new word is, raises nothing.
        found = cls._interned.get((left, right))
        if found is not None:
            return found
        if left.size == 0 or right.size == 0:
            raise ValueError("the identity word cannot be a factor")
        return new_product(left, right)


def new_product(left: Word, right: Word) -> Product:
    """Build and intern the word ``(left right)``.

    The caller has already looked the pair up in ``Product._interned`` and
    missed, and neither factor is the identity word; :class:`Product` does
    both before it calls this, and so do the fold of :mod:`.normalize` and
    the level build of :mod:`.basis`, which thereby read the table once per
    new product."""
    self = object.__new__(Product)
    self.left = left
    self.right = right
    self.size = left.size + right.size
    # The root is the only new subtree, so only it can add a violation.
    self.reduced = (
        left.reduced
        and right.reduced
        and left is not right
        and not (isinstance(left, Product) and left.right is right)
    )
    # Words hash and compare by identity, so the pair of children is the
    # key itself: no id integers are boxed per entry or per lookup.
    Product._interned[left, right] = self
    return self


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet; a letter's rank is its position in ``symbols``."""

    symbols: str

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must contain at least one letter")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet has repeated letters: {self.symbols!r}")
        reserved = set(self.symbols) & set("()1") | {c for c in self.symbols if c.isspace()}
        if reserved:
            raise ValueError(f"reserved characters in alphabet: {sorted(reserved)}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Letter]:
        return (Letter(i) for i in range(len(self.symbols)))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self)

    def letter(self, symbol: str) -> Letter:
        index = self.symbols.find(symbol)
        if index < 0:
            raise ValueError(f"unknown letter {symbol!r}")
        return Letter(index)

    def name(self, index: int) -> str:
        if not 0 <= index < len(self.symbols):
            raise ValueError(f"letter #{index} is outside alphabet {self.symbols!r}")
        return self.symbols[index]


class WordSyntaxError(ValueError):
    """Malformed word string; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse(text: str, alphabet: Alphabet) -> Word:
    """Parse a word string.

    Letters and parenthesized groups are juxtaposed; an unparenthesized run
    associates to the left (``bab`` is ``(ba)b``).  The single character
    ``1`` denotes the identity word.  Whitespace between factors is ignored.
    """
    s = text.strip()
    if s == "1":
        return IDENTITY
    # One run of factors per open parenthesis, innermost last: an explicit
    # stack, so the nesting depth is not bounded by the recursion limit.
    runs: list[list[Word]] = [[]]
    for pos, ch in enumerate(s):
        if ch.isspace():
            continue
        if ch == "(":
            runs.append([])
        elif ch == ")":
            group = _close_run(runs, pos)
            if not runs:
                raise WordSyntaxError("unmatched ')'", pos)
            runs[-1].append(group)
        else:
            try:
                runs[-1].append(alphabet.letter(ch))
            except ValueError:
                raise WordSyntaxError(f"unknown letter {ch!r}", pos) from None
    word = _close_run(runs, len(s))
    if runs:
        raise WordSyntaxError("unclosed '('", len(s))
    return word


def _close_run(runs: list[list[Word]], pos: int) -> Word:
    # Pop the innermost run, ended at ``pos``, as one left-associated factor.
    factors = runs.pop()
    if not factors:
        raise WordSyntaxError("empty word", pos)
    return left_assoc(factors)


def render(word: Word, alphabet: Alphabet) -> str:
    """Inverse of :func:`parse`: letters bare, every composite factor
    parenthesized, the top level bare.  The identity word renders as ``1``."""
    return _spell(word, alphabet.name)


def render_all(words: Iterable[Word], alphabet: Alphabet) -> list[str]:
    """``[render(w, alphabet) for w in words]``, with each distinct composite
    subword spelled once, from its two children's spellings.

    A listing shares most of its subwords (a level is built from the levels
    below it), so the spellings go into one table that lives only for this
    call, and a listed word's string is the table's own.  The walk is
    post-order over the subwords not yet in the table, on an explicit stack,
    so the depth of a word is not bounded by the recursion limit.  The table
    holds each composite subword's full spelling, which suits a listing of
    many short words: one very deep word costs its depth times its length
    there, while :func:`render` spells one word in time and space linear in
    its size."""
    name = alphabet.name
    # The identity word and letters bare; a composite without the outer
    # parentheses that it gets as a child.
    spelled: dict[Word, str] = {IDENTITY: "1"}
    listing = []
    for word in words:
        text = spelled.get(word)
        if text is None and not isinstance(word, Product):
            text = spelled[word] = name(word.index)
        elif text is None:
            # The stack is a path down from ``word``: a child not yet
            # spelled is pushed, and a word is spelled once both its
            # children are, so none is spelled twice.
            stack = [word]
            while stack:
                w = stack[-1]
                left = w.left
                right = w.right
                a = spelled.get(left)
                if a is None:
                    if isinstance(left, Product):
                        stack.append(left)
                        continue
                    a = spelled[left] = name(left.index)
                b = spelled.get(right)
                if b is None:
                    if isinstance(right, Product):
                        stack.append(right)
                        continue
                    b = spelled[right] = name(right.index)
                stack.pop()
                if left.size == 1:
                    spelled[w] = a + b if right.size == 1 else f"{a}({b})"
                else:
                    spelled[w] = f"({a}){b}" if right.size == 1 else f"({a})({b})"
            text = spelled[word]
        listing.append(text)
    return listing


def clip(text: str) -> str:
    """``text`` itself up to 60 characters; a longer text is cut to that
    prefix and its length, so a diagnosis naming a word stays short."""
    if len(text) <= 60:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


def _spell(word: Word, name: Callable[[int], str]) -> str:
    # The one-word walk behind render and repr, linear in the word's size;
    # ``name`` spells a letter rank.  An explicit stack of pending subwords
    # and closing marks, so the depth of a word is not bounded by the
    # recursion limit; the top level has no closing mark, so it stays bare.
    if word.size == 0:
        return "1"
    if not isinstance(word, Product):
        return name(word.index)
    parts: list[str] = []
    stack: list = [word.right, word.left]
    while stack:
        w = stack.pop()
        if w is None:
            parts.append(")")
        elif isinstance(w, Product):
            parts.append("(")
            stack += (None, w.right, w.left)
        else:
            parts.append(name(w.index))
    return "".join(parts)


def left_assoc(factors: Iterable[Word]) -> Word:
    """The left-associated product ``((f1 f2) f3) ... fn`` of the factors;
    the empty product is the identity word."""
    it = iter(factors)
    try:
        acc = next(it)
    except StopIteration:
        return IDENTITY
    for f in it:
        acc = Product(acc, f)
    return acc


def spine_factors(word: Word) -> tuple[Word, ...]:
    """The maximal left-associated decomposition ``v = v1 v2 ... vm``.

    Unique, with ``v1`` always a letter.  The identity word has no spine.
    """
    if word.size == 0:
        raise ValueError("the identity word has no spine")
    rev = []
    while word.size > 1:  # a product: a letter has size 1
        rev.append(word.right)
        word = word.left
    rev.append(word)
    rev.reverse()
    return tuple(rev)


def fine_factors(word: Word) -> tuple[Word, ...]:
    """The spine with its last factor unfolded into its own reversed spine.

    This is exactly the spine of ``transpose(transpose(word))``, i.e. the
    finest decomposition reachable by transposing."""
    factors = spine_factors(word)
    return factors[:-1] + spine_factors(factors[-1])[::-1]


def transpose(word: Word) -> Word:
    """Reverse the spine: ``v1 v2 ... vm  ->  vm ... v2 v1``.

    This builds the transpose, reduced or not; the command line prints it.
    """
    return left_assoc(spine_factors(word)[::-1])


def palindromic_split(word: Word) -> tuple[Word, ...] | None:
    """The odd palindromic product ``u1 u2 ... um ... u2 u1`` with at least
    three factors whose left-associated word is ``word``, as its factors, or
    ``None`` when there is none.

    Every left-associated factorization coarsens the spine, so a split is a
    head run of spine factors (the candidate ``u1``) followed by an even
    number of single factors.  The head must be the last spine factor, whose
    size fixes the length of the run, so there is at most one split.  The
    head of a run is a left descendant of ``word``: it is found by stepping
    down left children, and no word is built.
    """
    if word.size < 3:
        return None
    factors = spine_factors(word)
    last = factors[-1]
    # ``head`` is the product of the first ``j`` spine factors.
    head, j = word, len(factors)
    while head.size > last.size:
        head = head.left
        j -= 1
    between = factors[j:-1]
    if head is last and len(between) % 2 and between == between[::-1]:
        return (head,) + factors[j:]
    return None


def is_symmetric(word: Word) -> bool:
    """Whether the word is an odd palindromic product ``u1 u2 ... um ... u2 u1``
    with at least three factors."""
    return palindromic_split(word) is not None


def compare(u: Word, v: Word) -> int:
    """Total order on words: shorter first; same-length letters by rank;
    same-length composites by right factor, then left.  Returns -1, 0, or 1.

    The identity word (length 0) sorts below everything else.
    """
    if u is v:
        return 0
    # Right children first; the left children wait on an explicit stack, so
    # the depth of a word is not bounded by the recursion limit.
    pending: list[Word] = []
    while True:
        if u.size != v.size:
            return -1 if u.size < v.size else 1
        if u.size == 1:
            return -1 if u.index < v.index else 1
        pending.append(u.left)
        pending.append(v.left)
        u = u.right
        v = v.right
        while u is v:
            if not pending:
                return 0
            v = pending.pop()
            u = pending.pop()

