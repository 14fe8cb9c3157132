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
    subword spelled once.

    A listing shares most of its subwords (a level of reduced words is built
    from the levels below it), so the walks share one table of spellings
    that lives only for this call, and a listed word's string is the
    table's own.  The table holds every composite subword, which suits a
    listing of many short words; :func:`render` spells one word in time and
    space linear in its size."""
    spelled: dict[Word, str] = {}
    return [_spell(w, alphabet.name, spelled) for w in words]


def clip(text: str) -> str:
    """``text`` itself up to 60 characters; a longer text is cut to that
    prefix and its length, so a diagnosis naming a word stays short."""
    if len(text) <= 60:
        return text
    return f"{text[:60]}... ({len(text)} characters)"


def _spell(
    word: Word, name: Callable[[int], str], spelled: dict[Word, str] | None = None
) -> str:
    # The one tree walk behind render, render_all and repr; ``name`` spells a
    # letter rank.  An explicit stack of pending subwords and closing marks,
    # so the depth of a word is not bounded by the recursion limit.  A
    # composite's closing mark holds where its spelling starts in ``parts``:
    # 0 for the top level, which stays bare.  Given a table ``spelled``, the
    # walk copies a subword found there instead of walking it, and stores
    # each composite it walks without its outer parentheses.
    if word.size == 0:
        return "1"
    if not isinstance(word, Product):
        return name(word.index)
    if spelled is not None and word in spelled:
        return spelled[word]
    parts: list[str] = []
    stack: list = [(word, 0), word.right, word.left]
    while stack:
        w = stack.pop()
        if isinstance(w, tuple):
            sub, start = w
            if spelled is not None:
                text = spelled[sub] = "".join(parts[start:])
                parts[start:] = (text,)
            if start:
                parts.append(")")
        elif not isinstance(w, Product):
            parts.append(name(w.index))
        elif spelled is not None and w in spelled:
            parts += ("(", spelled[w], ")")
        else:
            parts.append("(")
            stack += ((w, len(parts)), w.right, w.left)
    return parts[0] if spelled is not None else "".join(parts)


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
    while isinstance(word, Product):
        rev.append(word.right)
        word = word.left
    rev.append(word)
    return tuple(reversed(rev))


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

