"""Brute-force oracles and exhaustive enumeration helpers for the test suite.

Everything here recomputes claims straight from the definitions — scanning
whole subtree sets, literal recursions, explicit family searches — on purpose
ignoring the package's memoized fast paths, so that agreement between the two
is evidence and not tautology.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st

from bol2 import (
    IDENTITY,
    Alphabet,
    Letter,
    Product,
    Word,
    compare,
    enumerate_basis,
    fine_factors,
    is_reduced,
    left_assoc,
    normal_form,
    normal_form_chain,
    spine_factors,
    transpose,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")


def word_strategy(alphabet: Alphabet, max_size: int = 6):
    """Hypothesis strategy over arbitrary (not necessarily reduced) words."""
    letters = st.sampled_from(alphabet.letters)
    return st.recursive(
        letters, lambda children: st.builds(Product, children, children),
        max_leaves=max_size,
    )


@functools.lru_cache(maxsize=None)
def _all_words(n_letters: int, size: int) -> tuple[Word, ...]:
    if size == 1:
        return tuple(Letter(i) for i in range(n_letters))
    return tuple(
        Product(left, right)
        for left_size in range(1, size)
        for left in _all_words(n_letters, left_size)
        for right in _all_words(n_letters, size - left_size)
    )


def enumerate_words(alphabet: Alphabet, size: int) -> tuple[Word, ...]:
    """Every word with exactly ``size`` letters over the alphabet
    (Catalan(size-1) * n**size of them)."""
    if size < 1:
        raise ValueError("word size must be at least 1")
    return _all_words(len(alphabet), size)


def all_words_up_to(alphabet: Alphabet, max_len: int) -> list[Word]:
    return [
        w
        for n in range(1, max_len + 1)
        for w in enumerate_words(alphabet, n)
    ]


def iter_chains(alphabet: Alphabet, max_total: int, min_parts: int = 1):
    """Every tuple of words (a chain) whose sizes sum to at most ``max_total``."""

    def go(budget: int, parts: list[Word]):
        if len(parts) >= min_parts:
            yield tuple(parts)
        for size in range(1, budget + 1):
            for w in enumerate_words(alphabet, size):
                parts.append(w)
                yield from go(budget - size, parts)
                parts.pop()

    yield from go(max_total, [])


def distinct_runs(pool, length: int):
    """Tuples over ``pool`` with adjacent entries distinct."""
    for tup in itertools.product(pool, repeat=length):
        if all(a is not b for a, b in zip(tup, tup[1:])):
            yield tup


# ---------------------------------------------------------------------------
# literal re-implementations


def subwords(word: Word) -> frozenset[Word]:
    """Every subtree of the word, the word itself included; an explicit
    stack, so any depth works."""
    if word.size == 0:
        raise ValueError("the identity word has no subwords")
    seen: set[Word] = set()
    stack = [word]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        if isinstance(w, Product):
            stack += (w.left, w.right)
    return frozenset(seen)


def transpose_twice(word: Word) -> Word:
    """``transpose(transpose(word))``; fixes ``word`` exactly when its last
    spine factor is a letter."""
    return transpose(transpose(word))


def reduced_brute(word: Word) -> bool:
    """Scan every subtree for the shapes ``uu`` and ``(uv)v``."""
    if word.size == 0:
        return True
    for s in subwords(word):
        if isinstance(s, Product):
            if s.left is s.right:
                return False
            if isinstance(s.left, Product) and s.left.right is s.right:
                return False
    return True


def normal_form_brute(word: Word) -> Word:
    """The literal recursion, no memo tables, no reduced-word shortcut."""
    if word.size < 2:
        return word
    u = normal_form_brute(word.left)
    v = normal_form_brute(word.right)
    if u.size == 0:
        return v
    if v.size == 0:
        return u
    if u is v:
        return IDENTITY
    if isinstance(u, Product) and u.right is v:
        return u.left
    result = Product(u, v)
    assert reduced_brute(result), result
    return result


def transpose_family(word: Word) -> frozenset[Word]:
    """All words whose double transpose is one of this word's two transposes.

    With fine factors ``(y1, ..., yk)`` these are the two transposes together
    with the split products ``(yk...yi)(y1...y<i)`` for ``3 <= i <= k`` and
    ``(y1...y<i)(yk...yi)`` for ``2 <= i <= k-1``; the word itself is always
    a member.  For a letter the family is the singleton ``{word}``.
    """
    t = transpose(word)
    tt = transpose(t)
    fine = fine_factors(word)
    k = len(fine)
    family = {t, tt}
    for i in range(3, k + 1):
        head = left_assoc(fine[i - 1:][::-1])
        family.add(Product(head, left_assoc(fine[: i - 1])))
    for i in range(2, k):
        tail = left_assoc(fine[i - 1:][::-1])
        family.add(Product(left_assoc(fine[: i - 1]), tail))
    return frozenset(family)



def candidate_brute(word: Word) -> bool:
    """The literal family-based definition: the whole transpose family is
    reduced, the word differs from its transpose, and it is the order-minimum
    of the family."""
    if word.size == 0:
        return False
    if word.size == 1:
        return True
    family = transpose_family(word)
    return (
        transpose(word) is not word
        and all(is_reduced(x) for x in family)
        and all(compare(word, x) <= 0 for x in family)
    )


def palindromic_splits_brute(word: Word) -> list[tuple[Word, ...]]:
    """The literal split search: each head run of the spine, built as a word,
    followed by an even number of single factors, kept when the whole tuple
    reads the same both ways."""
    if word.size < 3:
        return []
    factors = spine_factors(word)
    r = len(factors)
    splits = []
    for j in range(1, r - 1):
        if (r - j) % 2:
            continue
        candidate = (left_assoc(factors[:j]),) + factors[j:]
        if candidate == candidate[::-1]:
            splits.append(candidate)
    return splits


def family_brute(word: Word, alphabet: Alphabet) -> frozenset[Word]:
    """Members of the transpose family by scanning every word of equal size
    for the defining condition (double transpose among this word's two)."""
    targets = {transpose(word), transpose_twice(word)}
    return frozenset(
        x for x in enumerate_words(alphabet, word.size)
        if transpose_twice(x) in targets
    )


def symmetric_brute_set(alphabet: Alphabet, max_len: int) -> frozenset[Word]:
    """All words of length <= max_len spelled by some odd palindrome
    ``h1 ... hm ... h1`` with m >= 2 over arbitrary words."""
    out: set[Word] = set()

    def walk(budget: int, parts: list[Word]):
        # ``parts`` holds h1..h(m-1); any word of size <= budget can sit in
        # the middle.  Total size is 2*(|h1| + ... + |h(m-1)|) + |hm|.
        if parts:
            for size in range(1, budget + 1):
                for mid in enumerate_words(alphabet, size):
                    out.add(left_assoc(tuple(parts) + (mid,) + tuple(parts[::-1])))
        for size in range(1, budget // 2 + 1):
            for w in enumerate_words(alphabet, size):
                parts.append(w)
                walk(budget - 2 * size, parts)
                parts.pop()

    walk(max_len, [])
    return frozenset(out)


def palindrome_index(
    alphabet: Alphabet, entry_max_len: int, half_max_len: int
) -> dict[Word, tuple[Word, ...]]:
    """Brute-force oracle: normal forms of *all* palindromic basis sequences
    within the bounds, asserting on the way that no two distinct sequences
    collide and that none collapses to the identity."""
    gens = enumerate_basis(alphabet, entry_max_len)
    index: dict[Word, tuple[Word, ...]] = {}
    for m in range(1, half_max_len + 1):
        for half in distinct_runs(gens, m):
            value = normal_form_chain(IDENTITY, half + half[-2::-1])
            assert value.size > 0, f"palindrome of {half} collapsed to identity"
            assert value not in index, (
                f"collision: {index[value]} and {half} both denote {value!r}"
            )
            index[value] = half
    return index


# ---------------------------------------------------------------------------
# level sizes by counting: oracles for the listings that never list a word


def carrier_level_sizes(basis_sizes: list[int]) -> list[int]:
    """|C_1|, ..., |C_N| from the basis level sizes |B_1|, ..., |B_N|.

    D[n][j] counts the carrier elements of length n whose last spine factor
    has j letters; D[1][1] = |B_1|, the letters.  A longer element is a
    product ``(c h)`` with ``c`` in C_{n-j} and ``h`` in B_j, less the pairs
    where ``h`` is ``c``'s last spine factor (D[n-j][j] of them, counting a
    letter as its own last factor) or ``c`` itself ([2j = n]·|B_j|).  The
    two exclusions meet only at n = 2, j = 1, where ``c`` is a letter, so
    |B_1| is added back there.
    """
    n_max = len(basis_sizes)
    b = [0, *basis_sizes]
    c = [0] * (n_max + 1)
    d = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    if n_max:
        d[1][1] = c[1] = b[1]
    for n in range(2, n_max + 1):
        for j in range(1, n):
            d[n][j] = c[n - j] * b[j] - d[n - j][j] - (b[j] if 2 * j == n else 0)
        if n == 2:
            d[2][1] += b[1]
        c[n] = sum(d[n])
    return c[1:]


def reduced_level_sizes(n_letters: int, max_len: int) -> list[int]:
    """W_1, ..., W_N, the numbers of reduced words of each length.

    E[n][j] counts the reduced words of length n whose right child has j
    letters; a letter has no right child.  A product ``(u v)`` with ``u`` in
    W_{n-j} and ``v`` in W_j is reduced unless ``v`` is ``u``
    ([2j = n]·W_j pairs) or ``u``'s right child (E[n-j][j] pairs).
    """
    w = [0] * (max_len + 1)
    e = [[0] * (max_len + 1) for _ in range(max_len + 1)]
    if max_len:
        w[1] = n_letters
    for n in range(2, max_len + 1):
        for j in range(1, n):
            e[n][j] = w[n - j] * w[j] - (w[j] if 2 * j == n else 0) - e[n - j][j]
        w[n] = sum(e[n])
    return w[1:]


# ---------------------------------------------------------------------------
# a finite Bol loop of exponent two: an oracle for ``mul`` that never calls it


BOL8 = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 5, 4),
    (3, 2, 1, 0, 7, 6, 4, 5),
    (4, 5, 6, 7, 0, 1, 3, 2),
    (5, 4, 7, 6, 1, 0, 2, 3),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)
"""Cayley table of a right Bol loop of exponent two and order 8 that is not
a group: ``BOL8[x][y]`` is ``x * y`` and ``0`` is the identity.  It is the
first table :func:`bol_loop_search` meets at order 8, and two of its
elements generate it."""


def is_bol_loop_of_exponent_two(table) -> bool:
    """A loop with identity ``0`` (every row and column a permutation) in
    which ``x x = 1`` and ``((x y) z) y = x ((y z) y)`` for all elements."""
    n = len(table)
    elements = range(n)
    return (
        all(table[0][x] == table[x][0] == x for x in elements)
        and all(sorted(row) == list(elements) for row in table)
        and all(sorted(row[y] for row in table) == list(elements) for y in elements)
        and all(table[x][x] == 0 for x in elements)
        and all(
            table[table[table[x][y]][z]][y] == table[x][table[table[y][z]][y]]
            for x, y, z in itertools.product(elements, repeat=3)
        )
    )


def is_associative(table) -> bool:
    elements = range(len(table))
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x, y, z in itertools.product(elements, repeat=3)
    )


def bol_loop_search(order: int):
    """The first Cayley table, in a fixed backtracking order, of a right Bol
    loop of exponent two on ``0 .. order-1`` that is not associative, as a
    tuple of rows; ``None`` when there is none.

    In such a loop ``(x y) y = x``, so each column ``y`` pairs its rows off:
    setting ``x y = z`` also sets ``z y = x``.  A partial table is pruned as
    soon as a fully filled-in instance of the Bol law fails.
    """
    elements = range(order)
    table: list[list[int | None]] = [[None] * order for _ in elements]
    for x in elements:
        table[0][x] = table[x][0] = x
        table[x][x] = 0
    cells = [(x, y) for y in elements[1:] for x in elements[1:] if x != y]

    def bol_holds_where_filled() -> bool:
        for x, y, z in itertools.product(elements, repeat=3):
            left = right = None
            xy = table[x][y]
            if xy is not None and table[xy][z] is not None:
                left = table[table[xy][z]][y]
            yz = table[y][z]
            if yz is not None and table[yz][y] is not None:
                right = table[x][table[yz][y]]
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(i: int) -> bool:
        while i < len(cells) and table[cells[i][0]][cells[i][1]] is not None:
            i += 1
        if i == len(cells):
            return is_bol_loop_of_exponent_two(table) and not is_associative(table)
        x, y = cells[i]
        for z in elements[1:]:
            if z in (x, y) or table[z][y] is not None or z in table[x] or x in table[z]:
                continue
            table[x][y], table[z][y] = z, x
            if bol_holds_where_filled() and fill(i + 1):
                return True
            table[x][y] = table[z][y] = None
        return False

    return tuple(map(tuple, table)) if fill(0) else None


def word_values(word: Word, table, assignments, memo: dict) -> tuple[int, ...]:
    """The value of ``word`` in the loop of ``table`` under each assignment
    (a tuple of elements, one per letter rank), multiplying the tree as it
    stands; ``memo`` keeps the values of the subtrees already met."""
    try:
        return memo[word]
    except KeyError:
        pass
    if word.size == 0:
        values = (0,) * len(assignments)
    elif word.size == 1:
        values = tuple(a[word.index] for a in assignments)
    else:
        values = tuple(
            table[u][v]
            for u, v in zip(
                word_values(word.left, table, assignments, memo),
                word_values(word.right, table, assignments, memo),
            )
        )
    memo[word] = values
    return values


# ---------------------------------------------------------------------------
# normal-form algebra checks (each returns the number of cases examined and
# raises AssertionError with a witness on any failure)


def product_of_normal_forms(u: Word, v: Word) -> Word:
    """The closed form of nf(u v) for u, v in normal form: 1 if u == v, a if
    u == (a v), and otherwise (u v), which must then be reduced."""
    if u.size == 0:
        return v
    if v.size == 0:
        return u
    if u is v:
        return IDENTITY
    if isinstance(u, Product) and u.right is v:
        return u.left
    w = Product(u, v)
    assert is_reduced(w), w
    return w


def check_compose_split(alphabet: Alphabet, max_len: int) -> int:
    """nf(u v) == nf(nf(u) nf(v)) whenever |u| + |v| <= max_len, the right
    side by the closed form of :func:`product_of_normal_forms`."""
    cases = 0
    for usize in range(1, max_len):
        for u in enumerate_words(alphabet, usize):
            nfu = normal_form(u)
            for vsize in range(1, max_len - usize + 1):
                for v in enumerate_words(alphabet, vsize):
                    cases += 1
                    assert normal_form(
                        Product(u, v)
                    ) is product_of_normal_forms(nfu, normal_form(v)), (u, v)
    return cases


def check_square_collapse(alphabet: Alphabet, max_len: int) -> int:
    """nf((u v) v) == nf(u) whenever |u| + 2|v| <= max_len."""
    cases = 0
    for vsize in range(1, max_len // 2 + 1):
        for v in enumerate_words(alphabet, vsize):
            for usize in range(1, max_len - 2 * vsize + 1):
                for u in enumerate_words(alphabet, usize):
                    cases += 1
                    assert normal_form(Product(Product(u, v), v)) is normal_form(
                        u
                    ), (u, v)
    return cases


def check_right_congruence(alphabet: Alphabet, max_len: int) -> int:
    """nf(u) == nf(v)  iff  nf(u w) == nf(v w), for all |u w|, |v w| <= max_len."""
    cases = 0
    for wsize in range(1, max_len):
        pool = all_words_up_to(alphabet, max_len - wsize)
        for w in enumerate_words(alphabet, wsize):
            shifted = [normal_form(Product(u, w)) for u in pool]
            plain = [normal_form(u) for u in pool]
            for i, u in enumerate(pool):
                for j in range(i + 1, len(pool)):
                    cases += 1
                    assert (plain[i] is plain[j]) == (shifted[i] is shifted[j]), (
                        u,
                        pool[j],
                        w,
                    )
    return cases


def check_collapse_reversal(alphabet: Alphabet, max_chain: int) -> int:
    """If nf(v1 ... vn) is a letter ``a``, then nf(a vn ... v1) == 1; chains
    with sizes summing to max_chain keep every constructed word within
    max_chain + 1 letters."""
    cases = 0
    for chain in iter_chains(alphabet, max_chain):
        value = normal_form(left_assoc(chain))
        if value.size != 1:
            continue
        cases += 1
        back = left_assoc((value,) + chain[::-1])
        assert normal_form(back) is IDENTITY, chain
    return cases


def check_left_cancellation(alphabet: Alphabet, max_len: int) -> int:
    """nf(u v) == nf(u w) implies nf(v) == nf(w), for all |u v|, |u w| <= max_len."""
    cases = 0
    for usize in range(1, max_len):
        pool = all_words_up_to(alphabet, max_len - usize)
        for u in enumerate_words(alphabet, usize):
            appended = [normal_form(Product(u, v)) for v in pool]
            plain = [normal_form(v) for v in pool]
            for i in range(len(pool)):
                for j in range(i + 1, len(pool)):
                    cases += 1
                    if appended[i] is appended[j]:
                        assert plain[i] is plain[j], (u, pool[i], pool[j])
    return cases
