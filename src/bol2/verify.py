"""Identity suites and the group-action verification harness.

The construction has a group-side mirror: the free product of order-two
generators, one per basis word, acting on the carrier by right loop
multiplication.  A *group word* there is a run of basis words, a plain tuple
with adjacent entries distinct, and it acts by one fold: of a word by
:func:`~bol2.normalize.normal_form_chain`, or of a spine by
:func:`~bol2.loop.act`.  A run moving the identity word to ``v`` returns to
the stabilizer after the palindromic word of ``v``.
Folding a basis word twice is the identity on reduced words, so that return
is the fold of the palindromic word into ``v``, which is ``v * v``: the
transversal check is exponent two at the element each run denotes.

:func:`check_identity_suite` is the one check runner; :data:`SUITES` names
what it checks:

===========  ==========================================================
bol          right Bol law          ``((x y) z) y  =  x ((y z) y)``
exp2         exponent two           ``x x = 1``
rip          right inverse property ``(x y) y = x``
nuclei       no non-identity element associates in the middle with all
             pairs (on a one-letter alphabet the loop is the group of
             order 2, so ``a`` passes the test and the check fails)
unique-form  each bounded palindromic half is the canonical form of the
             non-identity element it denotes, so distinct halves denote
             distinct elements
transversal  ``v v = 1`` at the element ``v`` each run of basis words
             denotes: the run and the palindromic word of ``v`` fix the
             identity
===========  ==========================================================

Every suite is one scan of a universe with a test: the laws scan tuples of
carrier elements, ``nuclei`` the non-identity elements, each searched for a
witness pair, and unique-form and transversal runs of 1 to ``max_seq``
basis words.  Universes are exhaustive when small enough, otherwise a
seeded sample, which ``nuclei`` refuses: its limit bounds the witness pairs
of one element.  Every report records what was scanned, so the checks are
reproducible.  A check takes no time limit; the CLI's ``--budget`` ends it.

A sample is drawn from ``random.Random(seed)``.  Each pick from ``n``
choices reads ``n.bit_length()`` bits with ``getrandbits`` and reads again
while the value is at least ``n``, which is what ``Random.choice`` and
``Random.randint`` do on CPython 3.10 to 3.13, so a seed draws the same
cases as those calls would.  The picks are made inline, and each case is
drawn as the scan reads it, so a sample of any size holds one case at a
time.

The laws whose sides are only compared, ``bol``, ``rip`` and ``nuclei``,
compute their outermost products with :func:`~bol2.loop.act` and compare
the spines with ``==``, so comparing two sides interns no word.  A word is
built only where a product's form is needed, ``(y z) y`` in ``bol`` and
``a y`` in ``nuclei``, and only in the tables of a scan, which are made when
it starts, dropped when it ends, no part of
:data:`~bol2.basis.SHARED_CACHE`, and read the ``mul`` and ``act`` of the
scan.  ``bol`` shares the subterms that bind fewer variables than the law:
each scan computes the spine of a product of two pool elements once, for
``x y`` and ``y z`` alike, and ``(y z) y`` once per ``(y, z)``, so each
table holds at most min(cases, pool size²) entries.  A sample of 3,000
triples from the 30 elements of length at most 5 repeats 71% of either
binding; in one such sample (seed 125265118) the 1,735 distinct bindings of
``x y`` and of ``y z`` are 898 products.  ``exp2`` compares with the
identity through ``mul``, and ``rip`` shares nothing.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cache, partial

from .basis import enumerate_basis, enumerate_loop_words
from .loop import act, mul, symmetric_form
from .normalize import InternalInvariantError, normal_form_chain
from .words import IDENTITY, Alphabet, Word, left_assoc, render, spine_factors

__all__ = [
    "SampleSpec",
    "CheckReport",
    "SUITES",
    "check_identity_suite",
]


@dataclass(frozen=True)
class SampleSpec:
    """Universe bounds for a check.

    ``max_len`` bounds the word length of loop elements (and of basis
    generators); ``max_seq`` bounds generator-sequence length where one
    applies (group words, palindrome halves).  A tuple universe larger than
    ``exhaustive_limit`` is replaced by ``sample_size`` draws seeded with
    ``seed``.
    """

    max_len: int = 3
    max_seq: int = 3
    exhaustive_limit: int = 200_000
    sample_size: int = 2000
    seed: int = 0


@dataclass
class CheckReport:
    """Outcome of one check: what ran, over what, and what failed."""

    name: str
    universe: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0
    seed: int | None = None  # set when the universe was sampled

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "universe": self.universe,
            "cases": self.cases,
            "failures": list(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3),
            "seed": self.seed,
            "passed": self.ok,
        }


def _scan(universe, test, which, alphabet, spec) -> CheckReport:
    """The check loop: ``test(case, alphabet)`` on each case of the universe,
    a failure wherever it returns a message.

    ``universe(alphabet, spec)`` gives a label, a unit, the number of cases,
    all of them in order, and ``draw(rng, count)``, which yields ``count``
    cases drawn from an RNG as they are read.  All cases are tested when
    they number at most ``spec.exhaustive_limit``; otherwise
    ``spec.sample_size`` cases drawn from one RNG seeded with
    ``spec.seed``."""
    base, unit, total, every, draw = universe(alphabet, spec)
    if total <= spec.exhaustive_limit:
        cases = every
        report = CheckReport(which, f"{base}, exhaustive ({total} {unit})")
    else:
        cases = draw(random.Random(spec.seed), spec.sample_size)
        label = f"{base}, sample of {spec.sample_size} {unit} (seed {spec.seed})"
        report = CheckReport(which, label, seed=spec.seed)
    for case in cases:
        report.cases += 1
        failure = test(case, alphabet)
        if failure is not None:
            report.failures.append(failure)
    return report


def _carrier(law, arity, pool, alphabet, spec):
    """The universe of ``arity``-tuples of the carrier elements ``pool``."""
    n = len(pool)

    def draw(rng, count):
        # Each entry is one ``rng.choice(pool)``, drawn inline (see the
        # module docstring): a rejected index draws again.
        bits, k = rng.getrandbits, n.bit_length()
        for _ in range(count):
            case = []
            while len(case) < arity:
                i = bits(k)
                if i < n:
                    case.append(pool[i])
            yield tuple(case)

    return (
        f"{law} over the {n} carrier elements of length <= "
        f"{spec.max_len} on {alphabet.symbols!r}",
        "tuples",
        n**arity,
        itertools.product(pool, repeat=arity),
        draw,
    )


def _non_identity(pool, alphabet, spec):
    """The non-identity elements of ``pool``, as 1-tuples; never sampled, as
    the limit must bound each one's row of witness pairs, which is no shorter."""
    n = len(pool) - 1
    if n * n > spec.exhaustive_limit:
        raise ValueError(
            f"middle-nucleus scan needs an exhaustive row of witnesses "
            f"({n * n} > limit {spec.exhaustive_limit}); lower max_len"
        )
    label = f"middle-nucleus scan over the {n} non-identity carrier elements"
    label += f" of length <= {spec.max_len} on {alphabet.symbols!r}"
    return label, "elements", n, zip(pool[1:]), None


def _runs(what, unit, alphabet, spec):
    """The universe of runs of 1 to ``spec.max_seq`` basis words of length <=
    ``spec.max_len`` with adjacent entries distinct, listed by length and
    then in the order of the basis; ``what``, formatted with
    ``spec.max_seq``, names a run."""
    gens = enumerate_basis(alphabet, spec.max_len)
    n = len(gens)
    # One basis word has no run of two: draw only its single run.
    top = spec.max_seq if n > 1 else 1

    def draw(rng, count):
        # A run is ``rng.randint(1, top)`` entries, each one
        # ``rng.choice(gens)`` drawn again while it repeats the entry before
        # it, all drawn inline (see the module docstring).
        bits, k, m = rng.getrandbits, n.bit_length(), top.bit_length()
        for _ in range(count):
            # ``randint(1, top)`` is one more than a pick from ``top``.
            more = bits(m)
            while more >= top:
                more = bits(m)
            run: list[Word] = []
            last = n
            while len(run) <= more:
                i = bits(k)
                if i < n and i != last:
                    run.append(gens[i])
                    last = i
            yield tuple(run)

    def every():
        # Each level extends the one before by a basis word other than its
        # last entry, so it stays in product order.
        level = [(g,) for g in gens]
        yield from level
        for _ in range(1, spec.max_seq):
            level = [run + (g,) for run in level for g in gens if g is not run[-1]]
            yield from level

    # n (n-1)^(k-1) runs of length k, summed over k = 1 .. max_seq.
    k = spec.max_seq
    total = 1 if n == 1 else 2 * k if n == 2 else n * ((n - 1) ** k - 1) // (n - 2)
    return (
        f"{what.format(spec.max_seq)} over the {n} basis words of length <= "
        f"{spec.max_len} on {alphabet.symbols!r}",
        unit,
        total,
        every(),
        draw,
    )


def _spine(x):
    # The argument of :func:`~bol2.loop.act` for a carrier element.
    return spine_factors(x) if x.size else ()


def _word(spine):
    # The word of a spine that a fold left, for a product that needs it as
    # a word.  Folds keep words reduced, so a non-reduced one is a fault of
    # the fold, not of the law.
    w = left_assoc(spine)
    if not w.reduced:
        raise InternalInvariantError(f"a fold left a non-reduced word: {w!r}")
    return w


def _bol(pool):
    """The Bol law's test for one scan, with the scan's subterm tables (see
    the module docstring)."""
    spine = cache(_spine)
    pair = cache(lambda a, b: act(spine(a), b))
    yzy = cache(lambda y, z: mul(_word(pair(y, z)), y))
    return lambda x, y, z: act(pair(x, y), z, y) == act(spine(x), yzy(y, z))


def _exp2(x):
    return mul(x, x) is IDENTITY


def _rip(x, y):
    spine = _spine(x)
    return act(spine, y, y) == spine


def _nuclei(pool):
    """The middle-nucleus test for one scan: a witness ``(x a) y != x (a y)``,
    searched over the non-identity ``pool`` (letters first), since ``x = 1``
    or ``y = 1`` is none.  The tables hold each ``x``'s spine and ``a y``."""
    rest = pool[1:]
    spine = cache(_spine)
    ay = cache(mul)
    return lambda a: any(
        act(spine(x), a, y) != act(spine(x), ay(a, y))
        for x, y in itertools.product(rest, repeat=2)
    )


def _over_carrier(universe, make_holds, failure, which, alphabet, spec):
    """A check over the carrier elements of length <= ``spec.max_len``:
    ``make_holds(pool)``, called as the scan of ``universe(pool, alphabet,
    spec)`` starts, gives its test of one case, with the scan's tables; a
    failure is ``failure`` formatted with the case's elements."""
    pool = enumerate_loop_words(alphabet, spec.max_len)
    holds = make_holds(pool)

    def test(case, alphabet):
        if holds(*case):
            return None
        return failure.format(*(render(w, alphabet) for w in case))

    return _scan(partial(universe, pool), test, which, alphabet, spec)


def _law(law, arity, make_holds):
    # A law over ``arity``-tuples; a failure binds x, y, z in order.
    failure = f"{law} fails at " + " ".join(f"{n}={{}}" for n in "xyz"[:arity])
    return partial(_over_carrier, partial(_carrier, law, arity), make_holds, failure)


def _unique_form(half, alphabet):
    # Two halves denoting one element cannot both be its canonical half, so
    # the round trip reports at least one of any collision.
    value = normal_form_chain(IDENTITY, half + half[-2::-1])
    if value.size and symmetric_form(value).half == half:
        return None
    text = "(" + ", ".join(render(h, alphabet) for h in half) + ")"
    if value.size == 0:
        return f"{text} denotes the identity"
    return f"{text} denotes {render(value, alphabet)} but is not its canonical form"


def _transversal(run, alphabet):
    if _exp2(normal_form_chain(IDENTITY, run)):
        return None
    # Rendered only here: a label for every case cost about 5% of a check.
    words = "*".join(render(g, alphabet) for g in run)
    return f"{words} * its palindromic word does not stabilize the identity"


_CHECKS = {
    "bol": _law("((x y) z) y = x ((y z) y)", 3, _bol),
    "exp2": _law("x x = 1", 1, lambda pool: _exp2),
    "rip": _law("(x y) y = x", 2, lambda pool: _rip),
    "nuclei": partial(
        _over_carrier,
        _non_identity,
        _nuclei,
        "non-identity element {} passes the middle-nucleus test at this bound",
    ),
    "unique-form": partial(
        _scan,
        partial(_runs, "palindromic halves of length <= {}", "halves"),
        _unique_form,
    ),
    "transversal": partial(
        _scan,
        partial(_runs, "group words of <= {} generators", "words"),
        _transversal,
    ),
}

SUITES = tuple(_CHECKS)
"""The names :func:`check_identity_suite` accepts, in the CLI's order."""


def check_identity_suite(
    which: str, alphabet: Alphabet, spec: SampleSpec = SampleSpec()
) -> CheckReport:
    """Run one suite of :data:`SUITES` (see the module docstring) and report."""
    try:
        check = _CHECKS[which]
    except KeyError:
        raise ValueError(f"unknown suite {which!r} (choose from {SUITES})") from None
    start = time.perf_counter()
    report = check(which, alphabet, spec)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
