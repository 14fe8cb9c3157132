"""Identity suites and the group-action verification harness.

The construction has a group-side mirror: the free product of order-two
generators, one per basis word, acting on the carrier by right loop
multiplication.  A *group word* there is a run of basis words, a plain tuple
with adjacent entries distinct, and it acts by one
:func:`~bol2.normalize.normal_form_chain` fold.  A run moving the identity
word to ``v`` returns to the stabilizer after the palindromic word of ``v``.
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

Every suite but ``nuclei`` is one scan of a universe with a test.  The laws
scan tuples of carrier elements; unique-form and transversal scan runs of 1
to ``max_seq`` basis words.  Universes are exhaustive when small enough,
otherwise a seeded sample; every report records what was scanned, so the
checks are reproducible.  ``nuclei`` alone refuses to sample.  A check
takes no time limit; the command line's ``--budget`` interrupts it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import partial

from .basis import enumerate_basis, enumerate_loop_words
from .loop import mul, symmetric_form
from .normalize import normal_form_chain
from .words import IDENTITY, Alphabet, Word, render

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
    all of them in order, and a draw of one case from an RNG.  All cases
    are tested when they number at most ``spec.exhaustive_limit``;
    otherwise ``spec.sample_size`` draws from one RNG seeded with
    ``spec.seed``."""
    base, unit, total, every, draw = universe(alphabet, spec)
    if total <= spec.exhaustive_limit:
        cases = every
        report = CheckReport(which, f"{base}, exhaustive ({total} {unit})")
    else:
        rng = random.Random(spec.seed)
        cases = (draw(rng) for _ in range(spec.sample_size))
        label = f"{base}, sample of {spec.sample_size} {unit} (seed {spec.seed})"
        report = CheckReport(which, label, seed=spec.seed)
    for case in cases:
        report.cases += 1
        failure = test(case, alphabet)
        if failure is not None:
            report.failures.append(failure)
    return report


def _carrier(law, arity, alphabet, spec):
    """The universe of ``arity``-tuples of carrier elements of length <=
    ``spec.max_len``."""
    pool = enumerate_loop_words(alphabet, spec.max_len)
    return (
        f"{law} over the {len(pool)} carrier elements of length <= "
        f"{spec.max_len} on {alphabet.symbols!r}",
        "tuples",
        len(pool) ** arity,
        itertools.product(pool, repeat=arity),
        lambda rng: tuple(rng.choice(pool) for _ in range(arity)),
    )


def _runs(what, unit, alphabet, spec):
    """The universe of runs of 1 to ``spec.max_seq`` basis words of length <=
    ``spec.max_len`` with adjacent entries distinct, listed by length and
    then in the order of the basis; ``what``, formatted with
    ``spec.max_seq``, names a run."""
    gens = enumerate_basis(alphabet, spec.max_len)
    n = len(gens)

    def draw(rng):
        run: list[Word] = []
        # One basis word has no run of two: draw only its single run.
        for _ in range(rng.randint(1, spec.max_seq if n > 1 else 1)):
            g = rng.choice(gens)
            while run and run[-1] is g:
                g = rng.choice(gens)
            run.append(g)
        return tuple(run)

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


def _bol(x, y, z):
    return mul(mul(mul(x, y), z), y) is mul(x, mul(mul(y, z), y))


def _exp2(x):
    return mul(x, x) is IDENTITY


def _rip(x, y):
    return mul(mul(x, y), y) is x


def _law(law, arity, holds):
    """The check of a law over the carrier: a failure binds x, y, z in order."""

    def test(case, alphabet):
        if holds(*case):
            return None
        binding = " ".join(f"{n}={render(w, alphabet)}" for n, w in zip("xyz", case))
        return f"{law} fails at {binding}"

    return partial(_scan, partial(_carrier, law, arity), test)


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


def _nuclei_suite(which, alphabet, spec) -> CheckReport:
    """No non-identity element may satisfy ``(x a) y = x (a y)`` for *all*
    ``x, y`` in the bounded universe.  Always exhaustive, and ``cases``
    counts the ``(x, y)`` probes."""
    pool = enumerate_loop_words(alphabet, spec.max_len)
    total = len(pool) ** 3
    if total > spec.exhaustive_limit:
        raise ValueError(
            f"middle-nucleus scan needs an exhaustive universe "
            f"({total} > limit {spec.exhaustive_limit}); lower max_len"
        )
    report = CheckReport(
        which,
        f"middle-nucleus scan over the {len(pool)} carrier elements of "
        f"length <= {spec.max_len} on {alphabet.symbols!r}, exhaustive",
    )
    for a in pool:
        if a.size == 0:
            continue
        central = True
        for x, y in itertools.product(pool, repeat=2):
            report.cases += 1
            if mul(mul(x, a), y) is not mul(x, mul(a, y)):
                central = False
                break
        if central:
            report.failures.append(
                f"non-identity element {render(a, alphabet)} passes the "
                f"middle-nucleus test at this bound"
            )
    return report


_CHECKS = {
    "bol": _law("((x y) z) y = x ((y z) y)", 3, _bol),
    "exp2": _law("x x = 1", 1, _exp2),
    "rip": _law("(x y) y = x", 2, _rip),
    "nuclei": _nuclei_suite,
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
