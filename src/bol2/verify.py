"""Identity suites and the group-action verification harness.

The construction has a group-side mirror: the free product of order-two
generators, one per basis word, acting on the carrier by right loop
multiplication.  A *group word* there is a plain tuple of basis words with
adjacent entries distinct; :func:`~bol2.loop.free_reduce` multiplies two.
A basis word is its own palindromic form, so a group word acts by one
:func:`~bol2.normalize.normal_form_chain` fold, the fold behind
:func:`~bol2.loop.mul`.  A group word moving the identity word to ``v != 1``
returns to the stabilizer after ``symmetric_form(v).sequence``.

:func:`check_identity_suite` is the one check runner; :data:`SUITES` names
what it checks:

===========  ==========================================================
bol          right Bol law          ``((x y) z) y  =  x ((y z) y)``
exp2         exponent two           ``x x = 1``
rip          right inverse property ``(x y) y = x``
nuclei       no non-identity element associates in the middle with all
             pairs (on a one-letter alphabet the loop is the group of
             order 2, so ``a`` passes the test and the check fails)
unique-form  distinct bounded palindromic forms denote distinct elements,
             and each is the canonical form of its value
transversal  every run of basis words that moves the identity returns to
             its stabilizer after the palindromic word of its image
===========  ==========================================================

Universes are exhaustive when small enough, otherwise a seeded sample; every
report records what was scanned, so the checks are reproducible.  unique-form
and transversal share one universe of runs (1 to ``max_seq`` basis words,
adjacent entries distinct); ``nuclei`` alone refuses to sample.  A check
takes no time limit; the command line's ``--budget`` interrupts it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import partial

from .basis import enumerate_basis, enumerate_loop_words
from .loop import free_reduce, mul, symmetric_form
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


def _distinct_runs(pool, length):
    """All tuples over ``pool`` of the given length with adjacent entries
    distinct, in the lexicographic order of ``pool``."""
    for run in itertools.product(pool, repeat=length):
        if all(a is not b for a, b in zip(run, run[1:])):
            yield run


def _universe(name, spec, base, unit, total, every, draw):
    """The cases of a check and its report.  All ``total`` cases of ``every``
    when that is within ``spec.exhaustive_limit``; otherwise
    ``spec.sample_size`` cases, each ``draw(rng)`` from one seeded RNG."""
    if total <= spec.exhaustive_limit:
        return every, CheckReport(name, f"{base}, exhaustive ({total} {unit})")
    rng = random.Random(spec.seed)
    sample = (draw(rng) for _ in range(spec.sample_size))
    label = f"{base}, sample of {spec.sample_size} {unit} (seed {spec.seed})"
    return sample, CheckReport(name, label, seed=spec.seed)


def _bol(x, y, z):
    return mul(mul(mul(x, y), z), y) is mul(x, mul(mul(y, z), y))


def _exp2(x):
    return mul(x, x) is IDENTITY


def _rip(x, y):
    return mul(mul(x, y), y) is x


def _law_suite(arity, holds, law, which, alphabet, spec) -> CheckReport:
    pool = enumerate_loop_words(alphabet, spec.max_len)
    names = "xyz"[:arity]
    tuples, report = _universe(
        which,
        spec,
        f"{law} over the {len(pool)} carrier elements of length <= "
        f"{spec.max_len} on {alphabet.symbols!r}",
        "tuples",
        len(pool) ** arity,
        itertools.product(pool, repeat=arity),
        lambda rng: tuple(rng.choice(pool) for _ in range(arity)),
    )
    for tup in tuples:
        report.cases += 1
        if not holds(*tup):
            binding = " ".join(
                f"{n}={render(w, alphabet)}" for n, w in zip(names, tup)
            )
            report.failures.append(f"{law} fails at {binding}")
    return report


def _nuclei_suite(which, alphabet, spec) -> CheckReport:
    """No non-identity element may satisfy ``(x a) y = x (a y)`` for *all*
    ``x, y`` in the bounded universe.  Always exhaustive."""
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


def _runs(which, alphabet, spec, what, unit):
    """The run universe shared by unique-form and transversal: runs of 1 to
    ``spec.max_seq`` basis words of length <= ``spec.max_len`` with adjacent
    entries distinct, as :func:`_universe` cases; ``what`` names a run."""
    gens = enumerate_basis(alphabet, spec.max_len)
    n = len(gens)

    def draw(rng):
        run: tuple[Word, ...] = ()
        # One basis word has no run of two: draw only its single run.
        for _ in range(rng.randint(1, spec.max_seq if n > 1 else 1)):
            g = rng.choice(gens)
            while run and run[-1] is g:
                g = rng.choice(gens)
            run += (g,)
        return run

    return _universe(
        which,
        spec,
        f"{what} over the {n} basis words of length <= {spec.max_len} on "
        f"{alphabet.symbols!r}",
        unit,
        sum(n * (n - 1) ** (k - 1) for k in range(1, spec.max_seq + 1)),
        (run for k in range(1, spec.max_seq + 1) for run in _distinct_runs(gens, k)),
        draw,
    )


def _unique_form_suite(which, alphabet, spec) -> CheckReport:
    """Distinct palindromic halves (runs of basis words) must denote distinct
    non-identity elements, each having that half as its canonical form."""
    what = f"palindromic halves of length <= {spec.max_seq}"
    halves, report = _runs(which, alphabet, spec, what, "halves")

    def fmt(half):
        return "(" + ", ".join(render(h, alphabet) for h in half) + ")"

    index: dict[Word, tuple[Word, ...]] = {}
    for half in halves:
        report.cases += 1
        value = normal_form_chain(IDENTITY, half + half[-2::-1])
        if value.size == 0:
            report.failures.append(f"{fmt(half)} denotes the identity")
        # A sampled half may repeat; only a different half is a collision.
        elif index.setdefault(value, half) != half:
            report.failures.append(
                f"collision: {fmt(index[value])} and {fmt(half)} both "
                f"denote {render(value, alphabet)}"
            )
        elif symmetric_form(value).half != half:
            report.failures.append(
                f"{fmt(half)} denotes {render(value, alphabet)} but is "
                f"not its canonical form"
            )
    return report


def _transversal_suite(which, alphabet, spec) -> CheckReport:
    """Every run ``g`` of generators moving the identity to ``v != 1`` must
    return to the stabilizer after the palindromic sequence ``s`` of ``v``:
    the fold of ``free_reduce(g, s)`` into ``1`` is ``1``."""
    what = f"group words of <= {spec.max_seq} generators"
    runs, report = _runs(which, alphabet, spec, what, "words")
    for run in runs:
        report.cases += 1
        v = normal_form_chain(IDENTITY, run)
        if v.size == 0:
            continue  # already in the stabilizer; nothing to decompose
        seq = symmetric_form(v).sequence
        if normal_form_chain(IDENTITY, seq) is not v:
            failure = "palindromic word of {} denotes the wrong element"
        elif normal_form_chain(IDENTITY, free_reduce(run, seq)).size != 0:
            failure = "{} * its palindromic word does not stabilize the identity"
        else:
            continue
        # Rendered only here: a label for every case cost about 5% of a check.
        report.failures.append(
            failure.format("*".join(render(g, alphabet) for g in run))
        )
    return report


_CHECKS = {
    "bol": partial(_law_suite, 3, _bol, "((x y) z) y = x ((y z) y)"),
    "exp2": partial(_law_suite, 1, _exp2, "x x = 1"),
    "rip": partial(_law_suite, 2, _rip, "(x y) y = x"),
    "nuclei": _nuclei_suite,
    "unique-form": _unique_form_suite,
    "transversal": _transversal_suite,
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
