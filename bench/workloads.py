"""The benchmark's workloads: inputs from a seed, a timed body, and checks.

Each workload is run once per repetition in a fresh interpreter, so the
intern and memo tables start empty, as they do for every ``bol2``
invocation.  ``prepare`` builds the inputs (counted in ``setup_s``),
``body`` is the timed part and returns the raw outputs, and ``check``
compares them with references after the clock has stopped.  ``body`` may
call ``mark(t)`` with a ``time.perf_counter()`` reading to add a
checkpoint for ``measure.segment_floor``; it must do so at the same points
in every repetition.

Every workload also records why it was chosen and what the open ROADMAP
items are predicted to do to it, so a later change can be held to the
prediction it made before it was measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What a checked repetition reports besides its timings."""

    items: int  # work done: words emitted, check cases, or operations
    attempted: int
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _run_cli(api, argv):
    """Call ``cli.main`` in-process; returns (exit code, stdout) or
    (exception, "") when it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.main(list(argv))
    except Exception as exc:  # counted as a failed attempt, not a crash
        return exc, ""
    return code, out.getvalue()


def _cli_failure(argv, code, text) -> str | None:
    if isinstance(code, Exception):
        return f"{' '.join(argv)}: raised {code!r}"
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}"
    return None


class EnumWorkload:
    name = "enum"
    why = (
        "List the basis and the carrier: nearly all work is in basis, words "
        "and normalize.is_reduced, and mul is never called."
    )
    predictions = {
        "item 1 (build the basis directly)": "run_s, items_per_s and peak_rss_mb improve",
        "item 2 (narrow ldiv search)": "no change",
        "item 4 (spine-stack fold in mul)": "no change",
    }
    # (command, number of words it must print; B lists include the identity).
    # The bounds keep the body near 0.2 s, so that a run holds enough
    # repetitions for a steady segment_floor (see README, Noise).
    COMMANDS = (
        (("enum", "R", "--max-len", "8"), 81),
        (("enum", "B", "--max-len", "8"), 372),
        (("enum", "R", "--alphabet", "abc", "--max-len", "6"), 432),
        (("enum", "B", "--alphabet", "abc", "--max-len", "6"), 1780),
    )

    def prepare(self, seed, api):
        # The four commands are fixed; the seed changes nothing here.
        return [argv + ("--format", "json") for argv, _ in self.COMMANDS]

    def body(self, state, api, samples, mark):
        return [_run_cli(api, argv) for argv in state]

    def check(self, state, outputs, api, first):
        failures = []
        emitted = 0
        listed = {}
        for (argv, expected), (code, text) in zip(self.COMMANDS, outputs):
            problem = _cli_failure(argv, code, text)
            if problem is None:
                words = json.loads(text)
                emitted += len(words)
                listed[argv] = words
                if len(words) != expected:
                    problem = f"{' '.join(argv)}: {len(words)} words, expected {expected}"
            if problem:
                failures.append(problem)
        attempted = len(self.COMMANDS)
        if first and not failures and api.basis_by_fixpoint is not None:
            attempted += 4  # basis and carrier, on each alphabet
            failures += self._cross_check(api, listed)
        return Outcome(items=emitted, attempted=attempted, failures=failures)

    def _cross_check(self, api, listed):
        """Compare the printed basis with ``basis_by_fixpoint`` and every
        printed carrier element with that basis (once per run)."""
        failures = []
        for symbols, max_len in (("ab", "8"), ("abc", "6")):
            alphabet = api.Alphabet(symbols)
            extra = () if symbols == "ab" else ("--alphabet", symbols)
            basis_argv = ("enum", "R") + extra + ("--max-len", max_len)
            carrier_argv = ("enum", "B") + extra + ("--max-len", max_len)
            fixpoint = api.basis_by_fixpoint(alphabet, int(max_len))
            if {api.render(w, alphabet) for w in fixpoint} != set(listed[basis_argv]):
                failures.append(f"{' '.join(basis_argv)} differs from basis_by_fixpoint")
            for text in listed[carrier_argv]:
                w = api.parse(text, alphabet)
                if w.size and not (
                    api.is_reduced(w) and all(f in fixpoint for f in api.spine_factors(w))
                ):
                    failures.append(f"{' '.join(carrier_argv)} lists non-element {text}")
                    break
        return failures


class CheckWorkload:
    name = "check"
    why = (
        "Check loop identities: dominated by mul on short words with warm "
        "canonical forms; its enumeration pools are tiny."
    )
    predictions = {
        "item 1 (build the basis directly)": "no change",
        "item 2 (narrow ldiv search)": "no change",
        "item 4 (spine-stack fold in mul)": "run_s and items_per_s improve",
    }
    # Both suites are sampled to keep the body near 0.2 s (see EnumWorkload);
    # the exhaustive bol suite at length 5 (27,000 tuples) alone takes 1.8 s.
    BOL_CASES = 3_000
    TRANSVERSAL_CASES = 600

    def prepare(self, seed, api):
        rng = random.Random(f"check/{seed}")
        bol = (
            "check", "bol", "--max-len", "5", "--exhaustive-limit", "0",
            "--sample", str(self.BOL_CASES), "--seed", str(rng.randrange(1 << 30)),
            "--format", "json",
        )
        transversal = (
            "check", "transversal", "--max-len", "7", "--max-seq", "4",
            "--sample", str(self.TRANSVERSAL_CASES), "--seed", str(rng.randrange(1 << 30)),
            "--format", "json",
        )
        return [(bol, self.BOL_CASES), (transversal, self.TRANSVERSAL_CASES)]

    def body(self, state, api, samples, mark):
        return [_run_cli(api, argv) for argv, _ in state]

    def check(self, state, outputs, api, first):
        failures = []
        cases = 0
        for (argv, expected), (code, text) in zip(state, outputs):
            problem = _cli_failure(argv, code, text)
            if problem is None:
                report = json.loads(text)
                cases += report["cases"]
                if not report["passed"] or report["failures"]:
                    problem = f"{' '.join(argv)}: verdict fail"
                elif report["cases"] != expected:
                    problem = f"{' '.join(argv)}: {report['cases']} cases, expected {expected}"
            if problem:
                failures.append(problem)
        return Outcome(items=cases, attempted=len(state), failures=failures)


class OpsWorkload:
    name = "ops"
    why = (
        "Single library calls, each timed: canon on cold forms, mul on "
        "random pairs, ldiv with small bounds, the paths check barely touches."
    )
    predictions = {
        "item 1 (build the basis directly)": "ldiv_* improve only if ldiv lists its pool with it",
        "item 2 (narrow ldiv search)": "ldiv_p50_ms, ldiv_p99_ms and run_s improve",
        "item 4 (spine-stack fold in mul)": "mul_p50_us, mul_p99_us and canon_* improve",
    }
    BASIS_LEN = 6  # the 14 basis words of length <= 6 over ab
    BASIS_WORDS = 14
    MAX_HALF = 4
    # Per repetition, to keep the body near 0.2 s (see EnumWorkload); the
    # latencies are pooled over the run's repetitions.
    ELEMENTS = 500
    PAIRS = 1000
    DIVISION_ROUNDS = 3  # 189 divisions over the 63 carrier elements
    CARRIER_LEN = 6

    def prepare(self, seed, api):
        rng = random.Random(f"ops/{seed}")
        ab = api.Alphabet("ab")
        gens = api.enumerate_basis(ab, self.BASIS_LEN)
        if len(gens) != self.BASIS_WORDS:
            raise RuntimeError(f"{len(gens)} basis words of length <= 6, expected 14")
        # Draw halves uniformly from all runs of 1..MAX_HALF basis words
        # with adjacent entries distinct (33,320 of them), so repeats are rare.
        n = len(gens)
        weights = [n * (n - 1) ** (k - 1) for k in range(1, self.MAX_HALF + 1)]
        halves = []
        for k in rng.choices(range(1, self.MAX_HALF + 1), weights, k=self.ELEMENTS):
            half = [rng.choice(gens)]
            while len(half) < k:
                g = rng.choice(gens)
                if g is not half[-1]:
                    half.append(g)
            halves.append(tuple(half))
        elements = [
            api.normal_form_chain(api.IDENTITY, h + h[-2::-1]) for h in halves
        ]
        pairs = [
            (rng.randrange(len(elements)), rng.randrange(len(elements)))
            for _ in range(self.PAIRS)
        ]
        carrier = [w for w in api.enumerate_loop_words(ab, self.CARRIER_LEN) if w.size]
        # Every carrier element is the a of DIVISION_ROUNDS divisions and the
        # x of as many, in seeded pairs, so the cost of the searches (which
        # grows with |x|) does not change from seed to seed.
        left, right = carrier * self.DIVISION_ROUNDS, carrier * self.DIVISION_ROUNDS
        rng.shuffle(left)
        rng.shuffle(right)
        divisions = [(a, x, api.mul(a, x)) for a, x in zip(left, right)]
        return {
            "alphabet": ab,
            "halves": halves,
            "elements": elements,
            "pairs": pairs,
            "divisions": divisions,
        }

    def body(self, state, api, samples, mark):
        clock = time.perf_counter
        symmetric_form, mul, ldiv = api.symmetric_form, api.mul, api.ldiv
        forms = api.forms_table()
        if forms is None:
            forms = {}
        elements, ab = state["elements"], state["alphabet"]
        canon_us, mul_us, ldiv_ms = samples["canon_us"], samples["mul_us"], samples["ldiv_ms"]

        canon = {}  # element index -> form half, or the exception raised
        for i, e in enumerate(elements):
            if e in forms:  # a repeat, reached by a recursion, or by mul in set-up
                continue
            t = clock()
            mark(t)
            try:
                canon[i] = symmetric_form(e).half
            except Exception as exc:
                canon[i] = exc
            canon_us.append((clock() - t) * 1e6)

        products = []
        for i, j in state["pairs"]:
            x, y = elements[i], elements[j]
            t = clock()
            mark(t)
            try:
                products.append(mul(x, y))
            except Exception as exc:
                products.append(exc)
            mul_us.append((clock() - t) * 1e6)

        quotients = []
        for a, x, b in state["divisions"]:
            t = clock()
            mark(t)
            try:
                quotients.append(ldiv(a, b, ab, max_len=x.size))
            except Exception as exc:
                quotients.append(exc)
            ldiv_ms.append((clock() - t) * 1e3)
        return canon, products, quotients

    def check(self, state, outputs, api, first):
        canon, products, quotients = outputs
        halves, elements = state["halves"], state["elements"]
        failures = []
        for i, half in canon.items():
            if half != halves[i]:
                failures.append(f"canon of element {i}: {half!r}")
        for (i, j), z in zip(state["pairs"], products):
            if isinstance(z, Exception) or api.mul(z, elements[j]) is not elements[i]:
                failures.append(f"mul of pair ({i}, {j}): {z!r}")
        for (a, x, b), q in zip(state["divisions"], quotients):
            if q is not x:
                failures.append(f"ldiv({a!r}, {b!r}): {q!r}, expected {x!r}")
        distinct = len(set(map(id, elements)))
        ops = len(canon) + len(products) + len(quotients)
        return Outcome(
            items=ops,
            attempted=ops,
            failures=failures,
            notes={
                "elements": len(elements),
                "repeat_share": 1 - distinct / len(elements),
                "warm_skipped": len(elements) - len(canon),
            },
        )


WORKLOADS = {w.name: w for w in (EnumWorkload(), CheckWorkload(), OpsWorkload())}
