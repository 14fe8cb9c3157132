"""Command line front end.

Every command parses its operands, calls the library and prints the result
as text or JSON.  ``--budget MS`` arms one POSIX interval timer, whose
``SIGALRM`` handler raises :class:`BudgetExceeded` wherever the command is,
except inside a ``gc`` callback, where Python would discard the exception:
there it fires again 1 ms later.  The timer is stopped before anything is
printed, and the previous handler is back before :func:`main` returns; the
library takes no time limit.  An interrupt may land between any two
bytecodes, so each memo store writes a finished value in one assignment:
the intern tables and every table of ``SHARED_CACHE``.  So an interrupted
command leaves no wrong entry.  The console script enters through
:func:`run`, which flushes the output and ends the process without freeing
the intern table.

Exit codes: 0 success (checks passed), 1 a check reported failures,
2 malformed input or usage, 3 an operand is not a loop element (with a
diagnosis naming the offending spine factor), 4 wall-clock budget exceeded,
5 input too large for this process (recursion depth or memory), 6 an
internal invariant failed (a bug in this package).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import partial
from typing import Sequence

from .basis import (
    enumerate_basis,
    enumerate_candidates,
    enumerate_filtered,
    enumerate_loop_words,
    why_not_in_loop,
)
from .loop import ldiv, mul, symmetric_form
from .normalize import InternalInvariantError, normal_form
from .verify import SUITES, CheckReport, SampleSpec, check_identity_suite
from .words import (
    Alphabet,
    Word,
    clip,
    compare,
    fine_factors,
    parse,
    render,
    render_all,
    spine_factors,
    transpose,
)

__all__ = ["main", "run", "build_parser", "BudgetExceeded", "NotLoopElement"]


class BudgetExceeded(RuntimeError):
    """A command ran past its wall-clock budget."""


def _on_alarm(signum, frame):
    # An exception raised in a gc callback is discarded: fire again after it.
    callbacks = {getattr(cb, "__code__", None) for cb in gc.callbacks}
    while frame is not None:
        if frame.f_code in callbacks:
            signal.setitimer(signal.ITIMER_REAL, 0.001)
            return
        frame = frame.f_back
    raise BudgetExceeded("wall-clock budget exhausted")


@contextmanager
def _budget(ms: float | None):
    """Raise :class:`BudgetExceeded` in the block after ``ms`` milliseconds."""
    if ms is None:
        yield
        return
    if not hasattr(signal, "setitimer"):
        raise ValueError("--budget needs signal.setitimer, which this platform lacks")
    if ms <= 0:
        _on_alarm(signal.SIGALRM, None)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # 1e9 s (31 years) is within every platform's timer; NaN is refused.
        signal.setitimer(signal.ITIMER_REAL, min(ms / 1000, 1e9))
        yield
    finally:
        # An alarm firing in here has stopped the one-shot timer itself.
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


class NotLoopElement(ValueError):
    """An operand parsed fine but is not an element of the loop carrier."""

    def __init__(self, raw: str, reason: str):
        super().__init__(f"{clip(repr(raw))} is not a loop element: {reason}")


def _alphabet(ns) -> Alphabet:
    return Alphabet(ns.alphabet)


def _require_loop(raw: str, alphabet: Alphabet) -> Word:
    word = parse(raw, alphabet)
    reason = why_not_in_loop(word, alphabet)
    if reason is not None:
        raise NotLoopElement(raw, reason)
    return word


def _emit(ns, lines: list[str], payload) -> None:
    # Stop the timer before any output: a pending alarm raises here, not
    # part way through the output.
    if ns.budget is not None:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if ns.format == "json":
        print(json.dumps(payload))
    else:
        print("\n".join(lines))


def _cmd_normalize(ns) -> int:
    alphabet = _alphabet(ns)
    out = render(normal_form(parse(ns.word, alphabet)), alphabet)
    _emit(ns, [out], out)
    return 0


def _cmd_compare(ns) -> int:
    alphabet = _alphabet(ns)
    c = compare(parse(ns.left, alphabet), parse(ns.right, alphabet))
    out = {-1: "less", 0: "equal", 1: "greater"}[c]
    _emit(ns, [out], out)
    return 0


def _cmd_transpose(ns) -> int:
    alphabet = _alphabet(ns)
    word = parse(ns.word, alphabet)
    factors = spine_factors(word)  # rejects the identity word
    t = transpose(word)
    tt = transpose(t)
    # Counted, not built: k - 1 rearrangements per distinct transpose, where
    # k counts the fine factors; a letter's family is the word itself.
    k = len(fine_factors(word))
    family_size = max(k - 1 if t is tt else 2 * (k - 1), 1)
    spine = [render(f, alphabet) for f in factors]
    payload = {
        "word": render(word, alphabet),
        "norm": len(factors),
        "spine": spine,
        "transpose": render(t, alphabet),
        "double_transpose": render(tt, alphabet),
        "family_size": family_size,
    }
    lines = [
        f"word: {payload['word']}",
        f"norm: {payload['norm']}",
        f"spine: {', '.join(spine)}",
        f"transpose: {payload['transpose']}",
        f"double-transpose: {payload['double_transpose']}",
        f"family-size: {payload['family_size']}",
    ]
    _emit(ns, lines, payload)
    return 0


def _cmd_mul(ns) -> int:
    alphabet = _alphabet(ns)
    x = _require_loop(ns.left, alphabet)
    y = _require_loop(ns.right, alphabet)
    out = render(mul(x, y), alphabet)
    _emit(ns, [out], out)
    return 0


def _cmd_canon(ns) -> int:
    alphabet = _alphabet(ns)
    g = _require_loop(ns.word, alphabet)
    half = [render(h, alphabet) for h in symmetric_form(g).half]
    _emit(ns, [" ".join(half)], half)
    return 0


def _cmd_ldiv(ns) -> int:
    alphabet = _alphabet(ns)
    a = _require_loop(ns.left, alphabet)
    b = _require_loop(ns.right, alphabet)
    x = ldiv(a, b, alphabet, max_len=ns.bound)
    if x is None:
        _emit(ns, ["not-found"], None)
    else:
        out = render(x, alphabet)
        _emit(ns, [out], out)
    return 0


_ENUM_KINDS = {
    "W": partial(enumerate_filtered, keep=lambda w: True),
    "D": enumerate_candidates,
    "R": enumerate_basis,
    "B": enumerate_loop_words,
}


def _cmd_enum(ns) -> int:
    alphabet = _alphabet(ns)
    enumerate_kind = _ENUM_KINDS[ns.kind]
    words = enumerate_kind(alphabet, ns.max_len)
    rendered = render_all(words, alphabet)
    _emit(ns, rendered + [f"count: {len(rendered)}"], rendered)
    return 0


def _print_report(ns, report: CheckReport) -> None:
    lines = [
        f"property: {report.name}",
        f"universe: {report.universe}",
        f"cases: {report.cases}",
        f"failures: {len(report.failures)}",
        f"elapsed-ms: {report.elapsed_ms:.1f}",
    ]
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    lines += [f"  {f}" for f in report.failures[:20]]
    if len(report.failures) > 20:
        lines.append(f"  ... and {len(report.failures) - 20} more")
    lines.append(f"verdict: {'pass' if report.ok else 'fail'}")
    _emit(ns, lines, report.to_dict())


def _cmd_check(ns) -> int:
    alphabet = _alphabet(ns)
    spec = SampleSpec(**{f.name: getattr(ns, f.name) for f in fields(SampleSpec)})
    report = check_identity_suite(ns.suite, alphabet, spec)
    _print_report(ns, report)
    return 0 if report.ok else 1


def _at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``, so that a bound
    that would scan nothing is refused with exit 2 instead of reporting on
    an empty universe."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {clip(text)}"
            )
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        default="ab",
        metavar="LETTERS",
        help="ordered alphabet, first letter smallest (default: ab)",
    )
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget in milliseconds",
    )

    parser = argparse.ArgumentParser(
        prog="bol2",
        description="Words, canonical basis, and loop arithmetic of the free "
        "Bol loop of exponent two over an ordered alphabet.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "normalize", parents=[common], help="reduce a word to its normal form"
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser(
        "compare", parents=[common], help="order two words (less/equal/greater)"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser(
        "transpose",
        parents=[common],
        help="spine, transposes, and transpose-family size of a word",
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_transpose)

    p = sub.add_parser("mul", parents=[common], help="loop product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser(
        "canon",
        parents=[common],
        help="half of the canonical palindromic form of an element",
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser(
        "ldiv", parents=[common], help="left quotient: the x with a*x = b"
    )
    p.add_argument("left", metavar="a")
    p.add_argument("right", metavar="b")
    p.add_argument(
        "--bound",
        type=_at_least(1),
        default=None,
        help="search length bound (default: |a|+|b|+2); not-found means only "
        "that the quotient is longer than the bound",
    )
    p.set_defaults(handler=_cmd_ldiv)

    p = sub.add_parser(
        "rdiv", parents=[common], help="right quotient: the x with x*a = b"
    )
    p.add_argument("left", metavar="b")
    p.add_argument("right", metavar="a")
    # Every element is its own inverse, so b / a is the product b * a.
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser(
        "enum",
        parents=[common],
        help="enumerate reduced words (W), candidates (D), the basis (R), "
        "or the loop carrier (B) up to a length",
    )
    p.add_argument("kind", choices=sorted(_ENUM_KINDS))
    p.add_argument("--max-len", type=_at_least(1), required=True)
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser(
        "check", parents=[common], help="run an identity or structure suite"
    )
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-len", type=_at_least(1), help="word length bound")
    p.add_argument(
        "--max-seq",
        type=_at_least(1),
        help="generator-sequence bound (group words, palindrome halves)",
    )
    p.add_argument(
        "--sample",
        dest="sample_size",
        metavar="SAMPLE",
        type=_at_least(1),
        help="sample size",
    )
    p.add_argument(
        "--exhaustive-limit",
        type=_at_least(0),
        help="largest universe scanned exhaustively; for nuclei, which never "
        "samples, the largest row of witness pairs (non-identity elements squared)",
    )
    p.add_argument(
        "--seed", type=int, help="seed for sampled checks (default: %(default)s)"
    )
    # SampleSpec owns the defaults; _cmd_check reads back one value per field.
    p.set_defaults(handler=_cmd_check, **asdict(SampleSpec()))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _budget(ns.budget):
            return ns.handler(ns)
    except BudgetExceeded as exc:
        code, message = 4, str(exc)
    except (RecursionError, MemoryError) as exc:
        code, message = 5, f"input too large for this process ({type(exc).__name__})"
    except InternalInvariantError as exc:
        code, message = 6, f"internal invariant failed: {exc}"
    except NotLoopElement as exc:
        code, message = 3, str(exc)
    except ValueError as exc:  # includes WordSyntaxError and bad alphabets
        code, message = 2, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def run() -> None:
    """The console entry point: :func:`main`, then exit at once.

    Both streams are flushed, and the process ends by ``os._exit`` without
    tearing down the heap: freeing a large intern table one word at a time
    can take as long again as the command did.  A closed output pipe ends
    the process by ``SIGPIPE``, as it ends other filters, where the platform
    has that signal.  In-process callers use :func:`main`, which returns
    normally."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
