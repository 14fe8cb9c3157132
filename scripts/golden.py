#!/usr/bin/env python3
"""Check that fixed outputs of bol2 are unchanged, by their sha256 digests.

Each entry of ``tests/golden.json`` names one output and holds the digest
that it must have:

* a ``--format json`` command line, run in process through ``cli.main``:
  the digest is of its exit code and its output, with ``elapsed_ms``
  dropped from a check report, since that is a timing;
* the same for a check run under a planted product (:func:`planted`),
  one with its operands swapped and one that returns its left operand, so
  that the digest fixes a long list of failures too;
* the spelled halves of the canonical forms of every non-identity carrier
  element of ``ab`` to length 11 and ``abc`` to length 7, each computed
  with the forms table emptied first.

The default mode recomputes every digest, prints each one that differs,
and exits 1 if any does.  ``--write`` writes the digests to the file
instead; a change that alters an output says which one and why.

Example:

    $ PYTHONPATH=src python scripts/golden.py
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

from bol2 import (
    SHARED_CACHE,
    Alphabet,
    cli,
    enumerate_loop_words,
    left_assoc,
    loop,
    render,
    symmetric_form,
    verify,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

# The command lines of the benchmark's enum and check workloads at seed 0,
# then the listings at the scale that CI runs.
COMMANDS = (
    "enum R --max-len 8",
    "enum B --max-len 8",
    "enum R --alphabet abc --max-len 6",
    "enum B --alphabet abc --max-len 6",
    "check bol --max-len 5 --exhaustive-limit 0 --sample 3000 --seed 163371115",
    "check transversal --max-len 7 --max-seq 4 --sample 600 --seed 281136722",
    "check bol --max-len 5",
    "check rip --max-len 6",
    "check rip --alphabet abc --max-len 4",
    "check exp2 --max-len 11",
    "check exp2 --alphabet abc --max-len 7",
    "check nuclei --max-len 4",
    "check nuclei --max-len 8",
    "check nuclei --alphabet abc --max-len 5",
    "enum R --max-len 13",
    "enum B --max-len 13",
    "enum R --alphabet abc --max-len 8",
    "enum B --alphabet abc --max-len 8",
    "enum W --max-len 9",
    "enum D --max-len 9",
    "enum W --alphabet abc --max-len 6",
    "enum D --alphabet abc --max-len 6",
)

# Checks under planted products, keyed by the label that prefixes their
# digests: under the swapped product most cases fail, and under the one that
# returns its left operand every case whose element is not the identity.
PLANTED = {
    "swapped mul": (
        lambda x, y: loop.mul(y, x),
        (
            "check bol --max-len 5 --exhaustive-limit 0 --sample 3000 --seed 7",
            "check rip --max-len 6 --exhaustive-limit 0 --sample 500 --seed 3",
            "check nuclei --max-len 6",
        ),
    ),
    "left operand": (
        lambda x, y: x,
        ("check exp2 --max-len 6", "check transversal --max-len 4 --max-seq 3"),
    ),
}

FORMS = (("ab", 11), ("abc", 7))


def digest(value) -> str:
    """The sha256 of a JSON value, written with its keys sorted."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def output(command: str) -> list:
    """The exit code and the parsed output of one command line, run with
    ``--format json``, without a check report's ``elapsed_ms``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split() + ["--format", "json"])
    data = json.loads(out.getvalue())
    if isinstance(data, dict):
        data.pop("elapsed_ms", None)
    return [code, data]


def induced_act(product):
    """The :func:`~bol2.loop.act` that ``product`` induces: the spine of
    ``product`` folded over ``ys`` from ``left_assoc(spine)``."""

    def act(spine, *ys):
        return verify._spine(functools.reduce(product, ys, left_assoc(spine)))

    return act


@contextlib.contextmanager
def planted(product):
    """Run the checks under ``product``, planted as the ``verify.act`` it
    induces, the one product that the checks read."""
    real = verify.act
    verify.act = induced_act(product)
    try:
        yield
    finally:
        verify.act = real


def cold_forms() -> list[str]:
    """Each listed element with its spelled form half, one line each."""
    lines = []
    for letters, max_len in FORMS:
        alphabet = Alphabet(letters)
        SHARED_CACHE.forms.clear()
        for element in enumerate_loop_words(alphabet, max_len)[1:]:
            half = " ".join(render(h, alphabet) for h in symmetric_form(element).half)
            lines.append(f"{letters} {render(element, alphabet)}: {half}")
    return lines


def compute() -> dict[str, str]:
    """Every digest, keyed by what it is of."""
    digests = {command: digest(output(command)) for command in COMMANDS}
    for label, (product, commands) in PLANTED.items():
        with planted(product):
            for command in commands:
                digests[f"{label}: {command}"] = digest(output(command))
    spelled = ", ".join(f"{letters} <= {max_len}" for letters, max_len in FORMS)
    digests[f"cold forms: {spelled}"] = digest(cold_forms())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"write {GOLDEN.name}")
    ns = parser.parse_args(argv)
    digests = compute()
    if ns.write:
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return 0
    expected = json.loads(GOLDEN.read_text())
    names = sorted(expected.keys() | digests.keys())
    changed = [name for name in names if expected.get(name) != digests.get(name)]
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} of {len(names)} digests changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
