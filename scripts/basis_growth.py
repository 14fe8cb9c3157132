#!/usr/bin/env python3
"""Tabulate how the word classes grow with length.

For each length n up to --max-len, print the number of arbitrary words,
reduced words, candidate words (cumulative), basis words (cumulative) and
carrier elements (cumulative) over the chosen alphabet.  Arbitrary words are
counted by formula, Catalan(n-1) * k**n for k letters; the other columns
come from the level generator of ``bol2.basis``, read once in each of its
two modes: the reduced words with their candidates, and the carrier with
the basis.  The ``sec`` column is the time to build the row's levels.

Example:

    $ python scripts/basis_growth.py --alphabet ab --max-len 7
"""

import argparse
import itertools
import math
import sys
import time

from bol2 import Alphabet, is_candidate
from bol2.basis import _levels


def plain_word_count(n_letters: int, size: int) -> int:
    """Number of words with ``size`` letters: a full binary tree shape with
    ``size`` leaves (Catalan(size-1) of them) times a letter per leaf."""
    return math.comb(2 * size - 2, size - 1) // size * n_letters**size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphabet", default="ab", metavar="LETTERS")
    parser.add_argument("--max-len", type=int, default=7)
    args = parser.parse_args(argv)

    alphabet = Alphabet(args.alphabet)
    header = f"{'n':>3} {'P_n':>10} {'W_n':>10} {'D<=n':>8} {'R<=n':>8} {'B<=n':>8} {'sec':>7}"
    print(header)
    print("-" * len(header))
    # Each reduced-word level W_n is followed by itself as its factor level.
    reduced = itertools.islice(_levels(alphabet, args.max_len, reduced=True), 0, None, 2)
    generated = _levels(alphabet, args.max_len)  # C_1, B_1, C_2, B_2, ...
    candidates, basis_words, carrier = 0, 0, 1  # the identity is in the carrier
    for n in range(1, args.max_len + 1):
        t0 = time.perf_counter()
        level = next(reduced)
        candidates += sum(map(is_candidate, level))
        carrier += len(next(generated))
        basis_words += len(next(generated))
        dt = time.perf_counter() - t0
        print(f"{n:>3} {plain_word_count(len(alphabet), n):>10} {len(level):>10} "
              f"{candidates:>8} {basis_words:>8} {carrier:>8} {dt:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
