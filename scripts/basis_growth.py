#!/usr/bin/env python3
"""Tabulate how the word classes grow with length.

For each length n up to --max-len, print the number of arbitrary words,
reduced words, candidate words (cumulative), basis words (cumulative) and
carrier elements (cumulative) over the chosen alphabet.  Arbitrary words are
counted by formula, Catalan(n-1) * k**n for k letters; the other columns
come from the enumerators.

Example:

    $ python scripts/basis_growth.py --alphabet ab --max-len 7
"""

import argparse
import math
import sys
import time

from bol2 import (
    Alphabet,
    enumerate_basis,
    enumerate_candidates,
    enumerate_loop_words,
    enumerate_reduced,
)


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
    for n in range(1, args.max_len + 1):
        t0 = time.perf_counter()
        row = (
            plain_word_count(len(alphabet), n),
            len(enumerate_reduced(alphabet, n)),
            len(enumerate_candidates(alphabet, n)),
            len(enumerate_basis(alphabet, n)),
            len(enumerate_loop_words(alphabet, n)),
        )
        dt = time.perf_counter() - t0
        print(f"{n:>3} {row[0]:>10} {row[1]:>10} {row[2]:>8} {row[3]:>8} "
              f"{row[4]:>8} {dt:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
