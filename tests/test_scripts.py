"""The command line scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

from helpers import AB, ABC, enumerate_words

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("alphabet", [AB, ABC], ids=["ab", "abc"])
def test_plain_word_count_matches_enumeration(alphabet):
    growth = load_script("basis_growth")
    for n in range(1, 7):
        assert growth.plain_word_count(len(alphabet), n) == len(
            enumerate_words(alphabet, n)
        )


# Counts per length: W_n, then the cumulative D<=n, R<=n and B<=n.
GROWTH = {
    "ab": (
        [2, 2, 6, 24, 106, 510, 2558],
        [2, 3, 3, 6, 16, 77, 373],
        [2, 3, 3, 5, 7, 14, 32],
        [3, 5, 9, 16, 30, 64, 150],
    ),
    "abc": (
        [3, 6, 30, 198, 1452, 11412],
        [3, 6, 9, 39, 237, 1830],
        [3, 6, 9, 30, 102, 432],
        [4, 10, 31, 106, 415, 1780],
    ),
}


@pytest.mark.parametrize("letters", GROWTH)
def test_basis_growth_rows(letters, capsys):
    growth = load_script("basis_growth")
    columns = GROWTH[letters]
    max_len = len(columns[0])
    assert growth.main(["--alphabet", letters, "--max-len", str(max_len)]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "P_n", "W_n", "D<=n", "R<=n", "B<=n", "sec"]
    assert set(rule) == {"-"}
    # The time column varies from run to run; the counts do not.
    table = [[int(cell) for cell in row.split()[:-1]] for row in rows]
    assert table == [
        [n, growth.plain_word_count(len(letters), n), w, d, r, b]
        for n, w, d, r, b in zip(range(1, max_len + 1), *columns)
    ]
