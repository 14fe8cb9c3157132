"""The command line scripts under ``scripts/``."""

import gc
import json

import pytest

from helpers import AB, ABC, enumerate_words, load_script


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
    assert gc.isenabled()  # the rows are built without it, then it is back
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "P_n", "W_n", "D<=n", "R<=n", "B<=n", "sec"]
    assert set(rule) == {"-"}
    # The time column varies from run to run; the counts do not.
    table = [[int(cell) for cell in row.split()[:-1]] for row in rows]
    assert table == [
        [n, growth.plain_word_count(len(letters), n), w, d, r, b]
        for n, w, d, r, b in zip(range(1, max_len + 1), *columns)
    ]


def test_golden_digests_are_unchanged():
    # Each fixed output, recomputed in this process through ``cli.main``
    # and the library, has the digest recorded in ``tests/golden.json``.
    golden = load_script("golden")
    assert golden.compute() == json.loads(golden.GOLDEN.read_text())


def test_golden_check_exits_1_on_a_changed_digest(monkeypatch, tmp_path, capsys):
    golden = load_script("golden")
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "compute", lambda: {"one": "1", "two": "2"})
    assert golden.main(["--write"]) == 0
    assert golden.main([]) == 0
    (tmp_path / "golden.json").write_text(json.dumps({"one": "1", "two": "3"}))
    capsys.readouterr()
    assert golden.main([]) == 1
    assert capsys.readouterr().out == "changed: two\n1 of 2 digests changed\n"
