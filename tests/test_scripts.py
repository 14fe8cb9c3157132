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
