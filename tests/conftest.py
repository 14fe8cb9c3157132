import pytest
from hypothesis import HealthCheck, settings

from bol2 import SHARED_CACHE, Alphabet

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ab() -> Alphabet:
    return Alphabet("ab")


@pytest.fixture(scope="session")
def abc() -> Alphabet:
    return Alphabet("abc")


@pytest.fixture()
def fresh_cache():
    """The shared memo tables, emptied for one test about cache behaviour
    itself and refilled with their old entries after it."""
    tables = vars(SHARED_CACHE).values()
    saved = [dict(table) for table in tables]
    for table in tables:
        table.clear()
    yield SHARED_CACHE
    for table, entries in zip(tables, saved):
        table.clear()
        table.update(entries)
