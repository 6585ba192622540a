"""Shared fixtures.  `weight_table` guards the per-process caches of
`cmsweep.quatrep`: a test that patches one of its tables or a cached
table fact requests it, which tests/test_imports.py enforces."""

import pytest

from cmsweep import quatrep

# the functools.cache functions of quatrep: facts of its int tables that
# do not depend on (D', D, a), each proven once per process
TABLE_FACTS = tuple(f for f in vars(quatrep).values()
                    if hasattr(f, "cache_clear"))


def _clear_table_facts():
    for fact in TABLE_FACTS:
        fact.cache_clear()


@pytest.fixture
def weight_table(monkeypatch):
    """install(table) puts table in place of quatrep.WEIGHT_MATRICES.
    Every cached table fact is cleared before the test, at each install
    and after the test, once its patches are undone, so no fact proven on
    a patched table outlives it."""
    def install(table):
        monkeypatch.setattr(quatrep, "WEIGHT_MATRICES", table)
        _clear_table_facts()

    _clear_table_facts()
    yield install
    monkeypatch.undo()
    _clear_table_facts()
