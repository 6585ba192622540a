"""Shared fixtures.  `weight_table` guards the per-process caches of
`cmsweep.quatrep` and `cartan_table` the cached positive coroots of
`cmsweep.liereps`: a test that patches one of their tables or a cached
table fact requests the fixture, which tests/test_imports.py enforces."""

import pytest

from cmsweep import liereps, quatrep

# the functools.cache functions of quatrep and liereps: facts of their int
# tables, each computed once per process
TABLE_FACTS = tuple(f for module in (quatrep, liereps)
                    for f in vars(module).values()
                    if hasattr(f, "cache_clear"))


def _clear_table_facts():
    for fact in TABLE_FACTS:
        fact.cache_clear()


def _guarded(monkeypatch, patch):
    """Yields install(*args), which runs patch(*args).  Every cached table
    fact is cleared before the test, at each install and after the test,
    once its patches are undone, so no fact computed from a patched table
    outlives it."""
    def install(*args):
        patch(*args)
        _clear_table_facts()

    _clear_table_facts()
    yield install
    monkeypatch.undo()
    _clear_table_facts()


@pytest.fixture
def weight_table(monkeypatch):
    """install(table) puts table in place of quatrep.WEIGHT_MATRICES."""
    yield from _guarded(monkeypatch, lambda table: monkeypatch.setattr(
        quatrep, "WEIGHT_MATRICES", table))


@pytest.fixture
def cartan_table(monkeypatch):
    """install(algebra_type, matrix) puts matrix in place of
    liereps.CARTAN[algebra_type]."""
    yield from _guarded(monkeypatch, lambda typ, matrix: monkeypatch.setitem(
        liereps.CARTAN, typ, matrix))
