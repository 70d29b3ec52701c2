import itertools

import pytest

from finheyt import io
from finheyt.algebra import VarietyClass
from finheyt.catalog import build_catalog
from finheyt.congruence import product
from finheyt.fixtures import catalog_fixtures

# The decorated discriminator classes exercised by the exhaustive suites.  The
# plain Heyting class only feeds the enumeration checks: the factor-congruence
# and projectivity theorems assume a discriminator variety.
ACCEPTANCE_CLASSES = (
    VarietyClass("ws5"),
    VarietyClass("hri"),
    VarietyClass("hdp", 1),
    VarietyClass("dht", 1),
    VarietyClass("hdp", 2),
    VarietyClass("dht", 2),
)


@pytest.fixture(autouse=True)
def _fresh_reads():
    """Empty io's read cache before each test, so that no test gets an algebra
    object, or its cached properties, from a file an earlier test read."""
    io._parsed.cache_clear()


@pytest.fixture(scope="session")
def catalogs():
    return {cls: build_catalog(cls, 8) for cls in ACCEPTANCE_CLASSES}


@pytest.fixture(scope="session")
def catalog_algebras(catalogs):
    """Every catalog algebra of every acceptance class, sizes 1..8."""
    return [a for cat in catalogs.values() for a in cat.algebras]


@pytest.fixture(scope="session")
def nontrivial_algebras(catalog_algebras):
    return [a for a in catalog_algebras if a.nontrivial]


@pytest.fixture(scope="session")
def small_algebras():
    """The catalogs to size 6 of ws5, hri, hdp:1, dht:2 and heyting (so the trivial
    algebra of each), the catalog fixtures, and every product of two nontrivial
    same-class ones among these of at most 12 elements."""
    classes = (VarietyClass("ws5"), VarietyClass("hri"), VarietyClass("hdp", 1),
               VarietyClass("dht", 2), VarietyClass("heyting"))
    base = [a for cls in classes for a in build_catalog(cls, 6).algebras]
    base += catalog_fixtures()
    pairs = itertools.combinations_with_replacement(base, 2)
    return base + [product(a, b) for a, b in pairs
                   if a.cls == b.cls and a.nontrivial and b.nontrivial and a.size * b.size <= 12]
