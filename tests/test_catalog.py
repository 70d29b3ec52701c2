import itertools

import pytest

from finheyt.algebra import (
    VarietyClass,
    canonical_form,
    derive_operations,
    serial_key,
    validate,
)
from finheyt.catalog import (
    MAX_LATTICE_SIZE,
    Catalog,
    build_catalog,
    decorate,
    enum_distributive_lattices,
)
from finheyt.fixtures import b4_disc, b4_prod, c3_simple


def oracle_lattice_counts(max_k=4):
    """Distributive-lattice counts derived from scratch: enumerate every labeled
    strict order on up to max_k points, dedupe up to isomorphism by minimizing
    the relation matrix over all permutations, and count downsets."""
    counts = {}
    for k in range(max_k + 1):
        seen = set()
        pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            rel = {p for p, b in zip(pairs, bits) if b}
            if any((j, i) in rel for i, j in rel):
                continue
            if any((i, j) in rel and (j, l) in rel and (i, l) not in rel
                   for i, j in rel for (j2, l) in rel if j2 == j):
                continue
            key = min(
                tuple(sorted((perm[i], perm[j]) for i, j in rel))
                for perm in itertools.permutations(range(k))
            )
            if key in seen:
                continue
            seen.add(key)
            downsets = [
                s for s in range(1 << k)
                if all(s >> i & 1 or not s >> j & 1 for i, j in rel)
            ]
            n = len(downsets)
            counts[n] = counts.get(n, 0) + 1
    return counts


def test_enum_counts_match_independent_oracle_small():
    oracle = oracle_lattice_counts(4)
    for n in range(1, 6):  # lattices of size <= 5 have at most 4 join-irreducibles
        assert len(enum_distributive_lattices(n)) == oracle[n], n


def test_enum_counts_frozen_sequence():
    # OEIS A006982: distributive lattices on n unlabeled elements
    assert [len(enum_distributive_lattices(n)) for n in range(1, 13)] == [
        1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151,
    ]


def test_enum_bounds():
    with pytest.raises(ValueError):
        enum_distributive_lattices(0)
    with pytest.raises(ValueError):
        enum_distributive_lattices(MAX_LATTICE_SIZE + 1)


def test_enum_lattices_are_canonical_valid_and_distinct():
    for n in range(1, 8):
        lattices = enum_distributive_lattices(n)
        keys = {serial_key(a) for a in lattices}
        assert len(keys) == len(lattices)
        for alg in lattices:
            assert validate(alg).valid
            assert canonical_form(alg) == alg
            assert alg.size == n


def test_decorate_examples():
    chain3 = enum_distributive_lattices(3)[0]
    ws5 = decorate(VarietyClass("ws5"), chain3)
    assert len(ws5) == 1
    assert ws5[0].box == (0, 0, 2)  # identity box fails the Boolean-open check

    chain2 = enum_distributive_lattices(2)[0]
    hri = decorate(VarietyClass("hri"), chain2)
    assert len(hri) == 1 and hri[0].invol == (1, 0)

    diamond = next(
        L for L in enum_distributive_lattices(4)
        if not all(L.meet[a][b] in (a, b) for a in L.elements for b in L.elements)
    )
    hdp = decorate(VarietyClass("hdp", 1), diamond)
    assert len(hdp) == 1
    assert hdp[0].dualneg == tuple(hdp[0].neg[a] for a in hdp[0].elements)


def test_decorate_ws5_of_diamond_gives_both_fixtures():
    diamond = next(
        L for L in enum_distributive_lattices(4)
        if not all(L.meet[a][b] in (a, b) for a in L.elements for b in L.elements)
    )
    ws5 = decorate(VarietyClass("ws5"), diamond)
    keys = {serial_key(a) for a in ws5}
    assert keys == {serial_key(canonical_form(b4_disc())), serial_key(canonical_form(b4_prod()))}


def test_decorate_rejects_decorated_input():
    with pytest.raises(ValueError):
        decorate(VarietyClass("ws5"), c3_simple())


def test_catalog_invariants(catalogs):
    for cls, cat in catalogs.items():
        assert isinstance(cat, Catalog)
        keys = set()
        for alg in cat.algebras:
            assert alg.cls == cls
            assert validate(alg).valid
            assert canonical_form(alg) == alg
            assert derive_operations(alg) == alg  # decorations carry their derived tables
            keys.add(serial_key(alg))
        assert len(keys) == len(cat.algebras)


def test_catalog_contains_the_fixture_algebras(catalogs):
    ws5 = catalogs[VarietyClass("ws5")]
    keys = {serial_key(a) for a in ws5.algebras}
    assert serial_key(canonical_form(b4_disc())) in keys
    assert serial_key(canonical_form(b4_prod())) in keys
    assert serial_key(canonical_form(c3_simple())) in keys


def test_catalog_names_are_stable_and_unique(catalogs):
    for cat in catalogs.values():
        names = [a.name for a in cat.algebras]
        assert len(set(names)) == len(names)
        for alg in cat.algebras:
            assert alg.name.endswith(tuple("0123456789"))
            assert f"n{alg.size}" in alg.name
