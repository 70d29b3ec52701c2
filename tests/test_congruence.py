import dataclasses
import itertools
from functools import reduce

import pytest

from finheyt.algebra import HEYTING, canonical_form, element_profile, serial_key, validate
from finheyt.catalog import build_catalog
from finheyt.congruence import (
    Congruence,
    all_congruence_filters,
    boolean_projection,
    congruence_from_blocks,
    decompose_simples,
    factor_complement,
    generated_congfilter,
    generated_hfilter,
    is_congruence_filter,
    is_hfilter,
    principal_congruence,
    principal_generator,
    product,
    quotient,
    to_congruence,
    to_filter,
)
from finheyt.fixtures import (
    b4_disc,
    b4_hri,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_simple,
    catalog_fixtures,
    two_ws5,
)
from finheyt.morphism import homs, isomorphic

# -- independent oracles -------------------------------------------------------

def closure_oracle(alg, seed, use_box):
    """Iterative closure of seed under meet, upward closure, and (optionally) box."""
    f = set(seed) | {alg.top}
    changed = True
    while changed:
        changed = False
        for a in list(f):
            news = set(alg.upset[a])
            news.update(alg.meet[a][b] for b in f)
            if use_box and alg.box is not None:
                news.add(alg.box[a])
            fresh = news - f
            if fresh:
                f |= fresh
                changed = True
    return frozenset(f)


def congruence_closure_oracle(alg, a, b):
    """Least compatible equivalence identifying a and b, by union-find saturation."""
    parent = list(range(alg.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            return True
        return False

    union(a, b)
    changed = True
    while changed:
        changed = False
        related = [
            (x, y) for x in alg.elements for y in alg.elements if x < y and find(x) == find(y)
        ]
        for x, y in related:
            for t in alg.unary_tables().values():
                changed |= union(t[x], t[y])
            for t in alg.binary_tables().values():
                for c in alg.elements:
                    changed |= union(t[x][c], t[y][c])
                    changed |= union(t[c][x], t[c][y])
    groups = {}
    for x in alg.elements:
        groups.setdefault(find(x), []).append(x)
    return Congruence(tuple(tuple(g) for g in groups.values()), alg.size)


def bruteforce_congruence_filters(alg):
    """Every box-closed h-filter, by scanning all subsets containing the top."""
    rest = [a for a in alg.elements if a != alg.top]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            f = frozenset((alg.top, *extra))
            if is_congruence_filter(alg, f):
                out.append(f)
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def iff_congruence(alg, f):
    """Congruence of a filter by its definition: a ~ r iff a <-> r lies in f."""
    reps, blocks = [], []
    for a in alg.elements:
        for i, r in enumerate(reps):
            if alg.iff(a, r) in f:
                blocks[i].append(a)
                break
        else:
            reps.append(a)
            blocks.append([a])
    return congruence_from_blocks(alg, blocks)


def scan_factor_complement(alg, theta):
    """First congruence, in filter order, that meets theta in the identity, joins it
    to the total congruence and permutes with it; None when there is none."""
    for f in all_congruence_filters(alg):
        theta_prime = iff_congruence(alg, f)
        if (
            theta.meet(theta_prime).is_identity
            and theta.join(theta_prime).is_total
            and theta.permutes_with(theta_prime)
        ):
            return theta_prime
    return None


def split_oracle(alg):
    """Split along the first proper congruence that has a complement, recursively."""
    for f in all_congruence_filters(alg):
        if len(f) in (1, alg.size):
            continue
        theta = iff_congruence(alg, f)
        theta_prime = scan_factor_complement(alg, theta)
        if theta_prime is not None:
            return split_oracle(quotient(alg, theta)[0]) + split_oracle(quotient(alg, theta_prime)[0])
    return [alg]


def heyting(alg):
    """The plain Heyting algebra of a ws5 fixture: the same lattice without its box."""
    return dataclasses.replace(alg, cls=HEYTING, box=None, name=f"{alg.name}-H")


# -- filters -------------------------------------------------------------------

def test_generated_hfilter_examples():
    assert generated_hfilter(c3_simple(), {1}) == frozenset({1, 2})
    assert generated_hfilter(b4_prod(), set()) == frozenset({3})
    assert generated_hfilter(b4_prod(), {1, 2}) == frozenset({0, 1, 2, 3})


def test_generated_congfilter_examples():
    assert generated_congfilter(c3_simple(), {1}) == frozenset({0, 1, 2})
    assert generated_congfilter(b4_prod(), {1}) == frozenset({1, 3})
    assert generated_congfilter(b4_prod(), {3}) == frozenset({3})
    assert generated_congfilter(two_ws5(), set()) == frozenset({1})


def test_generated_filters_match_closure_oracle_exhaustively():
    for alg in catalog_fixtures():
        elements = list(alg.elements)
        for k in range(len(elements) + 1):
            for seed in itertools.combinations(elements, k):
                if seed:
                    assert generated_congfilter(alg, seed) == closure_oracle(alg, seed, True)
                got = generated_hfilter(alg, seed)
                assert got == closure_oracle(alg, seed, False)
                assert is_hfilter(alg, got)


def test_all_congruence_filters_match_bruteforce():
    for alg in catalog_fixtures():
        assert all_congruence_filters(alg) == bruteforce_congruence_filters(alg)


def test_principal_generator_examples():
    assert principal_generator(b4_prod(), frozenset({1, 3})) == 1
    assert principal_generator(b4_prod(), frozenset({3})) == 3
    assert principal_generator(c3_simple(), frozenset({0, 1, 2})) == 0


def test_every_congruence_filter_has_verified_generator():
    for alg in catalog_fixtures():
        for f in all_congruence_filters(alg):
            b = principal_generator(alg, f)
            assert b in f
            box_b = b if alg.box is None else alg.box[b]
            assert frozenset(alg.upset[box_b]) == f


# -- congruences ---------------------------------------------------------------

def test_to_congruence_examples():
    theta = to_congruence(b4_prod(), frozenset({1, 3}))
    assert theta.blocks == ((0, 2), (1, 3))
    assert to_congruence(b4_prod(), frozenset({3})).is_identity
    assert to_congruence(b4_prod(), frozenset({0, 1, 2, 3})).is_total


def test_to_congruence_rejects_non_filters():
    with pytest.raises(ValueError):
        to_congruence(b4_prod(), frozenset({0, 3}))
    with pytest.raises(ValueError):
        to_congruence(c3_simple(), frozenset({1, 2}))  # h-filter but not box-closed


def test_filter_congruence_roundtrips_exhaustive():
    for alg in catalog_fixtures():
        for f in all_congruence_filters(alg):
            theta = to_congruence(alg, f)
            assert to_filter(alg, theta) == f
            assert to_congruence(alg, to_filter(alg, theta)) == theta


def test_congruence_from_blocks_rejects_incompatible_partitions():
    with pytest.raises(ValueError):
        congruence_from_blocks(b4_disc(), ((0, 1), (2, 3)))  # not box-compatible
    with pytest.raises(ValueError):
        congruence_from_blocks(b4_prod(), ((0,), (1, 2), (3,)))  # breaks meet
    with pytest.raises(ValueError):
        congruence_from_blocks(b4_prod(), ((0, 1), (1, 2, 3)))  # not a partition


def test_principal_congruence_examples_and_oracle():
    assert principal_congruence(b4_prod(), 1, 3).blocks == ((0, 2), (1, 3))
    assert principal_congruence(b4_prod(), 2, 2).is_identity
    assert principal_congruence(b4_disc(), 1, 3).is_total
    for alg in catalog_fixtures():
        for a in alg.elements:
            for b in alg.elements:
                assert principal_congruence(alg, a, b) == congruence_closure_oracle(alg, a, b)


def test_quotient_examples():
    theta = to_congruence(b4_prod(), frozenset({1, 3}))
    q, proj = quotient(b4_prod(), theta)
    assert q == two_ws5()
    assert proj.map == (0, 1, 0, 1)
    assert proj.onto

    ident = to_congruence(c3_simple(), frozenset({2}))
    q, proj = quotient(c3_simple(), ident)
    assert q == canonical_form(c3_simple())
    assert proj.injective and proj.onto

    total = to_congruence(c3_simple(), frozenset({0, 1, 2}))
    q, _ = quotient(c3_simple(), total)
    assert q.size == 1


def test_product_examples():
    assert product(two_ws5(), two_ws5()) == b4_prod()
    one, _ = quotient(two_ws5(), to_congruence(two_ws5(), frozenset({0, 1})))
    assert isomorphic(product(c3_simple(), one), c3_simple()) is not None
    p6 = product(two_ws5(), c3_simple())
    assert p6.size == 6
    assert p6.open_set == frozenset({0, 2, 3, 5})  # pairs of opens under (x,y) -> 3x+y


def test_product_class_mismatch():
    with pytest.raises(ValueError):
        product(two_ws5(), c3_hri())


def test_factor_complement_examples():
    theta = principal_congruence(b4_prod(), 1, 3)
    pair = factor_complement(b4_prod(), theta)
    assert pair is not None
    assert to_filter(b4_prod(), pair.theta_prime) == frozenset({2, 3})
    assert pair.iso.onto and pair.iso.injective
    assert pair.quotient_a.size == pair.quotient_b.size == 2

    ident = to_congruence(c3_simple(), frozenset({2}))
    pair = factor_complement(c3_simple(), ident)
    assert pair is not None and pair.theta_prime.is_total

    # C3 is directly indecomposable: the only complement of the identity is total
    mid = principal_congruence(c3_simple(), 1, 2)
    assert mid.is_total  # simple algebra: nothing proper to complement


def test_factor_pair_properties_on_fixtures():
    for alg in catalog_fixtures():
        for a in alg.elements:
            for b in alg.elements:
                theta = principal_congruence(alg, a, b)
                pair = factor_complement(alg, theta)
                assert pair is not None
                assert pair.theta.meet(pair.theta_prime).is_identity
                assert pair.theta.join(pair.theta_prime).is_total
                assert pair.theta.permutes_with(pair.theta_prime)
                assert pair.iso.onto and pair.iso.injective


def test_decompose_examples():
    assert [f.size for f in decompose_simples(b4_prod())] == [2, 2]
    factors = decompose_simples(b4_disc())
    assert len(factors) == 1 and factors[0] == canonical_form(b4_disc())
    p6 = product(two_ws5(), c3_simple())
    sizes = sorted(f.size for f in decompose_simples(p6))
    assert sizes == [2, 3]
    for f in decompose_simples(p6):
        assert element_profile(f).simple


def test_heyting_congruences_without_box():
    chain = heyting(c3_simple())
    middle = to_congruence(chain, frozenset({1, 2}))
    assert middle.blocks == ((0,), (1, 2))
    assert factor_complement(chain, middle) is None  # 1 | !1 = 1 | 0 < 1
    assert decompose_simples(chain) == [chain]
    assert [f.size for f in decompose_simples(heyting(b4_prod()))] == [2, 2]


def test_constructions_match_search_oracles(catalogs):
    algebras = [a for cat in catalogs.values() for a in cat.algebras if a.size <= 6]
    algebras += build_catalog(HEYTING, 6).algebras
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(catalog_fixtures(), k):
            if len({a.cls for a in combo}) == 1 and reduce(lambda n, a: n * a.size, combo, 1) <= 12:
                algebras.append(reduce(product, combo))
    for alg in algebras:
        assert all_congruence_filters(alg) == bruteforce_congruence_filters(alg), alg
        for f in all_congruence_filters(alg):
            theta = to_congruence(alg, f)
            assert theta == iff_congruence(alg, f), (alg, f)
            pair = factor_complement(alg, theta)
            assert (pair and pair.theta_prime) == scan_factor_complement(alg, theta), (alg, f)
        if alg.nontrivial:
            assert decompose_simples(alg) == sorted(split_oracle(alg), key=serial_key), alg


def test_decompose_requires_nontrivial():
    one, _ = quotient(two_ws5(), to_congruence(two_ws5(), frozenset({0, 1})))
    with pytest.raises(ValueError):
        decompose_simples(one)


def test_boolean_projection_examples():
    out, _ = boolean_projection(b4_disc())
    assert out == canonical_form(b4_disc())
    out, proj = boolean_projection(c3_simple())
    assert out.size == 1
    assert proj.map == (0, 0, 0)
    out, _ = boolean_projection(b4_prod())
    assert out == b4_prod()


def test_boolean_projection_universal_property_on_fixtures():
    for alg in catalog_fixtures():
        bp, _ = boolean_projection(alg)
        assert bp.boolean_h_reduct
        for f in all_congruence_filters(alg):
            q, _ = quotient(alg, to_congruence(alg, f))
            if q.boolean_h_reduct:
                assert homs(bp, q, "any_onto") is not None


def test_quotients_validate():
    for alg in catalog_fixtures():
        for f in all_congruence_filters(alg):
            q, proj = quotient(alg, to_congruence(alg, f))
            assert validate(q).valid
            assert proj.onto
