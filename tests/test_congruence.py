import dataclasses
import itertools
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finheyt import congruence as cg
from finheyt.algebra import (
    VarietyClass,
    canonical_form,
    canonical_relabeling,
    discriminator_eval,
    element_profile,
    serial_key,
    validate,
)
from finheyt.catalog import build_catalog
from finheyt.congruence import (
    Congruence,
    all_congruence_filters,
    boolean_projection,
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
from finheyt.errors import TheoremViolation
from finheyt.fixtures import (
    b4_disc,
    b4_hri,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_simple,
    catalog_fixtures,
    two_element,
    two_ws5,
)
from finheyt.morphism import Homomorphism, homs, isomorphic, subalgebra_closure

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


def filter_oracle(alg, f, use_box):
    """Whether f is an h-filter (and, with use_box and a box table, box-closed), by
    scanning: the top in f, upward closed, meet-closed, box-closed."""
    return (
        alg.top in f
        and all(b in f for a in f for b in alg.upset[a])
        and all(alg.meet[a][b] in f for a in f for b in f)
        and not (use_box and alg.box is not None and any(alg.box[a] not in f for a in f))
    )


def bruteforce_congruence_filters(alg):
    """Every box-closed h-filter, by scanning all subsets containing the top."""
    rest = [a for a in alg.elements if a != alg.top]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            f = frozenset((alg.top, *extra))
            if filter_oracle(alg, f, True):
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
    return Congruence(tuple(tuple(b) for b in blocks), alg.size)


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


def permutes_oracle(theta, phi):
    """theta o phi == phi o theta, by composing the two relations element by element."""
    n = theta.size

    def compose(first, second):
        out = set()
        for a in range(n):
            for b in range(n):
                if first.class_of[a] == first.class_of[b]:
                    for c in range(n):
                        if second.class_of[b] == second.class_of[c]:
                            out.add((a, c))
        return out

    return compose(theta, phi) == compose(phi, theta)


def meet_oracle(theta, phi):
    """The non-empty pairwise intersections of the blocks."""
    cuts = (set(p) & set(q) for p in theta.blocks for q in phi.blocks)
    return Congruence(tuple(tuple(c) for c in cuts if c), theta.size)


def join_oracle(theta, phi):
    """The transitive closure of the union of the two relations (Warshall)."""
    n = theta.size
    rel = [[False] * n for _ in range(n)]
    for block in (*theta.blocks, *phi.blocks):
        for a in block:
            for c in block:
                rel[a][c] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                rel[i] = [x or y for x, y in zip(rel[i], rel[k])]
    return _partition([rel[a].index(True) for a in range(n)])


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
    return dataclasses.replace(alg, cls=VarietyClass("heyting"), box=None, name=f"{alg.name}-H")


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
    # {1, 2} is an h-filter, but box 1 = 0 generates the whole chain
    with pytest.raises(TheoremViolation, match=r"meet 1 does not box-generate the filter \[1, 2\]"):
        principal_generator(c3_simple(), {1, 2})


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


def test_principal_congruence_examples_and_oracle():
    assert principal_congruence(b4_prod(), 1, 3).blocks == ((0, 2), (1, 3))
    assert principal_congruence(b4_prod(), 2, 2).is_identity
    assert principal_congruence(b4_disc(), 1, 3).is_total
    for alg in catalog_fixtures():
        for a in alg.elements:
            for b in alg.elements:
                assert principal_congruence(alg, a, b) == congruence_closure_oracle(alg, a, b)


def test_principal_congruences_are_those_of_the_open_elements(nontrivial_algebras):
    # theta(a, b) is the congruence of the up-set of the open element [](a <-> b), and
    # an open o is [](o <-> 1): the census sweeps the open elements for this reason
    for alg in nontrivial_algebras:
        pairs = {principal_congruence(alg, a, b) for a in alg.elements for b in alg.elements}
        opens = {principal_congruence(alg, o, alg.top) for o in alg.open_set}
        assert pairs == opens and len(opens) == len(alg.open_set), alg


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


def test_quotient_of_48_element_product_by_principal_congruence():
    pair = product(b4_disc(), b4_disc())
    alg = product(pair, c3_simple())  # (p, z) sits at index 3p + z
    q, proj = quotient(alg, principal_congruence(alg, 0, 1))
    assert q == canonical_form(pair)
    onto_pair = Homomorphism(pair, q, tuple(proj.map[3 * p] for p in pair.elements))
    assert onto_pair.injective and onto_pair.onto
    assert proj.map == tuple(onto_pair.map[a // 3] for a in alg.elements)


def test_quotient_of_16_element_product_by_the_identity():
    alg = product(b4_prod(), b4_prod())
    q, proj = quotient(alg, to_congruence(alg, frozenset({alg.top})))
    assert (proj.map, q) == canonical_relabeling(alg)
    assert proj.injective and proj.onto


def test_product_examples():
    assert product(two_ws5(), two_ws5()) == b4_prod()
    one, _ = quotient(two_ws5(), to_congruence(two_ws5(), frozenset({0, 1})))
    assert isomorphic(product(c3_simple(), one), c3_simple()) is not None
    p6 = product(two_ws5(), c3_simple())
    assert p6.size == 6
    assert p6.open_set == frozenset({0, 2, 3, 5})  # pairs of opens under (x,y) -> 3x+y


def test_product_class_mismatch():
    """The factors must share their class and their tables: a factor without a
    table the other carries raises, rather than giving a product without it."""
    with pytest.raises(ValueError, match="class mismatch"):
        product(two_ws5(), c3_hri())
    with pytest.raises(ValueError, match="tables differ"):
        product(c3_hri(), dataclasses.replace(c3_hri(), box=None))


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


def _partition(labels):
    """The partition of range(len(labels)) into the classes of equal labels."""
    blocks = {}
    for a, v in enumerate(labels):
        blocks.setdefault(v, []).append(a)
    return Congruence(tuple(tuple(b) for b in blocks.values()), len(labels))


_label_pairs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, n - 1), min_size=n, max_size=n)] * 2)
)


@given(_label_pairs)
@settings(max_examples=300, deadline=None)
def test_permutes_with_matches_relational_composition(labels):
    """Random partitions, most of them not congruences of any algebra."""
    theta, phi = map(_partition, labels)
    assert theta.permutes_with(phi) == permutes_oracle(theta, phi)
    assert theta.meet(phi) == meet_oracle(theta, phi)
    assert theta.join(phi) == join_oracle(theta, phi)
    # comparable equivalences always permute
    assert theta.permutes_with(theta.join(phi)) and theta.meet(phi).permutes_with(phi)


@pytest.mark.parametrize("n, bell, permuting, identities, totals", [
    (4, 15, 117, 113, 119),
    (5, 52, 864, 1153, 1343),
], ids=["4", "5"])
def test_permutes_with_matches_oracle_on_every_pair_of_partitions(
        n, bell, permuting, identities, totals):
    """Every ordered pair of partitions of n; the counts were taken by composing the
    relations directly.  A meet to the identity and a join to the total are the
    shared ones of that size, and every other result is grouped."""
    parts = {_partition(labels) for labels in itertools.product(range(n), repeat=n)}
    assert len(parts) == bell
    identity, total = cg._extremes(n)
    counts = Counter()
    for theta, phi in itertools.product(parts, repeat=2):
        verdict, meet, join = theta.permutes_with(phi), theta.meet(phi), theta.join(phi)
        assert verdict == permutes_oracle(theta, phi), (theta, phi)
        assert meet == meet_oracle(theta, phi), (theta, phi)
        assert join == join_oracle(theta, phi), (theta, phi)
        assert (meet == identity) == (meet is identity) and (join == total) == (join is total)
        counts.update(permuting=verdict, identities=meet is identity, totals=join is total)
    assert counts == Counter(permuting=permuting, identities=identities, totals=totals)


def test_binary_operations_reject_partitions_of_different_sizes():
    three, four = _partition([0, 0, 1]), _partition([0, 1, 1, 2])
    for op in (Congruence.meet, Congruence.join, Congruence.permutes_with):
        for x, y in ((three, four), (four, three)):
            with pytest.raises(ValueError, match=f"partitions of {x.size} and {y.size} elements"):
                op(x, y)


def test_decompose_examples():
    assert [f.size for f in decompose_simples(b4_prod())] == [2, 2]
    factors = decompose_simples(b4_disc())
    assert len(factors) == 1 and factors[0] == canonical_form(b4_disc())
    p6 = product(two_ws5(), c3_simple())
    sizes = sorted(f.size for f in decompose_simples(p6))
    assert sizes == [2, 3]
    for f in decompose_simples(p6):
        assert element_profile(f).simple


def test_decompose_fourth_power_of_b4disc():
    alg = reduce(product, [b4_disc()] * 4)
    assert decompose_simples(alg) == [canonical_form(b4_disc())] * 4


def test_decompose_144_element_product():
    alg = reduce(product, [c3_simple(), c3_simple(), b4_disc(), b4_disc()])
    assert alg.size == 144
    factors = [canonical_form(f) for f in (c3_simple(), c3_simple(), b4_disc(), b4_disc())]
    assert decompose_simples(alg) == sorted(factors, key=serial_key)


def test_decompose_raises_when_the_projections_are_not_a_bijection(monkeypatch):
    # Every atom gets the factor of the first atom, so x -> (p(x), p(x)) is not onto.
    alg = b4_prod()
    real = cg._congruence_of
    monkeypatch.setattr(cg, "_congruence_of", lambda a, b: real(a, 1))
    with pytest.raises(TheoremViolation):
        decompose_simples(alg)


def test_congruence_of_a_generator_that_is_not_open_is_a_theorem_violation():
    # the fibres of a -> a & 1 in C3 put 1 with the top but not box 1 = 0 with box 2 = 2;
    # the compatibility pass caches no violation, so a repeated call raises again
    for _ in range(2):
        with pytest.raises(TheoremViolation):
            cg._congruence_of(c3_simple(), 1)


def test_congruences_are_built_and_checked_once_per_generator_and_read_only():
    alg = product(c3_simple(), b4_prod())
    cg._congruence_of.cache_clear()
    for a, b in itertools.product(alg.elements, repeat=2):
        principal_congruence(alg, a, b)
    info = cg._congruence_of.cache_info()
    assert len(alg.open_set) == 8 and (info.misses, info.hits) == (8, 136)  # one pass per open element
    theta = principal_congruence(alg, 0, 1)
    before = cg._congruence_of.cache_info()
    assert quotient(alg, theta)[0].size == len(theta.blocks)
    after = cg._congruence_of.cache_info()
    assert (after.misses, after.hits) == (8, before.hits + 1)  # quotient reused the pass
    congruence, blocks = cg._congruence_of(alg, cg._box(alg)[alg.iff(0, 1)])
    assert congruence is theta
    with pytest.raises(dataclasses.FrozenInstanceError):
        blocks.meet = ()


@pytest.mark.parametrize("alg, blocks, match", [
    # the top block's meet 3 is open, but 1 ~ 0 while 1 | 2 = 3 and 0 | 2 = 2 are apart
    (b4_prod(), ((0, 1), (2,), (3,)),
     r"\(\(0, 1\), \(2,\), \(3,\)\) is not a congruence: it breaks join at \(1,2\)"),
    # the top block's meet 1 is not open: 1 ~ 2 while box 1 = 0 and box 2 = 2 are apart
    (c3_simple(), ((0,), (1, 2)), "is not a congruence: it breaks box at 2"),
])
def test_quotient_rejects_a_partition_that_is_not_a_congruence(alg, blocks, match):
    with pytest.raises(ValueError, match=match):
        quotient(alg, Congruence(blocks, alg.size))


@pytest.mark.parametrize("construction", [quotient, factor_complement])
def test_a_congruence_the_constructor_misses_is_a_theorem_violation(monkeypatch, construction):
    # {1, 3} is a congruence filter, but the patched constructor gives the identity for 1
    alg = b4_prod()
    theta = to_congruence(alg, {1, 3})
    real = cg._congruence_of
    monkeypatch.setattr(cg, "_congruence_of", lambda a, b: (real(a, alg.top)[0], real(a, b)[1]))
    with pytest.raises(TheoremViolation, match=r"is not the congruence of the up-set of 1"):
        construction(alg, theta)


@pytest.mark.parametrize("construction", [quotient, factor_complement])
@pytest.mark.parametrize("theta, error, match", [
    (Congruence(((0, 1), (2,)), 3), ValueError, "a partition of 3 elements for an algebra of 4"),
    (Congruence(tuple((a,) for a in range(5)), 5), ValueError,
     "a partition of 5 elements for an algebra of 4"),
    # the top block's meet 3 is open, but the partition breaks join
    (Congruence(((0, 1), (2,), (3,)), 4), ValueError,
     r"\(\(0, 1\), \(2,\), \(3,\)\) is not a congruence: it breaks join at \(1,2\)"),
])
def test_partitions_from_outside_are_checked_on_entry(construction, theta, error, match):
    with pytest.raises(error, match=match):
        construction(b4_prod(), theta)


@pytest.mark.parametrize("use", [
    lambda blocks: quotient(b4_prod(), Congruence(blocks, 4)),
    lambda blocks: factor_complement(b4_prod(), Congruence(blocks, 4)),
    lambda blocks: Congruence(blocks, 4).meet(Congruence(tuple((a,) for a in range(4)), 4)),
], ids=["quotient", "factor_complement", "meet"])
@pytest.mark.parametrize("blocks", [
    ((0, 1, 2, 5), (3,)),  # an element outside the universe
    ((0, 1),),  # elements missing
    ((0, 1), (1, 2, 3)),  # an element in two blocks
])
def test_blocks_that_do_not_partition_the_universe_are_rejected(use, blocks):
    with pytest.raises(ValueError, match=r"do not partition 0\.\.3"):
        use(blocks)


@pytest.mark.parametrize("construction, arguments, value", [
    (principal_congruence, (-1, 0), "-1"),  # indexing would read -1 as the top
    (principal_congruence, (True, 0), "True"),  # and True as 1
    (principal_congruence, (0, 99), "99"),
    (generated_congfilter, ([-1],), "-1"),
    (generated_congfilter, ([0, 4],), "4"),
    (generated_hfilter, ([9],), "9"),
    (generated_hfilter, ([-2],), "-2"),
    (principal_generator, ([9],), "9"),
    (principal_generator, ([False, 3],), "False"),
    (principal_congruence, (4, -1), "-1, 4"),
    (is_hfilter, ({3, 99},), "99"),
    (is_congruence_filter, ({-1},), "-1"),
    (discriminator_eval, (-1, 0, 1), "-1"),
    (discriminator_eval, (9, 0, 1), "9"),
    (discriminator_eval, (0, True, 1), "True"),
    (subalgebra_closure, ([-1],), "-1"),
    (subalgebra_closure, ([9],), "9"),
    (subalgebra_closure, ([True],), "True"),
], ids=lambda x: getattr(x, "__name__", None))
def test_element_arguments_outside_the_universe_are_rejected(construction, arguments, value):
    with pytest.raises(ValueError, match=rf"elements \[{value}\] outside 0\.\.3"):
        construction(b4_prod(), *arguments)


def test_compatibility_pass_rejects_a_broken_binary_table():
    # a heyting B4 has no unary tables; the fibres of a & 1 are {0, 2} and {1, 3},
    # which join[2][1] = 2 breaks, as join[0][1] = 1
    alg = heyting(b4_prod())
    join = [list(row) for row in alg.join]
    join[2][1] = 2
    with pytest.raises(TheoremViolation, match="partition not compatible with join"):
        cg._congruence_of(dataclasses.replace(alg, join=join), 1)


@pytest.mark.parametrize("name, patch, match", [
    ("meet", Congruence.join, "meet above the identity"),
    ("join", Congruence.meet, "join below the total"),
    ("permutes_with", lambda self, other: False, "do not permute"),
])
def test_factor_complement_cross_checks_raise(monkeypatch, name, patch, match):
    alg = b4_prod()
    theta = to_congruence(alg, {1, 3})
    monkeypatch.setattr(Congruence, name, patch)
    with pytest.raises(TheoremViolation, match=f"congruences of 1 and its complement {match}"):
        factor_complement(alg, theta)


def test_boolean_projection_rejects_a_quotient_that_is_not_boolean(monkeypatch):
    monkeypatch.setattr(cg, "quotient", lambda alg, theta: (c3_simple(), None))
    with pytest.raises(TheoremViolation, match="Boolean projection of FiniteAlgebra<B4prod> is not Boolean"):
        boolean_projection(b4_prod())


def test_heyting_congruences_without_box():
    chain = heyting(c3_simple())
    middle = to_congruence(chain, frozenset({1, 2}))
    assert middle.blocks == ((0,), (1, 2))
    assert factor_complement(chain, middle) is None  # 1 | !1 = 1 | 0 < 1
    assert decompose_simples(chain) == [chain]
    assert [f.size for f in decompose_simples(heyting(b4_prod()))] == [2, 2]


def oracle_algebras(catalogs):
    """The algebras of test_constructions_match_search_oracles: the catalog algebras
    of the six acceptance classes and heyting up to size 6, and every same-class
    fixture product of at most 12 elements."""
    algebras = [a for cat in catalogs.values() for a in cat.algebras if a.size <= 6]
    algebras += build_catalog(VarietyClass("heyting"), 6).algebras
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(catalog_fixtures(), k):
            if len({a.cls for a in combo}) == 1 and reduce(lambda n, a: n * a.size, combo, 1) <= 12:
                algebras.append(reduce(product, combo))
    return algebras


def test_filter_predicates_match_scan_oracle_on_every_subset(catalogs):
    for alg in oracle_algebras(catalogs):
        for mask in range(1 << alg.size):
            f = frozenset(a for a in alg.elements if mask >> a & 1)
            assert is_hfilter(alg, f) == filter_oracle(alg, f, False), (alg, sorted(f))
            assert is_congruence_filter(alg, f) == filter_oracle(alg, f, True), (alg, sorted(f))


def test_constructions_match_search_oracles(catalogs):
    algebras = [a for cat in catalogs.values() for a in cat.algebras if a.size <= 6]
    algebras += build_catalog(VarietyClass("heyting"), 6).algebras
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


def test_onto_homs_to_two_are_the_open_atoms(nontrivial_algebras):
    # The quotient by the up-set of b has two elements exactly when b is an open
    # atom, so the onto homs to 2 are x -> [b <= x], and the two-element factors
    # of the decomposition are as many as the open atoms.
    for alg in nontrivial_algebras:
        # an atom has exactly two elements below it: 0 and itself
        atoms = [b for b in alg.open_set if sum(alg.le(a, b) for a in alg.elements) == 2]
        want = sorted(tuple(int(alg.le(b, x)) for x in alg.elements) for b in atoms)
        got = homs(alg, two_element(alg.cls), "all_onto").homs
        assert [h.map for h in got] == want, alg
        assert sum(f.size == 2 for f in decompose_simples(alg)) == len(atoms), alg


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


def setdefault_congruence_of(alg, b):
    """(fibres of a -> a & b, tables they induce by name), by one pass per table,
    unary tables first, that keeps the first value seen for each block (each pair
    of blocks in a binary table) and raises TheoremViolation at the first table
    that gives related arguments unrelated values."""
    fibres = {}
    for a in alg.elements:
        fibres.setdefault(alg.meet[a][b], []).append(a)
    theta = Congruence(tuple(map(tuple, fibres.values())), alg.size)
    cls, k = theta.class_of, len(theta.blocks)
    out = {}
    for name, t in alg.unary_tables().items():
        row = {}
        for a in alg.elements:
            if row.setdefault(cls[a], cls[t[a]]) != cls[t[a]]:
                raise TheoremViolation(f"partition not compatible with {name}")
        out[name] = tuple(row[c] for c in range(k))
    for name, t in alg.binary_tables().items():
        rows = [{} for _ in range(k)]
        for a in alg.elements:
            row, ta = rows[cls[a]], t[a]
            for c in alg.elements:
                if row.setdefault(cls[c], cls[ta[c]]) != cls[ta[c]]:
                    raise TheoremViolation(f"partition not compatible with {name}")
        out[name] = tuple(tuple(row[c] for c in range(k)) for row in rows)
    return theta, out


def test_congruence_of_matches_the_setdefault_pass(small_algebras):
    # every element, open or not: the same partition and block tables, or the same
    # TheoremViolation, which names the first table broken, unary tables first
    verdicts = Counter()
    for alg in small_algebras:
        for b in alg.elements:
            try:
                want = setdefault_congruence_of(alg, b)
            except TheoremViolation as e:
                want = str(e)
            try:
                theta, blocks = cg._congruence_of(alg, b)
                got = theta, dict(blocks.tables())
            except TheoremViolation as e:
                got = str(e)
            assert got == want, (alg, b)
            verdicts[got if isinstance(got, str) else None] += 1
    # the fibres of a & b always keep the lattice tables; a non-open b breaks box,
    # which comes first, and with it invol in hri, dualneg in hdp:1, and dualneg
    # and dimpl in dht:2, which binary tables first would name
    assert verdicts == {None: 848, "partition not compatible with box": 623}, verdicts
