import collections
import functools
import itertools
import math
import random
import re
from dataclasses import replace

import pytest

from finheyt import morphism
from finheyt.algebra import (
    TABLES,
    FiniteAlgebra,
    VarietyClass,
    canonical_form,
    element_profile,
    relabel,
    serial_key,
)
from finheyt.catalog import build_catalog
from finheyt.congruence import (
    decompose_simples,
    factor_complement,
    principal_congruence,
    product,
    to_congruence,
)
from finheyt.decision import decide_projective_finite
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
from finheyt.morphism import (
    Homomorphism,
    RetractWitness,
    _grown,
    _rounds,
    _rows,
    _search,
    generating_set,
    homs,
    induced_subalgebra,
    is_retract,
    isomorphic,
    minimal_subalgebras,
    subalgebra_closure,
)
from retract_oracle import retract_via_factor_pair


def bruteforce_homs(dom, cod):
    """All operation-preserving maps, by filtering every |cod|^|dom| candidate."""
    out = []
    for m in itertools.product(cod.elements, repeat=dom.size):
        if m[0] != 0 or m[dom.top] != cod.top:
            continue
        ok = all(
            m[ta[a][b]] == tb[m[a]][m[b]]
            for name, ta in dom.binary_tables().items()
            for tb in (cod.binary_tables()[name],)
            for a in dom.elements
            for b in dom.elements
        ) and all(
            m[ta[a]] == tb[m[a]]
            for name, ta in dom.unary_tables().items()
            for tb in (cod.unary_tables()[name],)
            for a in dom.elements
        )
        if ok:
            out.append(m)
    return sorted(out)


def test_subalgebra_closure_examples():
    assert subalgebra_closure(b4_prod(), ()) == frozenset({0, 3})
    assert subalgebra_closure(b4_prod(), (1,)) == frozenset({0, 1, 2, 3})
    assert subalgebra_closure(c3_simple(), (1,)) == frozenset({0, 1, 2})


def test_induced_subalgebra_validates_carrier():
    with pytest.raises(ValueError):
        induced_subalgebra(b4_prod(), (0, 1, 3))  # misses !1 = 2
    sub, embed = induced_subalgebra(b4_prod(), (0, 3))
    assert sub == two_ws5()
    assert embed == (0, 3)
    # {3} is closed under every table of B4prod but lacks 0; a carrier must
    # hold both constants and lie inside the universe
    for carrier in ((3,), (), (0, 1, 2, 3, 4), (-1, 0, 3)):
        with pytest.raises(ValueError, match="carrier is not closed under the operations"):
            induced_subalgebra(b4_prod(), carrier)


@pytest.mark.parametrize("cls", ["ws5", "hri", "hdp:1", "dht:2"])
def test_diagonal_of_square_is_the_algebra(cls):
    # The diagonal carries every table of the class through product and restriction.
    for a in build_catalog(VarietyClass.parse(cls), 5).algebras:
        square = product(a, a)
        assert induced_subalgebra(square, [x * a.size + x for x in a.elements])[0] == a


def test_minimal_subalgebras_examples():
    for alg in (b4_disc(), c3_simple(), two_ws5(), c3_hri(), c3_hdp(), b4_hri()):
        subs = minimal_subalgebras(alg)
        assert len(subs) == 1
        assert subs[0] == two_element(alg.cls)
    # box top = m: the constants generate the whole chain, so {0, top} is not closed
    with pytest.raises(ValueError, match="not closed"):
        minimal_subalgebras(replace(c3_simple(), box=(0, 0, 1)))
    with pytest.raises(ValueError, match="trivial"):
        minimal_subalgebras(build_catalog(two_ws5().cls, 1).of_size(1)[0])


def test_minimal_subalgebras_raises_when_the_least_is_not_two_element(monkeypatch):
    monkeypatch.setattr(morphism, "two_element", lambda cls: None)
    with pytest.raises(TheoremViolation,
                       match="minimal subalgebra of FiniteAlgebra<B4prod> is not the two-element algebra"):
        minimal_subalgebras(b4_prod())


def test_homs_examples():
    res = homs(two_ws5(), c3_simple(), "all")
    assert [h.map for h in res.homs] == [(0, 2)]
    assert len(homs(b4_prod(), two_ws5(), "all").homs) == 2
    assert homs(b4_disc(), two_ws5(), "any_onto") is None
    assert homs(b4_disc(), two_ws5(), "any") is None  # even non-onto: box blocks atoms


def test_homs_match_bruteforce():
    cases = [
        (two_ws5(), two_ws5()),
        (two_ws5(), c3_simple()),
        (c3_simple(), two_ws5()),
        (b4_prod(), two_ws5()),
        (b4_prod(), c3_simple()),
        (b4_disc(), b4_disc()),
        (b4_prod(), b4_prod()),
        (c3_hri(), c3_hri()),
        (c3_hdp(), c3_hdp()),
        (b4_disc(), two_ws5()),
    ]
    for dom, cod in cases:
        res = homs(dom, cod, "all")
        assert [h.map for h in res.homs] == bruteforce_homs(dom, cod)


def test_homs_cap_sets_truncation_flag():
    res = homs(b4_prod(), b4_prod(), "all", cap=1)
    assert res.truncated and len(res.homs) == 1
    full = homs(b4_prod(), b4_prod(), "all")
    assert not full.truncated and len(full.homs) > 1
    # the cap applies to the onto maps, after the onto filter
    dom = product(b4_prod(), two_ws5())
    res = homs(dom, b4_prod(), "all_onto")
    assert (len(res.homs), res.truncated) == (6, False)
    res = homs(dom, b4_prod(), "all_onto", cap=1)
    assert (len(res.homs), res.truncated) == (1, True)
    with pytest.raises(ValueError):
        homs(dom, b4_prod(), "some_onto")


def test_homs_to_and_from_trivial():
    from finheyt.congruence import quotient, to_congruence

    one, _ = quotient(two_ws5(), to_congruence(two_ws5(), frozenset({0, 1})))
    assert len(homs(two_ws5(), one, "all").homs) == 1
    assert len(homs(one, two_ws5(), "all").homs) == 0
    assert len(homs(one, one, "all").homs) == 1


def test_hom_constructor_verifies_preservation():
    with pytest.raises(ValueError):
        Homomorphism(two_ws5(), c3_simple(), (0, 1))  # misses the top of C3
    with pytest.raises(ValueError):
        Homomorphism(b4_prod(), two_ws5(), (0, 1, 1, 1))  # breaks meet on atoms


def _identity(alg):
    return Homomorphism(alg, alg, tuple(alg.elements))


@pytest.mark.parametrize("build, message", [
    (lambda: Homomorphism(b4_prod(), two_ws5(), (0, 1, 1)), "map has wrong shape"),
    (lambda: Homomorphism(b4_prod(), two_ws5(), (0, 1, 2, 1)), "map has wrong shape"),
    # the same lattice, so only box can break
    (lambda: Homomorphism(b4_prod(), b4_disc(), (0, 1, 2, 3)), "map breaks box at 1"),
    (lambda: Homomorphism(b4_prod(), two_ws5(), (0, 0, 1, 1)).inverse(), "only bijections"),
    (lambda: RetractWitness(_identity(b4_prod()), Homomorphism(two_ws5(), b4_prod(), (0, 3))),
     "do not line up"),
    (lambda: RetractWitness(Homomorphism(two_ws5(), b4_prod(), (0, 3)),
                            Homomorphism(b4_prod(), two_ws5(), (0, 0, 1, 1))),
     "must be onto"),
    (lambda: RetractWitness(Homomorphism(b4_prod(), b4_prod(), (0, 2, 1, 3)),
                            _identity(b4_prod())),
     "is not the identity"),
], ids=["short-map", "value-out-of-range", "breaks-box", "inverse-not-bijective",
        "witness-misaligned", "retraction-not-onto", "composite-not-identity"])
def test_hom_and_retract_witness_checks_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("flag", ["onto", "injective"])
def test_hom_constructor_rejects_derived_flags(flag):
    # onto and injective are read off the map, never passed in
    with pytest.raises(TypeError):
        Homomorphism(b4_prod(), two_ws5(), (0, 1, 0, 1), **{flag: True})


def test_isomorphic_examples():
    assert isomorphic(b4_prod(), product(two_ws5(), two_ws5())) is not None
    assert isomorphic(b4_prod(), b4_disc()) is None  # open counts 4 vs 2
    ident = isomorphic(b4_prod(), b4_prod())
    assert ident is not None and ident.map == (0, 1, 2, 3)


def test_isomorphic_detects_relabelings():
    alg = b4_disc()
    swapped = relabel(alg, (0, 2, 1, 3))
    h = isomorphic(alg, swapped)
    assert h is not None and h.onto and h.injective


def engine_algebras():
    """Catalog algebras of ws5, hri and dht:2 up to size 6."""
    classes = (VarietyClass("ws5"), VarietyClass("hri"), VarietyClass("dht", 2))
    return [a for cls in classes for a in build_catalog(cls, 6).algebras]


def bijective_homs(a, b):
    """The oracle: every bijective map among all homomorphisms a -> b."""
    return {h.map for h in homs(a, b, "all").homs if h.onto and h.injective}


def test_isomorphic_matches_bijective_hom_oracle():
    algebras = engine_algebras()
    for a in algebras:
        for b in algebras:
            if a.size != b.size:
                continue
            h = isomorphic(a, b)
            if a.cls != b.cls:
                assert h is None, (a.name, b.name)
                continue
            oracle = bijective_homs(a, b)
            assert (h is not None) == bool(oracle), (a.name, b.name)
            assert h is None or h.map in oracle, (a.name, b.name)


def test_isomorphic_finds_seeded_relabelings():
    rng = random.Random(2017)
    for a in engine_algebras():
        middle = list(range(1, a.top))
        rng.shuffle(middle)
        perm = [0, *middle, a.top] if a.nontrivial else [0]
        b = relabel(a, perm)
        h = isomorphic(a, b)
        assert isinstance(h, Homomorphism) and h.onto and h.injective, a.name
        assert h.map in bijective_homs(a, b), a.name


def test_hom_count_invariant_under_relabeling():
    alg, two = b4_prod(), two_ws5()
    swapped = relabel(alg, (0, 2, 1, 3))
    assert len(homs(alg, two, "all").homs) == len(homs(swapped, two, "all").homs)


def test_is_retract_examples():
    w = is_retract(b4_prod(), two_ws5())
    assert isinstance(w, RetractWitness)
    assert all(w.retraction.map[w.injection.map[b]] == b for b in w.injection.dom.elements)
    assert is_retract(product(two_ws5(), c3_simple()), two_ws5()) is not None
    assert is_retract(b4_disc(), two_ws5()) is None


def agrees_with_product_construction(p, b, pair):
    """is_retract(p, b), checked against the product construction on pair."""
    applicable, via = retract_via_factor_pair(p, b, pair)
    w = is_retract(p, b)
    assert applicable and (via is None) == (w is None), (p, b)
    return via, w


def test_is_retract_cross_checks_factor_pair():
    p = product(two_ws5(), c3_simple())
    pair = factor_complement(p, principal_congruence(p, 0, 2))
    assert pair is not None
    _, w = agrees_with_product_construction(p, two_ws5(), pair)
    assert w is not None
    # both quotients of C3 x C3 are C3 and the identity is a hom between them
    p2 = product(c3_simple(), c3_simple())
    pair2 = factor_complement(p2, principal_congruence(p2, 0, 1))
    _, w2 = agrees_with_product_construction(p2, c3_simple(), pair2)
    assert w2 is not None


def test_retract_via_factor_pair_reads_the_second_quotient():
    # split 2 x C3 at the up-set of 2: quotient_a is C3 and the target 2 is quotient_b
    p = product(two_ws5(), c3_simple())
    pair = factor_complement(p, to_congruence(p, frozenset(p.upset[2])))
    assert (pair.quotient_a, pair.quotient_b) == (canonical_form(c3_simple()), two_ws5())
    for witness in agrees_with_product_construction(p, two_ws5(), pair):
        assert (witness.retraction.map, witness.injection.map) == ((0, 0, 0, 1, 1, 1), (0, 5))


def test_retract_via_factor_pair_agrees_on_a_negative_case():
    # C3 x B4disc by its top-row kernel: C3 is quotient_a, but no hom C3 -> B4disc exists
    p = product(c3_simple(), b4_disc())
    pair = factor_complement(p, to_congruence(p, frozenset(p.upset[8])))
    assert pair.quotient_a == canonical_form(c3_simple())
    assert agrees_with_product_construction(p, c3_simple(), pair) == (None, None)


def test_retract_of_self_is_identity_like():
    w = is_retract(b4_disc(), b4_disc())
    assert w is not None
    assert w.retraction.map == (0, 1, 2, 3)


def test_is_retract_between_equal_sizes_is_isomorphism(monkeypatch):
    # an onto map between algebras of one size is a bijection, so is_retract
    # answers from isomorphic alone; the hom search must not run
    def no_search(*args):
        raise AssertionError("is_retract searched homs between algebras of one size")

    monkeypatch.setattr(morphism, "_search", no_search)
    cube = functools.reduce(product, [b4_prod()] * 3)
    assert is_retract(cube, product(b4_disc(), product(b4_prod(), b4_prod()))) is None
    swap = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)
    w = is_retract(product(b4_disc(), b4_prod()), product(b4_prod(), b4_disc()))
    assert (w.retraction.map, w.injection.map) == (swap, swap)


def test_retract_preconditions():
    with pytest.raises(ValueError):
        is_retract(two_ws5(), b4_prod())  # |B| > |P|
    with pytest.raises(ValueError):
        is_retract(b4_hri(), two_ws5())  # class mismatch


def test_algebras_with_different_tables_name_both_table_lists():
    """One pairing checks class and tables for Homomorphism, homs and is_retract."""
    bare, full = replace(c3_hri(), box=None), c3_hri()
    for dom, cod in ((bare, full), (full, bare)):
        lists = re.escape(f"{list(dom.tables())} vs {list(cod.tables())}")
        with pytest.raises(ValueError, match=lists):
            Homomorphism(dom, cod, (0, 1, 2))
        with pytest.raises(ValueError, match=lists):
            homs(dom, cod)
        with pytest.raises(ValueError, match=lists):
            is_retract(dom, cod)


def test_prod_retract_agrees_with_hom_existence_on_fixtures():
    smalls = [two_ws5(), c3_simple(), b4_disc(), b4_prod()]
    for b in smalls:
        for c in smalls:
            if b.size * c.size > 12:
                continue
            p = product(b, c)
            direct = is_retract(p, b) is not None
            via_hom = homs(b, c, "any") is not None
            assert direct == via_hom, (b.name, c.name)


def search_pairs():
    """Same-class (dom, cod) pairs of the fixtures and the engine algebras, and
    the fixture products of at most 16 elements, one per isomorphism type, as
    domains whose graphs grow over several rounds."""
    algebras = [*catalog_fixtures(), *engine_algebras()]
    products = dict.fromkeys(map(canonical_form, fixture_products(16)))
    return [(a, b) for a in [*algebras, *products] for b in algebras if a.cls == b.cls]


def test_search_images_keep_exactly_the_respecting_maps_in_order():
    rng = random.Random(2017)
    for dom, cod in search_pairs():
        maps = list(_search(dom, cod))
        for trial in range(3):
            # the first trial keeps one map's values, so some map survives
            keep = rng.choice(maps) if maps and trial == 0 else None
            images = [
                sorted({*rng.sample(cod.elements, rng.randint(0, cod.size)),
                        *([keep[x]] if keep else [])})
                for x in dom.elements
            ]
            want = [m for m in maps if all(m[x] in images[x] for x in dom.elements)]
            assert list(_search(dom, cod, images)) == want, (dom.name, cod.name, images)
            assert keep is None or keep in want


def test_search_images_without_the_constants_yield_nothing():
    for dom, cod in search_pairs():
        for x, value in ((0, 0), (dom.top, cod.top)):
            images = [list(cod.elements) for _ in dom.elements]
            images[x] = [v for v in cod.elements if v != value]
            assert list(_search(dom, cod, images)) == [], (dom.name, cod.name, x)


def retract_against_section_oracle(p, b):
    """is_retract(p, b), checked against the sections among homs(b, p, "all")."""
    back = homs(b, p, "all").homs

    def sections(r):
        return [psi.map for psi in back if all(r.map[psi.map[v]] == v for v in b.elements)]

    w = is_retract(p, b)
    assert (w is not None) == any(sections(r) for r in homs(p, b, "all_onto").homs)
    assert w is None or w.injection.map == sections(w.retraction)[0]
    return w


def test_retract_witness_matches_the_section_oracle(catalogs):
    # criterion 04's pairs: nontrivial members up to size 6, |b||c| <= 12
    products = retracts = 0
    for cat in catalogs.values():
        smalls = [a for a in cat.algebras if a.nontrivial and a.size <= 6]
        for b in smalls:
            for c in smalls:
                if b.size * c.size > 12:
                    continue
                # b x c and c x b, once where their tables coincide (as for 2 and 2 x 2)
                for p in dict.fromkeys((product(b, c), product(c, b))):
                    products += 1
                    retracts += retract_against_section_oracle(p, b) is not None
    assert (products, retracts) == (312, 176)


def test_retract_injection_is_the_least_section_not_the_first_found(catalogs):
    # On this 18-element product the search meets another section first.
    named = {a.name: a for a in catalogs[VarietyClass("ws5")].algebras}
    b, c = named["ws5_n6_01"], named["ws5_n3_00"]
    for p in (product(b, c), product(c, b)):
        w = retract_against_section_oracle(p, b)
        fibres = [[x for x in p.elements if w.retraction.map[x] == v] for v in b.elements]
        assert next(_search(b, p, fibres)) != w.injection.map


def subuniverses(alg: FiniteAlgebra):
    """All subuniverses, ascending by size then carrier (desk-scale: 2^(n-2) candidates)."""
    base = sorted(subalgebra_closure(alg, ()))
    rest = [a for a in alg.elements if a not in base]
    found = set()
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            cand = frozenset(base) | frozenset(extra)
            if cand in found:
                continue
            closed = all(
                t[a][b] in cand for t in alg.binary_tables().values() for a in cand for b in cand
            ) and all(t[a] in cand for t in alg.unary_tables().values() for a in cand)
            if closed:
                found.add(cand)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_restriction_of_onto_hom_to_subuniverses(nontrivial_algebras):
    # an onto hom to the minimal algebra restricts onto it on every subuniverse
    for alg in nontrivial_algebras:
        if homs(alg, two_element(alg.cls), "any_onto") is None:
            continue
        for carrier in subuniverses(alg):
            sub, _ = induced_subalgebra(alg, carrier)
            assert homs(sub, two_element(alg.cls), "any_onto") is not None


def test_every_catalog_algebra_has_two_element_minimal_subalgebra(nontrivial_algebras):
    for alg in nontrivial_algebras:
        subs = minimal_subalgebras(alg)
        assert len(subs) == 1 and subs[0] == two_element(alg.cls)


def test_generating_set_generates():
    for alg in catalog_fixtures():
        gens = generating_set(alg)
        assert subalgebra_closure(alg, gens) == frozenset(alg.elements)


def round_closure(alg, seed):
    """The naive Sg(X) = union of E^n(X) (Burris and Sankappanavar, A Course in
    Universal Algebra, II.3): every round takes every product of the set again."""
    closed = {0, alg.top}
    closed.update(seed)
    unary = list(alg.unary_tables().values())
    binary = list(alg.binary_tables().values())
    while True:
        produced = set()
        for t in unary:
            produced.update(t[a] for a in closed)
        for t in binary:
            produced.update(t[a][b] for a in closed for b in closed)
        if produced <= closed:
            return frozenset(closed)
        closed |= produced


def greedy_from_scratch(alg):
    """The greedy generators, each candidate's closure taken from scratch by the
    round-based oracle: the largest closure wins, the first element on ties."""
    closed = round_closure(alg, ())
    gens = []
    while len(closed) < alg.size:
        best, best_closure = None, None
        for x in alg.elements:
            if x in closed:
                continue
            cand = round_closure(alg, closed | {x})
            if best_closure is None or len(cand) > len(best_closure):
                best, best_closure = x, cand
        gens.append(best)
        closed = best_closure
    return tuple(gens)


def fixture_products(max_size=36):
    """Every same-class product of two or three catalog fixtures, up to max_size elements."""
    return [
        functools.reduce(product, parts)
        for k in (2, 3)
        for parts in itertools.product(catalog_fixtures(), repeat=k)
        if len({f.cls for f in parts}) == 1 and math.prod(f.size for f in parts) <= max_size
    ]


def grown_from(alg, closed, x):
    """The set _grown reaches from the subuniverse closed and the element x; its mask
    holds exactly the members it lists."""
    members = [*closed, x]
    mask = _grown(_rows(alg), members, len(closed))
    assert mask == sum(1 << y for y in members), (alg.name, x)
    return frozenset(members)


def test_grown_closure_matches_the_round_based_oracle(catalog_algebras):
    for alg in [*catalog_algebras, *fixture_products()]:
        gens = generating_set(alg)
        assert gens == greedy_from_scratch(alg), alg.name
        assert subalgebra_closure(alg, ()) == round_closure(alg, ())
        for x in alg.elements:
            assert subalgebra_closure(alg, (x,)) == round_closure(alg, (x,)), (alg.name, x)
        # The rounds: members lists the universe, round i is the closure of the first
        # i generators, and every member after ends[0] that starts no round is a table
        # value on an earlier member x and a member at or before x, or a unary value of
        # x, so _search's grow has assigned it before it reaches it.
        members, ends = _rounds(alg)
        assert sorted(members) == list(alg.elements) and len(ends) == len(gens) + 1
        for i, end in enumerate(ends):
            assert set(members[:end]) == round_closure(alg, gens[:i]), (alg.name, i)
        produced = set()
        for p, x in enumerate(members):
            assert p < ends[0] or p in ends or x in produced, (alg.name, p)
            produced.update(t[x] for t in alg.unary_tables().values())
            produced.update(v for t in alg.binary_tables().values()
                            for y in members[:p + 1] for v in (t[x][y], t[y][x]))
    for alg in [*(a for a in catalog_algebras if a.size <= 6), *fixture_products(16)]:
        for seed in itertools.combinations(alg.elements, 2):
            assert subalgebra_closure(alg, seed) == round_closure(alg, seed), (alg.name, seed)
    assert subalgebra_closure(functools.reduce(product, [b4_prod()] * 4), ()) == {0, 255}
    # Every candidate of every greedy round, grown from that round's closed set, on
    # two products whose greedy takes two and four rounds; a candidate inside an
    # earlier candidate's closure has no larger closure, which is why the greedy
    # skips it.
    c3, two = c3_simple(), two_ws5()
    for alg in (product(product(c3, c3), c3), product(product(two, b4_prod()), b4_prod())):
        closed = round_closure(alg, ())
        for g in generating_set(alg):
            grown = {x: grown_from(alg, closed, x) for x in alg.elements if x not in closed}
            for x, closure in grown.items():
                assert closure == round_closure(alg, closed | {x}), (alg.name, x)
                assert all(closure <= grown[y] for y in grown if y < x and x in grown[y])
            closed = grown[g]
        assert len(closed) == alg.size


@pytest.mark.parametrize("parts, gens, ends", [
    # each atom of B4prod^4 = 2^8 doubles the Boolean subalgebra
    ([b4_prod()] * 4, (1, 2, 4, 8, 16, 32, 64), [2, 4, 8, 16, 32, 64, 128, 256]),
    ([b4_disc()] * 3 + [c3_simple()], (22, 51), [2, 48, 192]),
    ([c3_simple()] * 2 + [b4_disc()] * 2, (23, 49), [2, 48, 144]),
], ids=["B4prod^4", "B4disc^3xC3simple", "C3simple^2xB4disc^2"])
def test_generating_set_of_large_products(parts, gens, ends):
    # 256, 192 and 144 elements: too large for greedy_from_scratch
    alg = functools.reduce(product, parts)
    assert generating_set(alg) == gens
    assert _rounds(alg)[1] == ends


def test_search_yields_maps_in_ascending_generator_key_order(catalogs):
    # Two maps agree up to the first generator where they differ, so they reach
    # it in the same state, and that generator branches in ascending order.
    pairs = 0
    for cat in catalogs.values():
        small = [a for a in cat.algebras if a.size <= 6]
        for dom, cod in itertools.product(small, repeat=2):
            pairs += 1
            gens = generating_set(dom)
            keys = [tuple(m[g] for g in gens) for m in _search(dom, cod)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (dom.name, cod.name)
    assert pairs == 1001


def test_hom_counts_follow_the_product_laws():
    # A hom into A x B is the pair of its components.  A hom from A x B into a
    # simple T has a maximal kernel, and in a congruence-distributive variety every
    # congruence of A x B is a product of congruences (Fraser and Horn, Proc. AMS
    # 26, 1970), so the hom factors through exactly one of the two projections.
    # So A x B maps onto 2 exactly when A or B does, and its simple factors are
    # those of A together with those of B.
    @functools.cache
    def count(dom, cod):
        return sum(1 for _ in _search(dom, cod))

    @functools.cache
    def projective(alg):
        return decide_projective_finite(alg).projective

    def factors(*algs):
        return sorted(serial_key(canonical_form(f)) for a in algs for f in decompose_simples(a))

    into = from_ = 0
    for cls in ("ws5", "hri", "hdp:1", "dht:2"):
        algebras = [a for a in build_catalog(VarietyClass.parse(cls), 5).algebras if a.nontrivial]
        simples = [t for t in algebras if element_profile(t).simple]
        for a, b in itertools.combinations_with_replacement(algebras, 2):
            ab = product(a, b)
            assert projective(ab) == (projective(a) or projective(b)), (a.name, b.name)
            assert factors(ab) == factors(a, b), (a.name, b.name)
            for c in algebras:
                into += 1
                assert count(c, ab) == count(c, a) * count(c, b), (c.name, a.name, b.name)
            for t in simples:
                from_ += 1
                assert count(ab, t) == count(a, t) + count(b, t), (a.name, b.name, t.name)
    assert (into, from_) == (755, 648)


def cell_loop_preservation(dom, cod, m):
    """The message Homomorphism(dom, cod, m) raises for a map of the right shape, or
    None: the constants, then every cell of every binary table, then of every unary
    table, one at a time in order."""
    if m[0] != 0 or m[dom.top] != cod.top:
        return "map does not preserve the constants"
    for name, ta in dom.binary_tables().items():
        tb = cod.tables()[name]
        for a in dom.elements:
            for b in dom.elements:
                if m[ta[a][b]] != tb[m[a]][m[b]]:
                    return f"map breaks {name} at ({a},{b})"
    for name, ta in dom.unary_tables().items():
        tb = cod.tables()[name]
        for a in dom.elements:
            if m[ta[a]] != tb[m[a]]:
                return f"map breaks {name} at {a}"
    return None


def test_row_check_matches_the_cell_loop(small_algebras):
    # per same-class pair: a random map with the constants fixed, the first hom if
    # there is one, and that hom with one random element moved
    rng = random.Random(2017)
    verdicts = collections.Counter()
    for dom, cod in itertools.product(small_algebras, repeat=2):
        if dom.cls != cod.cls:
            continue
        m = [rng.randrange(cod.size) for _ in dom.elements]
        m[0], m[dom.top] = 0, cod.top
        maps = [m]
        h = homs(dom, cod)
        if h is not None:
            moved = list(h.map)
            moved[rng.randrange(dom.size)] = rng.randrange(cod.size)
            maps += [h.map, moved]
        for m in maps:
            try:
                Homomorphism(dom, cod, m)
                got = None
            except ValueError as e:
                got = str(e)
            assert got == cell_loop_preservation(dom, cod, m), (dom, cod, m)
            verdicts[got and got.split(" at")[0]] += 1
    breaks = {f"map breaks {name}" for name in TABLES}
    assert set(verdicts) == {None, "map does not preserve the constants", *breaks}, verdicts
    assert sum(verdicts.values()) == 20_033
