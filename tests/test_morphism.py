import itertools

import pytest

from finheyt.algebra import VarietyClass, relabel
from finheyt.congruence import factor_complement, principal_congruence, product
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
    HomsResult,
    RetractWitness,
    generating_set,
    homs,
    induced_subalgebra,
    is_retract,
    isomorphic,
    minimal_subalgebras,
    subalgebra_closure,
    subuniverses,
)


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


def test_minimal_subalgebras_examples():
    for alg in (b4_disc(), c3_simple(), two_ws5(), c3_hri(), c3_hdp(), b4_hri()):
        subs = minimal_subalgebras(alg)
        assert len(subs) == 1
        assert subs[0] == two_element(alg.cls)


def test_homs_examples():
    res = homs(two_ws5(), c3_simple(), "all")
    assert [h.map for h in res.homs] == [(0, 2)]
    assert homs(b4_prod(), two_ws5(), "count").count == 2
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
    assert res.truncated and res.count == 1
    full = homs(b4_prod(), b4_prod(), "all")
    assert not full.truncated and full.count > 1
    # the cap applies to the onto maps, after the onto filter
    dom = product(b4_prod(), two_ws5())
    assert homs(dom, b4_prod(), "count_onto") == HomsResult(None, 6, False)
    assert homs(dom, b4_prod(), "count_onto", cap=1) == HomsResult(None, 1, True)
    with pytest.raises(ValueError):
        homs(dom, b4_prod(), "some_onto")


def test_homs_to_and_from_trivial():
    from finheyt.congruence import quotient, to_congruence

    one, _ = quotient(two_ws5(), to_congruence(two_ws5(), frozenset({0, 1})))
    assert homs(two_ws5(), one, "count").count == 1
    assert homs(one, two_ws5(), "count").count == 0
    assert homs(one, one, "count").count == 1


def test_hom_constructor_verifies_preservation():
    with pytest.raises(ValueError):
        Homomorphism(two_ws5(), c3_simple(), (0, 1))  # misses the top of C3
    with pytest.raises(ValueError):
        Homomorphism(b4_prod(), two_ws5(), (0, 1, 1, 1))  # breaks meet on atoms


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


def test_hom_count_invariant_under_relabeling():
    alg, two = b4_prod(), two_ws5()
    swapped = relabel(alg, (0, 2, 1, 3))
    assert homs(alg, two, "count").count == homs(swapped, two, "count").count


def test_is_retract_examples():
    w = is_retract(b4_prod(), two_ws5())
    assert isinstance(w, RetractWitness) and w.composite_is_identity
    assert is_retract(product(two_ws5(), c3_simple()), two_ws5()) is not None
    assert is_retract(b4_disc(), two_ws5()) is None


def test_is_retract_cross_checks_factor_pair():
    p = product(two_ws5(), c3_simple())
    pair = factor_complement(p, principal_congruence(p, 0, 2))
    assert pair is not None
    w = is_retract(p, two_ws5(), factor_pair=pair)
    assert w is not None
    # the theorem route must also agree on a negative case
    p2 = product(c3_simple(), c3_simple())
    pair2 = factor_complement(p2, principal_congruence(p2, 0, 1))
    w2 = is_retract(p2, c3_simple(), factor_pair=pair2)
    assert w2 is not None  # hom C3 -> C3 exists (identity), so C3 retracts


def test_retract_of_self_is_identity_like():
    w = is_retract(b4_disc(), b4_disc())
    assert w is not None
    assert w.retraction.map == (0, 1, 2, 3)


def test_retract_preconditions():
    with pytest.raises(ValueError):
        is_retract(two_ws5(), b4_prod())  # |B| > |P|
    with pytest.raises(ValueError):
        is_retract(b4_hri(), two_ws5())  # class mismatch


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
