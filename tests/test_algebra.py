import itertools
import random
from collections import Counter
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finheyt.terms import Var, discriminator_term
from term_oracle import eval_term

from finheyt import algebra
from finheyt.algebra import (
    LEVELED,
    FiniteAlgebra,
    ValidationReport,
    VarietyClass,
    canonical_form,
    canonical_relabeling,
    check_structure,
    derive_operations,
    derived_box_hdp,
    derived_dualneg_dht,
    discriminator_eval,
    element_profile,
    inferred_level,
    least_meet_relabeling,
    relabel,
    serial_key,
    validate,
)
from finheyt.catalog import build_catalog
from finheyt.congruence import decompose_simples, product
from finheyt.errors import InvalidAlgebraError, MalformedAlgebraError, TermEvalError
from finheyt.fixtures import (
    b4_disc,
    b4_hri,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_identity_box,
    c3_simple,
    catalog_fixtures,
    two_element,
    two_ws5,
)


# -- canonical-form oracle -----------------------------------------------------

def linear_extensions(alg: FiniteAlgebra):
    """Yield all orderings e0..e(n-1) of elements compatible with the lattice order."""
    n = alg.size
    below = [frozenset(b for b in range(n) if b != a and alg.le(b, a)) for a in range(n)]
    placed: set = set()
    order: list = []

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for a in range(n):
            if a not in placed and below[a] <= placed:
                placed.add(a)
                order.append(a)
                yield from rec()
                order.pop()
                placed.remove(a)

    yield from rec()


def extension_perm(ext):
    perm = [0] * len(ext)
    for new, old in enumerate(ext):
        perm[old] = new
    return tuple(perm)


def brute_canonical_relabeling(alg: FiniteAlgebra):
    """The definition: relabel by every linear extension, keep the first least key."""
    best_key, best_perm, best_alg = None, None, None
    for ext in linear_extensions(alg):
        perm = extension_perm(ext)
        cand = relabel(alg, perm)
        key = serial_key(cand)
        if best_key is None or key < best_key:
            best_key, best_perm, best_alg = key, perm, cand
    return best_perm, best_alg


# -- validation oracle -----------------------------------------------------------

def validate_oracle(alg: FiniteAlgebra) -> ValidationReport:
    """validate as a plain triple loop over every (a, b, c)."""
    check_structure(alg)
    n, top = alg.size, alg.top
    meet, join, impl = alg.meet, alg.join, alg.impl
    bad = []

    def le(a, b):
        return meet[a][b] == a

    for a in range(n):
        if meet[a][a] != a:
            bad.append(("meet-idempotent", (a,)))
        if join[a][a] != a:
            bad.append(("join-idempotent", (a,)))
        if meet[0][a] != 0:
            bad.append(("bottom-least", (a,)))
        if join[a][top] != top:
            bad.append(("top-greatest", (a,)))
        for b in range(n):
            if meet[a][b] != meet[b][a]:
                bad.append(("meet-commutative", (a, b)))
            if join[a][b] != join[b][a]:
                bad.append(("join-commutative", (a, b)))
            if meet[a][join[a][b]] != a:
                bad.append(("absorption-meet-join", (a, b)))
            if join[a][meet[a][b]] != a:
                bad.append(("absorption-join-meet", (a, b)))
            for c in range(n):
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    bad.append(("meet-associative", (a, b, c)))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    bad.append(("join-associative", (a, b, c)))
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    bad.append(("distributive", (a, b, c)))
                if le(meet[a][b], c) != le(a, impl[b][c]):
                    bad.append(("residuation", (a, b, c)))

    kind, level = alg.cls.kind, alg.cls.level

    if alg.invol is not None:
        inv, neg = alg.invol, alg.neg
        for a in range(n):
            if inv[inv[a]] != a:
                bad.append(("invol-involutive", (a,)))
            if inv[neg[a]] != neg[neg[a]]:
                bad.append(("invol-regular", (a,)))
            for b in range(n):
                if inv[join[a][b]] != meet[inv[a]][inv[b]]:
                    bad.append(("invol-de-morgan", (a, b)))
        if alg.box is not None:
            for a in range(n):
                if alg.box[a] != neg[inv[a]]:
                    bad.append(("box-consistent", (a,)))

    dualneg = alg.dualneg
    if kind == "dht":
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if le(c, join[a][b]) != le(alg.dimpl[c][a], b):
                        bad.append(("dual-residuation", (a, b, c)))
        derived_dn = derived_dualneg_dht(alg)
        if dualneg is not None:
            for a in range(n):
                if dualneg[a] != derived_dn[a]:
                    bad.append(("dualneg-consistent", (a,)))
        dualneg = derived_dn

    if dualneg is not None:
        for a in range(n):
            for b in range(n):
                if (join[a][b] == top) != le(dualneg[a], b):
                    bad.append(("dual-pseudocomplement", (a, b)))
        if kind in LEVELED:
            lo = list(range(n))
            for _ in range(level):
                lo = [alg.neg[dualneg[c]] for c in lo]
            hi = [alg.neg[dualneg[c]] for c in lo]
            for a in range(n):
                if lo[a] != hi[a]:
                    bad.append(("boxdot-level", (a,)))
            if alg.box is not None:
                want = derived_box_hdp(alg, dualneg, level)
                for a in range(n):
                    if alg.box[a] != want[a]:
                        bad.append(("box-consistent", (a,)))

    if alg.box is not None:
        box = alg.box
        if box[top] != top:
            bad.append(("box-top", (top,)))
        opens = [a for a in range(n) if box[a] == a]
        for a in range(n):
            if not le(box[a], a):
                bad.append(("box-decreasing", (a,)))
            if box[box[a]] != box[a]:
                bad.append(("box-idempotent", (a,)))
            for b in range(n):
                if box[meet[a][b]] != meet[box[a]][box[b]]:
                    bad.append(("box-meet", (a, b)))
                if box[join[a][box[b]]] != join[box[a]][box[b]]:
                    bad.append(("box-join-open", (a, b)))
        for a in opens:
            if not any(meet[a][g] == 0 and join[a][g] == top for g in opens):
                bad.append(("open-elements-boolean", (a,)))

    return ValidationReport(tuple(bad))


def with_cell_changed(alg: FiniteAlgebra, name: str, rng: random.Random) -> FiniteAlgebra:
    """A copy of alg with one cell of its table name changed to another label."""
    table = getattr(alg, name)
    binary = isinstance(table[0], tuple)
    rows = [list(r) for r in table] if binary else [list(table)]
    row = rng.choice(rows)
    i = rng.randrange(alg.size)
    row[i] = rng.choice([v for v in alg.elements if v != row[i]])
    return replace(alg, **{name: rows if binary else rows[0]})


def single_cell_mutants(alg: FiniteAlgebra, rng: random.Random, per_table: int):
    """Copies of alg with one cell of one table changed to another label."""
    if alg.size < 2:
        return
    for name in {**alg.binary_tables(), **alg.unary_tables()}:
        for _ in range(per_table):
            yield with_cell_changed(alg, name, rng)


def two_cell_mutant(alg: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """A copy of alg with one cell changed in each of two different tables, such as
    meet and box: their violations interleave within and across the report's sections."""
    first, second = rng.sample([*alg.binary_tables(), *alg.unary_tables()], 2)
    return with_cell_changed(with_cell_changed(alg, first, rng), second, rng)


def test_validate_matches_triple_loop_oracle(catalog_algebras):
    rng = random.Random(20170601)
    heyting = build_catalog(VarietyClass("heyting"), 8).algebras
    inputs = [*catalog_algebras, *heyting, *catalog_fixtures(), c3_identity_box()]
    products = small_fixture_products(36)
    assert max(p.size for p in products) == 36
    # decided in four chunks of 16 rows, of which a mutant fails one
    dht4 = next(a for a in build_catalog(VarietyClass("dht", 2), 4).algebras if a.size == 4)
    products.append(reduce(product, [dht4] * 3))
    mutants = [m for alg in (*inputs, *products) for m in single_cell_mutants(alg, rng, 1)]
    pair_rng = random.Random(20170602)
    mutants += [two_cell_mutant(alg, pair_rng) for alg in inputs if alg.size > 1]
    seen = set()
    for alg in (*inputs, *products, *mutants):
        report = validate(alg)
        assert report == validate_oracle(alg), alg
        seen.update(axiom for axiom, _ in report.violations)
    assert {"meet-associative", "join-associative", "distributive", "residuation",
            "dual-residuation"} <= seen


def test_hash_follows_equality_and_is_stored(monkeypatch):
    a = b4_prod()
    b = FiniteAlgebra(a.size, a.cls, a.meet, a.join, a.impl, box=a.box)  # built separately
    renamed = a.rename("other")
    assert b is not a and b == a == renamed
    assert hash(a) == hash(b) == hash(renamed) != hash(b4_disc())
    # a second hash reads the stored value instead of the tables
    monkeypatch.setattr(algebra, "serial_key", None)
    assert hash(a) == hash(b) == hash(renamed)
    with pytest.raises(TypeError):
        hash(replace(a))


def test_variety_class_parsing():
    assert VarietyClass.parse("ws5") == VarietyClass("ws5")
    assert VarietyClass.parse("hdp:2") == VarietyClass("hdp", 2)
    assert str(VarietyClass("dht", 1)) == "dht:1"
    with pytest.raises(ValueError):
        VarietyClass("hdp")
    with pytest.raises(ValueError):
        VarietyClass("ws5", 1)
    with pytest.raises(ValueError):
        VarietyClass("modal")


@pytest.mark.parametrize("alg", catalog_fixtures(), ids=lambda a: a.name)
def test_fixtures_validate(alg):
    assert validate(alg).valid


def test_validate_rejects_identity_box_on_chain():
    report = validate(c3_identity_box())
    assert not report.valid
    assert ("open-elements-boolean", (1,)) in report.violations


def test_validate_structural_error_distinct_from_axioms():
    broken = FiniteAlgebra(2, VarietyClass("ws5"), ((0, 0), (0, 5)), ((0, 1), (1, 1)),
                           ((1, 1), (0, 1)), box=(0, 1))
    with pytest.raises(MalformedAlgebraError):
        validate(broken)
    with pytest.raises(MalformedAlgebraError):
        validate(FiniteAlgebra(2, VarietyClass("ws5"), ((0, 0), (0, 1)), ((0, 1), (1, 1)),
                               ((1, 1), (0, 1))))  # ws5 without box


def test_check_structure_rejects_bool_cells():
    # True == 1 and bool subclasses int, but a bool is no table cell; io rejects it too
    with pytest.raises(MalformedAlgebraError, match=r"box\[1\] = True"):
        check_structure(replace(b4_prod(), box=(0, True, 2, 3)))
    meet = [list(row) for row in b4_prod().meet]
    meet[1][0] = False
    with pytest.raises(MalformedAlgebraError, match=r"meet\[1\]\[0\] = False"):
        validate(replace(b4_prod(), meet=meet))


def test_validate_collects_every_violation():
    # meet table broken in two spots: expect more than one violation reported
    meet = ((0, 1), (0, 1))
    report = validate(FiniteAlgebra(2, VarietyClass("ws5"), meet, ((0, 1), (1, 1)),
                                    ((1, 1), (0, 1)), box=(0, 1)))
    assert len(report.violations) > 1


def test_validate_reports_a_broken_256_element_product_in_loop_order():
    """B4prod^4 is decided a chunk of rows at a time; with one meet cell broken, the
    chunks that fail run the loops, which report in the order of the triple loop."""
    alg = reduce(product, [b4_prod()] * 4)
    assert validate(alg).valid
    meet = [list(row) for row in alg.meet]
    assert meet[5][3] == 1
    meet[5][3] = 0
    bad = validate(replace(alg, meet=meet)).violations
    assert len(bad) == 1780
    assert Counter(axiom for axiom, _ in bad) == {
        "meet-associative": 1394, "distributive": 256, "residuation": 128, "meet-commutative": 2}
    assert bad[:3] == (("meet-associative", (1, 5, 3)), ("meet-commutative", (3, 5)),
                       ("meet-associative", (3, 5, 3)))


def test_residuation_exhaustive_on_fixtures():
    for alg in catalog_fixtures():
        for a, b, c in itertools.product(alg.elements, repeat=3):
            assert alg.le(alg.meet[a][b], c) == alg.le(a, alg.impl[b][c])


def test_open_elements_closed_under_lattice_ops(catalog_algebras):
    for alg in (*catalog_fixtures(), *catalog_algebras):
        opens = alg.open_set
        for a in opens:
            for b in opens:
                assert alg.meet[a][b] in opens
                assert alg.join[a][b] in opens
            assert any(alg.meet[a][g] == 0 and alg.join[a][g] == alg.top for g in opens)


def test_element_profile_on_plain_heyting_algebra():
    from finheyt.catalog import enum_distributive_lattices

    chain3 = enum_distributive_lattices(3)[0]
    prof = element_profile(chain3)
    assert prof.open is None
    assert prof.dense == frozenset({1, 2})
    assert not prof.simple  # three h-filters
    two = enum_distributive_lattices(2)[0]
    assert element_profile(two).simple


def test_derive_operations_hri_box():
    raw = FiniteAlgebra(3, VarietyClass("hri"), c3_hri().meet, c3_hri().join, c3_hri().impl,
                        invol=(2, 1, 0))
    assert raw.box is None
    derived = derive_operations(raw)
    assert derived.box == (0, 0, 2)


def test_derive_operations_hdp_tables():
    raw = FiniteAlgebra(3, VarietyClass("hdp", 1), c3_hdp().meet, c3_hdp().join, c3_hdp().impl,
                        dualneg=(2, 2, 0))
    derived = derive_operations(raw)
    assert derived.dualneg == (2, 2, 0)
    assert derived.box == (0, 0, 2)


def test_derive_operations_two_as_hri_is_identity_box():
    alg = derive_operations(two_element(VarietyClass("hri")))
    assert alg.box == (0, 1)


def test_derive_operations_idempotent():
    for alg in catalog_fixtures():
        once = derive_operations(alg)
        assert derive_operations(once) == once


@pytest.mark.parametrize("make", [c3_hri, c3_hdp])
def test_derive_operations_keeps_a_present_box(make):
    """A present derived table is kept and checked, not recomputed: the identity
    box on the three-chain disagrees with the one invol or dualneg gives."""
    with pytest.raises(InvalidAlgebraError, match="box-consistent"):
        derive_operations(replace(make(), box=(0, 1, 2)))


def test_derive_operations_dht_fills_dualneg():
    dimpl = ((0, 0, 0), (1, 0, 0), (2, 2, 0))
    raw = FiniteAlgebra(3, VarietyClass("dht", 1), c3_simple().meet, c3_simple().join,
                        c3_simple().impl, dimpl=dimpl)
    derived = derive_operations(raw)
    assert derived.dualneg == (2, 2, 0)
    assert derived.box == (0, 0, 2)


def test_derive_rejects_box_outside_discriminator_subvariety():
    # 3-chain as hdp:1 with a wrong dualneg table breaks the dual-pseudocomplement law
    raw = FiniteAlgebra(3, VarietyClass("hdp", 1), c3_simple().meet, c3_simple().join,
                        c3_simple().impl, dualneg=(2, 0, 0))
    with pytest.raises(InvalidAlgebraError):
        derive_operations(raw)


def test_inferred_level_examples():
    assert inferred_level(c3_hdp()) == 1
    b4 = FiniteAlgebra(4, VarietyClass("hdp", 1), b4_prod().meet, b4_prod().join,
                       b4_prod().impl, dualneg=(3, 2, 1, 0))
    assert inferred_level(b4) == 0
    assert inferred_level(replace(b4, dualneg=(3, 1, 2, 0))) is None  # boxdot swaps the atoms


def test_level_far_above_the_size_answers_as_the_size():
    """boxdot^k and the orbits of boxdot settle within size steps, so validate and
    derive_operations at level 10**9 answer as at the size, without iterating
    10**9 times."""
    huge = replace(c3_hdp(), cls=VarietyClass("hdp", 10**9))
    assert validate(huge).valid
    assert derive_operations(huge) == huge
    # with the identity as dualneg, boxdot on B4 is neg, a permutation that never settles
    b4 = FiniteAlgebra(4, VarietyClass("hdp", 10**9), b4_prod().meet, b4_prod().join,
                       b4_prod().impl, dualneg=(0, 1, 2, 3))
    report = validate(b4)
    moved = [v for name, v in report.violations if name == "boxdot-level"]
    assert moved == [(0,), (1,), (2,), (3,)]
    for level in (4, 5):
        assert report == validate_oracle(replace(b4, cls=VarietyClass("hdp", level)))


def test_element_profile_examples():
    prof = element_profile(b4_disc())
    assert prof.open == frozenset({0, 3})
    assert prof.dense == frozenset({3})
    assert prof.simple

    prof = element_profile(c3_simple())
    assert prof.open == frozenset({0, 2})
    assert prof.dense == frozenset({1, 2})
    assert prof.simple

    prof = element_profile(b4_prod())
    assert prof.open == frozenset({0, 1, 2, 3})
    assert not prof.simple
    assert prof.boolean_h_reduct


def test_discriminator_eval_examples():
    b4 = b4_disc()
    assert discriminator_eval(b4, 1, 2, 3) == 1  # a != b returns a
    for alg in catalog_fixtures():
        for a in alg.elements:
            for c in alg.elements:
                assert discriminator_eval(alg, a, a, c) == c
    assert discriminator_eval(two_ws5(), 0, 1, 1) == 0
    with pytest.raises(TermEvalError, match="carries no box table"):
        discriminator_eval(two_element(VarietyClass("heyting")), 0, 1, 1)


def test_discriminator_on_simple_fixtures_all_triples():
    for alg in catalog_fixtures():
        if not element_profile(alg).simple:
            continue
        for a, b, c in itertools.product(alg.elements, repeat=3):
            expect = c if a == b else a
            assert discriminator_eval(alg, a, b, c) == expect


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["TwoWS5", "C3simple", "B4disc", "B4prod", "B4-HRI"]))
def test_discriminator_eval_agrees_with_expanded_term(a, b, c, name):
    alg = {f.name: f for f in catalog_fixtures()}[name]
    a, b, c = a % alg.size, b % alg.size, c % alg.size
    term = discriminator_term(Var("x"), Var("y"), Var("z"))
    via_term = eval_term(alg, term, {"x": a, "y": b, "z": c})
    assert discriminator_eval(alg, a, b, c) == via_term


def test_collapses_on_boolean_h_reduct_fixtures():
    alg = b4_hri()
    assert alg.boolean_h_reduct
    for a in alg.elements:
        assert alg.invol[a] == alg.neg[a]


def test_linear_extensions_of_chain_is_unique():
    assert len(list(linear_extensions(c3_simple()))) == 1
    assert len(list(linear_extensions(b4_prod()))) == 2  # the two atoms commute


def test_canonical_form_is_idempotent_and_isomorphism_invariant():
    for alg in catalog_fixtures():
        canon = canonical_form(alg)
        assert canonical_form(canon) == canon
        for ext in linear_extensions(alg):
            perm = [0] * alg.size
            for new, old in enumerate(ext):
                perm[old] = new
            assert canonical_form(relabel(alg, tuple(perm))) == canon


def test_relabel_roundtrip():
    alg = b4_disc()
    perm = (0, 2, 1, 3)
    back = relabel(relabel(alg, perm), perm)
    assert back == alg


def test_canonical_relabeling_returns_matching_permutation():
    alg = b4_disc()
    perm, canon = canonical_relabeling(alg)
    assert relabel(alg, perm) == canon


def random_relabeling(alg, rng):
    """Relabel by a random permutation that keeps 0 at the bottom and size-1 at the top."""
    middle = list(range(1, alg.size - 1))
    rng.shuffle(middle)
    return relabel(alg, tuple([0, *middle, alg.size - 1][: alg.size]))


def small_fixture_products(max_size=12):
    out = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(catalog_fixtures(), k):
            if len({a.cls for a in combo}) == 1 and reduce(lambda n, a: n * a.size, combo, 1) <= max_size:
                out.append(reduce(product, combo))
    return out


def test_canonical_relabeling_matches_brute_force(catalog_algebras):
    rng = random.Random(20140101)
    algebras = list(catalog_algebras) + list(build_catalog(VarietyClass("heyting"), 8).algebras)
    inputs = [random_relabeling(alg, rng) for alg in algebras for _ in range(3)]
    inputs += small_fixture_products()
    for alg in inputs:
        assert canonical_relabeling(alg) == brute_canonical_relabeling(alg), alg


def test_least_meet_relabeling_matches_canonical_relabeling(catalog_algebras):
    # The meet table alone, as the lattice enumeration searches it, reaches the
    # meet table of the canonical form.
    rng = random.Random(20171007)
    for alg in catalog_algebras:
        for x in (alg, random_relabeling(alg, rng)):
            canon = relabel(x, canonical_relabeling(x)[0])
            rows, perm, _ = least_meet_relabeling(x.meet)
            assert rows == canon.meet == relabel(x, perm).meet, x


def test_canonical_form_of_64_element_product_is_relabeling_invariant():
    # Beyond the oracle's reach; the lattice has 6! automorphisms and the
    # algebra 16 of them, so the automorphism pruning is exercised.
    alg = reduce(product, (b4_disc(), b4_disc(), b4_prod()))
    rng = random.Random(5)
    results = []
    for _ in range(3):
        x = random_relabeling(alg, rng)
        perm, canon = canonical_relabeling(x)
        assert relabel(x, perm) == canon
        results.append(canon)
    assert results[0] == results[1] == results[2] == canonical_form(alg)


def test_canonical_relabeling_breaks_ties_by_the_first_extension():
    # B4prod x TwoWS5 is the eight-element Boolean algebra with the identity box:
    # its six automorphisms permute the atoms, so six extensions reach the least
    # key, and the perm must come from the first of them.
    alg = relabel(product(b4_prod(), two_ws5()), (0, 3, 2, 5, 1, 6, 4, 7))
    perm, canon = canonical_relabeling(alg)
    tied = [ext for ext in linear_extensions(alg) if relabel(alg, extension_perm(ext)) == canon]
    assert len(tied) == 6
    assert perm == extension_perm(tied[0]) == (0, 1, 2, 3, 6, 4, 5, 7)


def test_canonical_form_keeps_the_input_name():
    # equality ignores names, so each name below meets a cached equal algebra
    # canonicalised under another name
    alg = product(c3_simple(), b4_disc())
    for name in ("first", "second"):
        assert [f.name for f in decompose_simples(alg.rename(name))] == [f"{name}/theta"] * 2
    assert canonical_form(c3_simple().rename("X")).name == "X"
    assert canonical_relabeling(c3_simple()) == canonical_relabeling(c3_simple().rename("X"))


def test_canonical_relabeling_compares_box_at_tied_leaves():
    # The lattices 2x2x2 and 2x2x3 of these products have automorphisms that
    # move their box, so extensions that reach the least meet table, and with
    # it the least join and impl, still differ in box.
    rng = random.Random(20170602)
    six = build_catalog(VarietyClass("ws5"), 6).of_size(6)[0]
    for alg in (product(two_ws5(), b4_disc()), product(two_ws5(), six)):
        for x in (alg, *(random_relabeling(alg, rng) for _ in range(3))):
            perm, canon = canonical_relabeling(x)
            tied = [relabel(x, extension_perm(ext)) for ext in linear_extensions(x)]
            tied = [t for t in tied if t.meet == canon.meet]
            assert all(t.join == canon.join and t.impl == canon.impl for t in tied)
            assert any(t.box != canon.box for t in tied)
            assert (perm, canon) == brute_canonical_relabeling(x)
