import importlib.util
import itertools
import pathlib
import random
from collections import Counter
from dataclasses import replace
from functools import reduce

import pytest

from finheyt import catalog, cli
from finheyt.algebra import (
    BINARY,
    TABLES,
    FiniteAlgebra,
    VarietyClass,
    canonical_form,
    derive_operations,
    element_profile,
    least_meet_relabeling,
    relabel,
    relabeled_tables,
    serial_key,
    validate,
)
from finheyt.catalog import (
    MAX_LATTICE_SIZE,
    Catalog,
    _automorphisms,
    _boolean_atom_sets,
    _co_implication,
    _dual_automorphisms,
    _posets_with_downsets,
    build_catalog,
    decorate,
    enum_distributive_lattices,
)
from finheyt.congruence import product
from finheyt.decision import decide_projective_finite
from finheyt.errors import TheoremViolation
from finheyt.fixtures import b4_disc, b4_prod, c3_simple, two_element
from conftest import ACCEPTANCE_CLASSES


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


def downset_masks(below):
    """Downsets of a poset given by strictly-below bitmasks (indices linearly extended)."""
    sets = [0]
    for i, b in enumerate(below):
        sets += [s | (1 << i) for s in sets if s & b == b]
    return sets


def lattice_of_downsets_oracle(below):
    """The downset lattice of a poset, impl by an O(n^3) scan, then canonical_form."""
    masks = sorted(downset_masks(below), key=lambda m: (bin(m).count("1"), m))
    idx = {m: i for i, m in enumerate(masks)}
    meet = tuple(tuple(idx[a & b] for b in masks) for a in masks)
    join = tuple(tuple(idx[a | b] for b in masks) for a in masks)
    impl = []
    for a in masks:
        row = []
        for b in masks:
            c = 0
            for d in masks:
                if d & a & ~b == 0:
                    c |= d
            row.append(idx[c])
        impl.append(tuple(row))
    return canonical_form(
        FiniteAlgebra(len(masks), VarietyClass("heyting"), meet, join, tuple(impl))
    )


def test_enumerated_lattices_match_canonical_form_oracle():
    total = 0
    for n in range(1, MAX_LATTICE_SIZE + 1):
        for below, lat, masks, _ in _posets_with_downsets(n).values():
            want = lattice_of_downsets_oracle(below)
            assert lat.size == n
            # the stored downsets are the poset's, element i of lat the i-th
            assert sorted(masks) == sorted(downset_masks(below)), below
            pairs = itertools.product(lat.elements, repeat=2)
            assert all(masks[lat.meet[a][b]] == masks[a] & masks[b] for a, b in pairs), below
            assert lat.meet == want.meet, below
            assert lat.join == want.join, below
            assert lat.impl == want.impl, below
            assert lat == want
            total += 1
    assert total == 342


def test_grown_poset_counts_are_pruned_to_one_per_orbit_and_canonical_deletion():
    # without the two skips the counts read 7, 10, 20, 33, 65, 110, 212 from size 6
    assert [sum(1 for _ in catalog._grown_posets(n)) for n in range(1, 13)] == [
        1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 83, 152,
    ]


def test_pruned_growth_finds_every_lattice_of_unpruned_growth():
    # every stored poset grown at every downset, deduplicated on the least meet table
    for n in range(2, 11):
        unpruned = set()
        for m in range(1, n):
            for below, _, masks, _ in _posets_with_downsets(m).values():
                new = 1 << len(below)
                for d in masks:
                    grown = [*masks, *(s | new for s in masks if s & d == d)]
                    if len(grown) == n:
                        idx = {s: i for i, s in enumerate(grown)}
                        meet = [[idx[a & b] for b in grown] for a in grown]
                        unpruned.add(least_meet_relabeling(meet)[0])
        assert unpruned == set(_posets_with_downsets(n)), n


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
    # every decoration reads the enumeration's record of the lattice: ws5 and hri
    # its automorphism group, hdp and dht its poset of join-irreducibles
    reversed_chain = relabel(enum_distributive_lattices(3)[0], (2, 1, 0))
    for cls in ("ws5", "hri", "hdp:1", "dht:2"):
        with pytest.raises(ValueError, match="not an enumerated lattice"):
            decorate(VarietyClass.parse(cls), reversed_chain)


def _identity_box_candidate(lat):
    """A ws5 candidate whose identity box makes every element open."""
    return [FiniteAlgebra(lat.size, VarietyClass("ws5"), lat.meet, lat.join, lat.impl,
                          box=tuple(lat.elements))]


def _short_box_candidate(lat):
    """A ws5 candidate whose box misses the top."""
    return [FiniteAlgebra(lat.size, VarietyClass("ws5"), lat.meet, lat.join, lat.impl,
                          box=tuple(lat.elements)[:-1])]


def _non_antitone_invol_candidate(lat):
    """An hri candidate on the 4-chain whose regular involution swaps 0 and 3 and
    fixes 1 < 2, so is not antitone."""
    return [FiniteAlgebra(lat.size, VarietyClass("hri"), lat.meet, lat.join, lat.impl,
                          invol=(3, 1, 2, 0))]


def _top_co_implication(lat):
    """A broken c -< a: the top for every c and a."""
    return lambda c: (lat.top,) * lat.size


# Each patch breaks one class's candidates; derive_operations rejects the
# candidate and decorate reports its first violation.
@pytest.mark.parametrize("cls, size, index, patch, match", [
    # the middle element of the 3-chain is open without a complement
    ("ws5", 3, 0, ("_ws5_candidates", _identity_box_candidate),
     r"heyting_n3_00.* open-elements-boolean at \(1,\)"),
    # a malformed table has no witness; the message says what is wrong
    ("ws5", 3, 0, ("_ws5_candidates", _short_box_candidate),
     r"heyting_n3_00.* fails structure at box: expected 3 entries, got 2"),
    # a regular involution of the 4-chain that is not antitone
    ("hri", 4, 1, ("_hri_candidates", _non_antitone_invol_candidate),
     r"heyting_n4_01.* fails invol-de-morgan at \(1, 2\)"),
    # 0 <= 0 | 0, but 0 -< 0 = 1 is not below 0
    ("dht:2", 2, 0, ("_co_implication", _top_co_implication),
     r"heyting_n2_00.* fails dual-residuation at \(0, 0, 0\)"),
], ids=["ws5", "ws5-malformed", "hri", "dht:2"])
def test_invalid_decoration_candidate_raises(monkeypatch, cls, size, index, patch, match):
    monkeypatch.setattr(catalog, *patch)
    with pytest.raises(TheoremViolation, match=match):
        decorate(VarietyClass.parse(cls), enum_distributive_lattices(size)[index])


def test_catalog_command_exits_3_on_a_rejected_decoration(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(catalog, "_co_implication", _top_co_implication)
    # build_catalog keeps the catalogs it built; the uncached build sees the patch
    monkeypatch.setattr(cli, "build_catalog", catalog.build_catalog.__wrapped__)
    code = cli.main(["catalog", "--class", "dht:2", "--max-size", "3", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "theorem violation: dht:2 candidate on" in err


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


def test_catalogs_match_golden_file():
    """Names, order and serial keys of every catalog up to size 10, as recorded
    in tests/data/catalog_golden.json by scripts/catalog_golden.py."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("catalog_golden", root / "scripts" / "catalog_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.golden_text() == (root / "tests" / "data" / "catalog_golden.json").read_text()


def test_catalogs_match_golden_file_to_size_12():
    """Names, order and serial keys of every catalog at sizes 11 and 12, as
    recorded in tests/data/catalog_golden_12.json by
    scripts/catalog_golden.py --max-size 12."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("catalog_golden", root / "scripts" / "catalog_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.golden_text(12) == (root / "tests" / "data" / "catalog_golden_12.json").read_text()


@pytest.mark.parametrize("kind", ["hdp", "dht"])
def test_catalog_at_a_level_far_above_the_size_matches_level_8(kind):
    huge = build_catalog(VarietyClass(kind, 10**9), 8)
    eight = build_catalog(VarietyClass(kind, 8), 8)
    assert len(eight.algebras) == 36
    assert [replace(a, cls=eight.cls) for a in huge.algebras] == list(eight.algebras)


def boolean_sublattices_oracle(lat):
    """0-1-sublattices in which every member has a complement, by a scan of every subset."""
    top = lat.top
    middle = [a for a in lat.elements if a not in (0, top)]
    for k in range(len(middle) + 1):
        for extra in itertools.combinations(middle, k):
            g = (0, *extra, top) if top != 0 else (0,)
            gs = set(g)
            if not all(lat.meet[a][b] in gs and lat.join[a][b] in gs for a in g for b in g):
                continue
            if not all(
                any(lat.meet[a][b] == 0 and lat.join[a][b] == top for b in g) for a in g
            ):
                continue
            yield g


def decorate_ws5_oracle(lat):
    """The ws5 decorations of lat from the subset scan, each by a canonical-form search."""
    found = {}
    for g in boolean_sublattices_oracle(lat):
        box = tuple(
            reduce(lambda x, y: lat.join[x][y], (e for e in g if lat.le(e, a)), 0)
            for a in lat.elements
        )
        cand = FiniteAlgebra(lat.size, VarietyClass("ws5"), lat.meet, lat.join, lat.impl, box=box)
        if validate(cand).valid:
            canon = canonical_form(cand)
            found.setdefault(serial_key(canon), canon)
    return [found[k] for k in sorted(found)]


def test_ws5_decorations_match_subset_scan():
    ws5, total = VarietyClass("ws5"), 0
    for n in range(1, 11):
        for lat in enum_distributive_lattices(n):
            found = decorate(ws5, lat)
            assert found == decorate_ws5_oracle(lat), lat.name
            total += len(found)
    assert total == len(build_catalog(ws5, 10).algebras)


def antitone_involutions_oracle(lat):
    """Every involutive order anti-automorphism, by a search with no size pruning."""
    n = lat.size
    le = [[lat.meet[a][c] == a for c in range(n)] for a in range(n)]
    inv = [-1] * n

    def ok(a):
        b = inv[a]
        le_a, le_b = le[a], le[b]
        for c in range(n):
            ic = inv[c]
            if ic == -1:
                continue
            if le_a[c] != le[ic][b] or le[c][a] != le_b[ic]:
                return False
        return True

    def rec(a):
        if a == n:
            yield tuple(inv)
            return
        if inv[a] != -1:
            yield from rec(a + 1)
            return
        for b in range(n):
            if b in inv:
                continue
            if inv[b] != -1 and inv[b] != a:
                continue
            prev_b = inv[b]
            inv[a] = b
            inv[b] = a
            if ok(a) and ok(b):
                yield from rec(a + 1)
            inv[a] = -1
            inv[b] = prev_b if b != a else -1

    yield from rec(0)


def test_antitone_involutions_match_unpruned_search():
    total = 0
    for n in range(1, MAX_LATTICE_SIZE + 1):
        for lat in enum_distributive_lattices(n):
            found = [s for s in _dual_automorphisms(lat) if all(s[s[a]] == a for a in s)]
            assert found == list(antitone_involutions_oracle(lat)), lat.name
            total += len(found)
    assert total == 102


def automorphisms_oracle(lat):
    """Every meet-preserving permutation, by a backtrack with no size pruning."""
    n, meet = lat.size, lat.meet
    sigma = [-1] * n
    out = []

    def rec(a):
        if a == n:
            out.append(tuple(sigma))
            return
        for v in range(n):
            if v in sigma:
                continue
            sigma[a] = v
            if all(sigma[meet[a][b]] == meet[v][sigma[b]] for b in range(a)):
                rec(a + 1)
            sigma[a] = -1

    rec(0)
    return out


def test_automorphisms_match_unpruned_search():
    orders = Counter()
    for n in range(1, 11):
        for lat in enum_distributive_lattices(n):
            autos = _automorphisms(lat)
            assert autos == automorphisms_oracle(lat), lat.name
            orders[len(autos)] += 1
    assert orders == {1: 41, 2: 41, 4: 20, 6: 6, 8: 1}  # group orders of the 109 lattices


def group_closure(gens, n):
    """The permutations of range(n) that are products of gens, by squaring up."""
    group = {tuple(range(n)), *map(tuple, gens)}
    while True:
        grown = {tuple(g[x] for x in h) for g in group for h in group}
        if grown == group:
            return group
        group = grown


def preserves(alg, g):
    """Whether the permutation g of alg's elements maps every table to itself."""
    for name, t in alg.tables().items():
        if name in BINARY:
            if any(g[t[a][b]] != t[g[a]][g[b]] for a in alg.elements for b in alg.elements):
                return False
        elif any(g[t[a]] != t[g[a]] for a in alg.elements):
            return False
    return True


def test_canonical_search_automorphisms_generate_the_group(catalog_algebras):
    # The automorphisms least_meet_relabeling finds at tied leaves, on the meet
    # table alone and with the remaining tables as its tail, generate the group
    # of the lattice and of the whole algebra; every catalog algebra, relabeled too
    rng = random.Random(20140601)
    for alg in catalog_algebras:
        perm = list(alg.elements)
        rng.shuffle(perm)
        group = automorphisms_oracle(alg)  # whose labels must extend the order
        conjugate = [tuple(perm[g[old]] for old in sorted(alg.elements, key=perm.__getitem__))
                     for g in group]
        for x, lattice in ((alg, group), (relabel(alg, perm), conjugate)):
            _, _, autos = least_meet_relabeling(x.meet)
            assert group_closure(autos, x.size) == set(lattice), x
            _, _, autos = least_meet_relabeling(
                x.meet, lambda new, old: relabeled_tables(x, old, new, TABLES[3:]))
            assert all(preserves(x, g) for g in autos), x
            assert group_closure(autos, x.size) == {g for g in lattice if preserves(x, g)}, x
    orders = Counter()
    for n in range(1, MAX_LATTICE_SIZE + 1):
        for lat in enum_distributive_lattices(n):
            group = group_closure(least_meet_relabeling(lat.meet)[2], n)
            assert sorted(group) == _automorphisms(lat), lat.name
            orders[len(group)] += 1
    assert orders == {1: 114, 2: 129, 4: 61, 6: 15, 8: 15, 12: 8}  # the 342 lattices to 12


def dual_automorphisms_oracle(lat):
    """Every bijection with a <= b exactly when sigma[b] <= sigma[a], by a backtrack
    with no size pruning."""
    n = lat.size
    le = [[lat.meet[a][b] == a for b in range(n)] for a in range(n)]
    sigma = [-1] * n
    out = []

    def rec(a):
        if a == n:
            out.append(tuple(sigma))
            return
        for v in range(n):
            if v in sigma:
                continue
            if all(le[a][b] == le[sigma[b]][v] and le[b][a] == le[v][sigma[b]] for b in range(a)):
                sigma[a] = v
                rec(a + 1)
                sigma[a] = -1

    rec(0)
    return out


def test_dual_automorphisms_match_unpruned_search():
    counts, self_dual, total = Counter(), 0, 0
    for n in range(1, MAX_LATTICE_SIZE + 1):
        for lat in enum_distributive_lattices(n):
            duals = _dual_automorphisms(lat)
            if n <= 10:
                assert duals == dual_automorphisms_oracle(lat), lat.name
                counts[len(duals)] += 1
            self_dual += bool(duals)
            total += len(duals)
    # lattices up to size 10 by number of dual automorphisms: 33 of the 109 are self-dual
    assert counts == {0: 76, 1: 19, 2: 5, 4: 6, 6: 2, 8: 1}
    assert (self_dual, total) == (62, 146)  # up to size 12


def _stabilizes_at(lat, dualneg, level):
    """boxdot^(level+1) = boxdot^level, by iterating boxdot level times."""
    bd = tuple(lat.neg[dualneg[a]] for a in lat.elements)
    cur = tuple(lat.elements)
    for _ in range(level):
        cur = tuple(bd[c] for c in cur)
    return tuple(bd[c] for c in cur) == cur


def forced_dualneg_oracle(lat):
    """Least b with a | b = 1; exists on any finite distributive lattice."""
    out = []
    for a in lat.elements:
        candidates = [b for b in lat.elements if lat.join[a][b] == lat.top]
        val = reduce(lambda x, y: lat.meet[x][y], candidates)
        assert lat.join[a][val] == lat.top, f"dual pseudocomplement missing at {a} in {lat!r}"
        out.append(val)
    return tuple(out)


def forced_dimpl_oracle(lat):
    """Least b with c <= a | b, as a c-by-a table."""
    rows = []
    for c in lat.elements:
        up = [lat.meet[c][x] == c for x in lat.elements]  # up[x]: c <= x
        row = []
        for a in lat.elements:
            join_a = lat.join[a]
            candidates = [b for b in lat.elements if up[join_a[b]]]
            val = reduce(lambda x, y: lat.meet[x][y], candidates)
            assert up[join_a[val]], f"dual residual missing at ({c},{a}) in {lat!r}"
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def test_co_implication_matches_least_element_scans():
    total = 0
    for n in range(1, MAX_LATTICE_SIZE + 1):
        for lat in enum_distributive_lattices(n):
            co_impl = _co_implication(lat)
            dimpl = forced_dimpl_oracle(lat)
            assert tuple(map(co_impl, lat.elements)) == dimpl, lat.name
            assert co_impl(lat.top) == forced_dualneg_oracle(lat) == dimpl[lat.top], lat.name
            total += 1
    assert total == 342


def decorate_oracle(cls, lat):
    """decorate as it was, with a canonical-form search on every valid candidate."""
    if cls.kind == "heyting":
        return [lat]
    cands = []
    if cls.kind == "ws5":
        for atoms in _boolean_atom_sets(lat):
            box = tuple(
                reduce(lambda x, y: lat.join[x][y], (e for e in atoms if lat.le(e, a)), 0)
                for a in lat.elements
            )
            cands.append(FiniteAlgebra(lat.size, cls, lat.meet, lat.join, lat.impl, box=box))
    elif cls.kind == "hri":
        for inv in antitone_involutions_oracle(lat):
            if any(inv[lat.neg[a]] != lat.neg[lat.neg[a]] for a in lat.elements):
                continue
            box = tuple(lat.neg[inv[a]] for a in lat.elements)
            cands.append(FiniteAlgebra(lat.size, cls, lat.meet, lat.join, lat.impl,
                                       box=box, invol=inv))
    else:
        dualneg = forced_dualneg_oracle(lat)
        if not _stabilizes_at(lat, dualneg, cls.level):
            return []
        extra = {"dualneg": dualneg}
        if cls.kind == "dht":
            extra["dimpl"] = forced_dimpl_oracle(lat)
        cand = FiniteAlgebra(lat.size, cls, lat.meet, lat.join, lat.impl, **extra)
        return [canonical_form(derive_operations(cand))]
    found = {}
    for cand in cands:
        if validate(cand).valid:
            canon = canonical_form(cand)
            found.setdefault(serial_key(canon), canon)
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("cls", ["heyting", "ws5", "hri", "hdp:1", "hdp:2", "dht:1", "dht:2"])
def test_decorate_matches_canonical_form_search(cls):
    cls = VarietyClass.parse(cls)
    for n in range(1, 11):
        for lat in enum_distributive_lattices(n):
            found = decorate(cls, lat)
            assert found == decorate_oracle(cls, lat), lat.name
            if cls.kind in ("hdp", "dht"):
                assert all(canonical_form(a) == a for a in found)


@pytest.mark.parametrize("cls, composite", [
    ("ws5", 17), ("hri", 11), ("hdp:1", 14), ("hdp:2", 14), ("dht:1", 14), ("dht:2", 14),
])
def test_non_simple_members_are_the_products_of_simple_ones(cls, composite):
    # A finite algebra of a discriminator variety is a product of simple ones,
    # unique up to iso and order: at each size the nontrivial non-simple members
    # are the canonical forms of the products of two or more simple members
    cat = build_catalog(VarietyClass.parse(cls), MAX_LATTICE_SIZE)
    simple = [a for a in cat.algebras if element_profile(a).simple]
    products = {n: [] for n in range(2, MAX_LATTICE_SIZE + 1)}

    def grow(alg, start, factors):
        if factors >= 2:
            products[alg.size].append(serial_key(canonical_form(alg)))
        for i in range(start, len(simple)):
            if alg.size * simple[i].size <= MAX_LATTICE_SIZE:
                grow(product(alg, simple[i]), i, factors + 1)

    for i, a in enumerate(simple):
        grow(a, i, 1)
    for n, keys in products.items():
        assert len(set(keys)) == len(keys), (cls, n)
        members = {serial_key(a) for a in cat.of_size(n) if not element_profile(a).simple}
        assert members == set(keys), (cls, n)
    assert sum(map(len, products.values())) == composite


@pytest.mark.parametrize("cls", ACCEPTANCE_CLASSES, ids=str)
def test_projective_members_are_the_doubles_of_the_members_of_half_the_size(cls):
    # A hom onto 2 has a factor congruence as its kernel, so A is projective exactly
    # when A = 2 x B, with B unique up to iso: the projective members of size n are
    # the canonical forms of 2 x B for the members B of size n/2, none at odd n
    cat = build_catalog(cls, MAX_LATTICE_SIZE)
    two = two_element(cls)
    for n in range(2, MAX_LATTICE_SIZE + 1):
        projective = {serial_key(a) for a in cat.of_size(n) if decide_projective_finite(a).projective}
        halves = cat.of_size(n // 2) if n % 2 == 0 else []
        doubles = {serial_key(canonical_form(product(two, b))) for b in halves}
        assert len(doubles) == len(halves), (cls, n)
        assert projective == doubles, (cls, n)
