"""Exhaustive catalogs of small algebras per class.

Finite distributive lattices are enumerated through Birkhoff duality: every
poset of join-irreducibles with n downsets is a poset with fewer downsets plus
one new maximal element above one of its downsets.  A stored poset grows at
one downset per orbit of its automorphism group, and only where the new point
is a maximal point with the largest downset; every poset still grows from what
is left when such a point is removed (McKay's canonical deletion, J. Algorithms
26, 1998).  Two posets are isomorphic exactly when their downset lattices are,
and a lattice is fixed by its meet table.  So each grown poset costs one
canonical-form search on the meet table of its downset lattice alone, the
posets are deduplicated on the least relabeled meet table, and only a new
lattice has its join and impl tables built, directly in canonical label order
from the downsets.

Every enumerated lattice is thus a canonical form, and its record keeps its
poset, its downsets and its automorphism group, the closure of the generators
the enumeration's own search finds at its tied leaves.  A decoration keeps the
meet, join and impl tables, so the relabelings that canonicalise it are the
automorphisms of the lattice, and the least of its box and invol tables under
them gives its canonical form without a search.  A self-dual lattice's dual
automorphisms, whose regular involutive members are the hri invol tables, are
each automorphism followed by the perm of one more search, on the join table.
The ws5 candidates come from the Boolean sublattices.  The leveled classes'
c -< a is the downset generated by the points in c and not in a, so every
automorphism fixes it and those decorations are canonical as built.  Each
class yields only its defining tables, and every candidate of every class goes
through one tail: derive_operations completes and checks it, then
canonicalise, dedupe, sort.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce

from .algebra import (
    LEVELED,
    FiniteAlgebra,
    VarietyClass,
    _inverse,
    derive_operations,
    inferred_level,
    least_meet_relabeling,
    relabeled_tables,
    serial_key,
)
from .errors import InvalidAlgebraError, MalformedAlgebraError, TheoremViolation

MAX_LATTICE_SIZE = 12  # documented desk-scale bound


# -- posets of join-irreducibles ---------------------------------------------

def _grown_posets(n: int):
    """(poset, downsets) for every poset with n downsets grown from a stored one,
    at least one per isomorphism class.

    A poset is a tuple of strictly-below bitmasks, its points linearly extended.
    Removing a maximal element leaves fewer downsets, so every such poset grows
    from one with fewer by a maximal element above one of its downsets d.  The
    grown poset keeps the old downsets and adds s + new for each old s above d.
    The empty poset, with its one downset, is the only one with a single downset.

    Two skips reject isomorphs before any search (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  Downset i is lattice
    element i, and an automorphism g of the lattice is one of the poset, so d
    grows only when no g has g[i] < i: one downset per orbit.  And d grows only
    when no point outside d has more points below it than d has, so the new
    point is a maximal point with the largest downset (a point outside d lies
    below a maximal one, also outside d, with more below it).  Nothing is lost:
    take any poset and a maximal point v with the largest downset; removing v
    leaves a stored poset up to isomorphism, in which the least member of the
    orbit of v's downset passes both skips and grows a copy of the poset.
    """
    if n == 1:
        yield (), [0]
    for m in range(1, n):
        for below, _, masks, group in _posets_with_downsets(m).values():
            new = 1 << len(below)
            sizes = [(1 << u, b.bit_count()) for u, b in enumerate(below)]
            for i, d in enumerate(masks):
                up = [s | new for s in masks if s & d == d]
                if (m + len(up) == n and all(g[i] >= i for g in group)
                        and all(u & d or c <= d.bit_count() for u, c in sizes)):
                    yield below + (d,), [*masks, *up]


def _union_of(sets):
    """The function x -> the union of sets[p] over the points p in x, memoised."""
    union = {0: 0}

    def of(x):
        if x not in union:
            low = x & -x
            union[x] = of(x ^ low) | sets[low.bit_length() - 1]
        return union[x]

    return of


def _lattice_in_order(below: tuple[int, ...], masks: list[int], meet) -> FiniteAlgebra:
    """The downset lattice with element i = masks[i], given its meet table in that order.

    a -> b is the set of points p with down(p) & a inside b, that is, the points
    outside the upset of a - b; the upsets of the points give that upset.
    """
    idx = {s: i for i, s in enumerate(masks)}
    join = [[idx[a | b] for b in masks] for a in masks]
    k = len(below)
    upset = _union_of([sum(1 << p for p in range(k) if below[p] >> q & 1) | 1 << q
                       for q in range(k)])
    impl = [[idx[(1 << k) - 1 & ~upset(a & ~b)] for b in masks] for a in masks]
    return FiniteAlgebra(len(masks), VarietyClass("heyting"), meet, join, impl)


@lru_cache(maxsize=None)
def _posets_with_downsets(n: int) -> dict:
    """(poset, canonical downset lattice, downsets, sorted automorphism group)
    by canonical meet table for every poset with n downsets, up to iso; element
    i of the lattice is the i-th downset.

    Each grown poset is deduplicated on the least relabeling of its meet table;
    only a new lattice has its tables built, in that canonical label order, and
    its group closed from the generators its search found, in those labels.
    """
    found = {}
    for grown, masks in _grown_posets(n):
        idx = {s: i for i, s in enumerate(masks)}
        rows, perm, autos = least_meet_relabeling([[idx[a & b] for b in masks] for a in masks])
        if rows not in found:
            ordered = [masks[old] for old in _inverse(perm)]
            gens = {tuple(perm[g[idx[s]]] for s in ordered) for g in autos}
            group = [tuple(range(n))]
            for g in group:  # the loop reads what it appends
                group += {tuple(h[x] for x in g) for h in gens}.difference(group)
            found[rows] = (grown, _lattice_in_order(grown, ordered, rows), tuple(ordered),
                           sorted(group))
    return found


def enum_distributive_lattices(n: int) -> list[FiniteAlgebra]:
    """All Heyting algebras of size n up to isomorphism, canonical and sorted."""
    if not 1 <= n <= MAX_LATTICE_SIZE:
        raise ValueError(f"size must be within 1..{MAX_LATTICE_SIZE}, got {n}")
    lattices = sorted((lat for _, lat, _, _ in _posets_with_downsets(n).values()),
                      key=serial_key)
    return [alg.rename(f"heyting_n{n}_{i:02d}") for i, alg in enumerate(lattices)]


# -- decorations --------------------------------------------------------------

def _record(lat: FiniteAlgebra) -> tuple:
    """The enumeration's record of lat; ValueError for a lattice it did not yield."""
    record = lat.size <= MAX_LATTICE_SIZE and _posets_with_downsets(lat.size).get(lat.meet)
    if not record:
        raise ValueError(f"{lat!r} is not an enumerated lattice")
    return record


def _automorphisms(lat: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every automorphism of an enumerated lattice, old->new, in lexicographic order."""
    return _record(lat)[3]


def _dual_automorphisms(lat: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every dual automorphism (a bijection sending meets to joins), likewise.

    A dual automorphism swaps the sizes of the downset and the upset of a, so
    there is none unless those pairs, swapped, are the same multiset.  Else the
    canonical search on the join table, the dual lattice's meet table, reaches
    the canonical meet table exactly when the lattice is self-dual, and then its
    perm d sends joins to meets; the dual automorphisms are d after each one.
    """
    group = _automorphisms(lat)
    shape = [(sum(m == x for x, m in enumerate(row)), row.count(a))
             for a, row in enumerate(lat.meet)]
    if sorted(shape) != sorted(s[::-1] for s in shape):
        return []
    rows, d, _ = least_meet_relabeling(lat.join)
    return sorted(tuple(d[x] for x in g) for g in group) if rows == lat.meet else []


def _boolean_atom_sets(lat: FiniteAlgebra):
    """Sets of pairwise disjoint nonzero elements that join to the top.

    In a distributive lattice the joins of the subsets of such a set form a 0-1
    Boolean sublattice with that set as its atoms, and every 0-1 Boolean
    sublattice arises so from its atoms.
    """
    n, top, meet, join = lat.size, lat.top, lat.meet, lat.join
    chosen: list[int] = []

    def rec(start, acc):
        if acc == top:
            yield tuple(chosen)
            return
        for x in range(start, n):
            if meet[acc][x] == 0 and x != 0:
                chosen.append(x)
                yield from rec(x + 1, join[acc][x])
                chosen.pop()

    yield from rec(1, 0)


def _ws5_candidates(lat: FiniteAlgebra):
    for atoms in _boolean_atom_sets(lat):
        # box a = the largest member of the Boolean sublattice below a
        box = tuple(
            reduce(lambda x, y: lat.join[x][y], (e for e in atoms if lat.le(e, a)), 0)
            for a in lat.elements
        )
        yield FiniteAlgebra(lat.size, VarietyClass("ws5"), lat.meet, lat.join, lat.impl, box=box)


def _hri_candidates(lat: FiniteAlgebra):
    """Each dual automorphism with inv inv a = a and inv !a = !!a, as an invol table."""
    for inv in _dual_automorphisms(lat):
        if all(inv[inv[a]] == a and inv[lat.neg[a]] == lat.neg[lat.neg[a]] for a in lat.elements):
            yield FiniteAlgebra(lat.size, VarietyClass("hri"), lat.meet, lat.join, lat.impl,
                                invol=inv)


def _co_implication(lat: FiniteAlgebra):
    """The row of c -< a over a, as a function of c: the least b with c <= a | b.

    In the enumeration's record an element is a downset of join-irreducibles,
    and a point is in a | b exactly when it is in a or in b.  So c -< a is the
    downset generated by the points in c and not in a.
    """
    below, _, masks, _ = _record(lat)
    idx = {s: i for i, s in enumerate(masks)}
    downset = _union_of([b | 1 << p for p, b in enumerate(below)])
    return lambda c: tuple(idx[downset(masks[c] & ~a)] for a in masks)


def _leveled_candidates(lat: FiniteAlgebra, cls: VarietyClass):
    """The hdp or dht candidate on lat if its level fits: dualneg a is 1 -< a,
    and only dht builds the whole table c -< a."""
    co_impl = _co_implication(lat)
    cand = FiniteAlgebra(lat.size, cls, lat.meet, lat.join, lat.impl, dualneg=co_impl(lat.top))
    level = inferred_level(cand)
    if level is not None and level <= cls.level:
        yield cand if cls.kind == "hdp" else replace(cand, dimpl=tuple(map(co_impl, lat.elements)))


def decorate(cls: VarietyClass, lat: FiniteAlgebra) -> list[FiniteAlgebra]:
    """All decorations of a Heyting algebra in the given class, up to isomorphism, canonical.

    Each candidate carries its class's defining tables only; derive_operations
    completes and checks it, and since every candidate is valid by construction,
    one it rejects raises TheoremViolation.  lat must be a canonical form, as
    enum_distributive_lattices yields: the relabelings that reach its own,
    least, meet table are exactly its automorphisms, which extend the order,
    since the labels do, and fix meet, join, impl and c -< a.  So a ws5 or hri
    decoration's canonical form is its least box and invol over Aut(lat), and
    an hdp or dht decoration is canonical as built.  Every class but heyting
    reads the enumeration's record of lat: ValueError for a lattice it did not
    yield.
    """
    if lat.cls.kind != "heyting":
        raise ValueError("decorate expects a plain Heyting algebra")
    if cls.kind == "heyting":
        return [lat]
    if cls.kind in LEVELED:
        candidates, autos = _leveled_candidates(lat, cls), []
    else:
        candidates = _ws5_candidates(lat) if cls.kind == "ws5" else _hri_candidates(lat)
        autos = [(_inverse(s), s) for s in _automorphisms(lat)]
    found = {}
    for cand in candidates:
        try:
            cand = derive_operations(cand)
        except (InvalidAlgebraError, MalformedAlgebraError) as e:
            name, witness = (e.report.violations[0] if isinstance(e, InvalidAlgebraError)
                             else ("structure", e))
            raise TheoremViolation(f"{cls} candidate on {lat!r} fails {name} at {witness}") from e
        if autos:
            box, invol = min(relabeled_tables(cand, old, s, ("box", "invol")) for old, s in autos)
            cand = replace(cand, box=box, invol=invol)
        found.setdefault(serial_key(cand), cand)
    return [found[k] for k in sorted(found)]


@dataclass(frozen=True)
class Catalog:
    cls: VarietyClass
    max_size: int
    algebras: tuple[FiniteAlgebra, ...]

    def of_size(self, n: int) -> list[FiniteAlgebra]:
        return [a for a in self.algebras if a.size == n]


@lru_cache(maxsize=None)
def build_catalog(cls: VarietyClass, max_size: int) -> Catalog:
    """Every algebra of the class up to max_size, canonical, deduplicated, named."""
    if not 1 <= max_size <= MAX_LATTICE_SIZE:
        raise ValueError(f"max size must be within 1..{MAX_LATTICE_SIZE}, got {max_size}")
    algebras = []
    for n in range(1, max_size + 1):
        found = []
        for lat in enum_distributive_lattices(n):
            found.extend(decorate(cls, lat))
        found.sort(key=serial_key)
        tag = str(cls).replace(":", "_")
        algebras.extend(a.rename(f"{tag}_n{n}_{i:02d}") for i, a in enumerate(found))
    return Catalog(cls, max_size, tuple(algebras))
