"""Exhaustive catalogs of small algebras per class.

Finite distributive lattices are enumerated through Birkhoff duality: every
poset of join-irreducibles with n downsets is a poset with fewer downsets plus
one new maximal element above one of its downsets.  Two posets are isomorphic
exactly when their downset lattices are, so the posets are deduplicated on the
serial key of the canonical form of their downset lattice.

Every enumerated lattice is thus a canonical form, and a decoration keeps its
meet, join and impl tables.  So the relabelings that canonicalise a decoration
are the automorphisms of the lattice, and the least of its box and invol tables
under them gives its canonical form without a search.  One backtrack over
lattice maps finds both those automorphisms and the dual automorphisms, whose
involutive members are the invol tables of the hri candidates; the ws5
candidates come from the lattice's Boolean sublattices.  The ws5 and hri
candidates share one tail: validate, canonicalise, dedupe, sort.  The tables of
the leveled classes are defined from the lattice alone, so every automorphism
fixes them and those decorations are canonical as built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce

from .algebra import (
    FiniteAlgebra,
    VarietyClass,
    canonical_form,
    derive_operations,
    inferred_level,
    relabeled_tables,
    serial_key,
    validate,
)
from .errors import TheoremViolation

MAX_LATTICE_SIZE = 12  # documented desk-scale bound


# -- posets of join-irreducibles ---------------------------------------------

def _downset_masks(below: tuple[int, ...], cap: int | None = None):
    """Downsets of a poset given by strictly-below bitmasks (indices linearly extended)."""
    sets = [0]
    for i, b in enumerate(below):
        sets += [s | (1 << i) for s in sets if s & b == b]
        if cap is not None and len(sets) > cap:
            return None
    return sets


def _lattice_of_downsets(below: tuple[int, ...]) -> FiniteAlgebra:
    masks = sorted(_downset_masks(below), key=lambda m: (bin(m).count("1"), m))
    idx = {m: i for i, m in enumerate(masks)}
    n = len(masks)
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
        FiniteAlgebra(n, VarietyClass("heyting"), meet, join, tuple(impl))
    )


@lru_cache(maxsize=None)
def _posets_with_downsets(n: int) -> tuple:
    """(poset, canonical downset lattice) for every poset with n downsets, up to iso.

    Removing a maximal element leaves fewer downsets, so every such poset grows
    from one with fewer by a maximal element above one of its downsets.
    """
    if n == 1:
        return (((), _lattice_of_downsets(())),)
    found = {}
    for m in range(1, n):
        for below, _ in _posets_with_downsets(m):
            for d in _downset_masks(below):
                grown = below + (d,)
                masks = _downset_masks(grown, cap=n)
                if masks is not None and len(masks) == n:
                    lat = _lattice_of_downsets(grown)
                    found.setdefault(serial_key(lat), (grown, lat))
    return tuple(found.values())


def enum_distributive_lattices(n: int) -> list[FiniteAlgebra]:
    """All Heyting algebras of size n up to isomorphism, canonical and sorted."""
    if not 1 <= n <= MAX_LATTICE_SIZE:
        raise ValueError(f"size must be within 1..{MAX_LATTICE_SIZE}, got {n}")
    lattices = sorted((lat for _, lat in _posets_with_downsets(n)), key=serial_key)
    return [alg.rename(f"heyting_n{n}_{i:02d}") for i, alg in enumerate(lattices)]


# -- decorations --------------------------------------------------------------

def _automorphisms(lat: FiniteAlgebra, dual: bool = False) -> list[tuple[int, ...]]:
    """Every automorphism of a lattice whose labels extend its order, old->new;
    with dual, every dual automorphism (a bijection sending meets to joins).

    An automorphism maps the downset and the upset of a onto those of its image,
    and a dual one maps them onto the upset and the downset, so sigma[a] = v is
    tried only when (|down v|, |up v|) is (|down a|, |up a|), or (|up a|,
    |down a|) with dual.  Elements are assigned in label order, and a meet of a
    with a smaller label is below it, so it is assigned before a is checked.
    Values are tried in ascending order, so the maps come in lexicographic order.
    """
    n, meet = lat.size, lat.meet
    image = lat.join if dual else meet
    down = [sum(meet[x][a] == x for x in range(n)) for a in range(n)]
    up = [sum(meet[a][x] == a for x in range(n)) for a in range(n)]
    shape = list(zip(down, up))
    want = list(zip(up, down)) if dual else shape
    sigma = [-1] * n
    used = [False] * n
    out = []

    def rec(a):
        if a == n:
            out.append(tuple(sigma))
            return
        for v in range(n):
            if used[v] or shape[v] != want[a]:
                continue
            sigma[a] = v
            if all(sigma[meet[a][b]] == image[v][sigma[b]] for b in range(a)):
                used[v] = True
                rec(a + 1)
                used[v] = False

    rec(0)
    return out


def _antitone_involutions(lat: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All unary tables that are involutive order anti-automorphisms, in lexicographic order."""
    return [s for s in _automorphisms(lat, dual=True) if all(s[s[a]] == a for a in lat.elements)]


def _canonical_decorations(lat: FiniteAlgebra, candidates) -> list[FiniteAlgebra]:
    """The valid candidates, canonical, deduplicated and sorted by serial key.

    The relabelings that reach the lattice's own, least, meet table are exactly
    its automorphisms; each extends the order, since the labels do, and fixes
    meet, join and impl.  So the canonical form of a decoration is its least
    relabeling over Aut(lat), and only box and invol are relabeled and compared.
    """
    found, autos = {}, None
    for cand in candidates:
        if validate(cand).valid:
            autos = autos or _automorphisms(lat)
            box, invol = min(relabeled_tables(cand, s, ("box", "invol")) for s in autos)
            canon = replace(cand, box=box, invol=invol)
            found.setdefault(serial_key(canon), canon)
    return [found[k] for k in sorted(found)]


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
    for inv in _antitone_involutions(lat):
        if any(inv[lat.neg[a]] != lat.neg[lat.neg[a]] for a in lat.elements):
            continue
        box = tuple(lat.neg[inv[a]] for a in lat.elements)
        yield FiniteAlgebra(
            lat.size, VarietyClass("hri"), lat.meet, lat.join, lat.impl, box=box, invol=inv
        )


def _forced_dualneg(lat: FiniteAlgebra) -> tuple[int, ...]:
    """Least b with a | b = 1; exists on any finite distributive lattice."""
    out = []
    for a in lat.elements:
        candidates = [b for b in lat.elements if lat.join[a][b] == lat.top]
        val = reduce(lambda x, y: lat.meet[x][y], candidates)
        if lat.join[a][val] != lat.top:
            raise TheoremViolation(f"dual pseudocomplement missing at {a} in {lat!r}")
        out.append(val)
    return tuple(out)


def _forced_dimpl(lat: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Least b with c <= a | b, as a c-by-a table."""
    rows = []
    for c in lat.elements:
        up = [lat.meet[c][x] == c for x in lat.elements]  # up[x]: c <= x
        row = []
        for a in lat.elements:
            join_a = lat.join[a]
            candidates = [b for b in lat.elements if up[join_a[b]]]
            val = reduce(lambda x, y: lat.meet[x][y], candidates)
            if not up[join_a[val]]:
                raise TheoremViolation(f"dual residual missing at ({c},{a}) in {lat!r}")
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def _decorate_leveled(lat: FiniteAlgebra, cls: VarietyClass) -> list[FiniteAlgebra]:
    cand = FiniteAlgebra(lat.size, cls, lat.meet, lat.join, lat.impl, dualneg=_forced_dualneg(lat))
    level = inferred_level(cand)
    if level is None or level > cls.level:
        return []
    if cls.kind == "dht":
        dimpl = _forced_dimpl(lat)
        if cand.dualneg != tuple(dimpl[lat.top][a] for a in lat.elements):
            raise TheoremViolation(f"forced dualneg disagrees with 1 -< a in {lat!r}")
        cand = replace(cand, dimpl=dimpl)
    # dualneg, dimpl and box are defined from the lattice, so every automorphism
    # fixes them, and cand is already canonical.
    return [derive_operations(cand)]  # fills box; raises if a WS5 box axiom breaks


def decorate(cls: VarietyClass, lat: FiniteAlgebra) -> list[FiniteAlgebra]:
    """All decorations of a Heyting algebra in the given class, up to isomorphism, canonical.

    lat must be a canonical form, as enum_distributive_lattices yields: each
    decoration is canonicalised through the automorphisms of lat, which fix its
    meet, join and impl, instead of by a canonical-form search.
    """
    if lat.cls.kind != "heyting":
        raise ValueError("decorate expects a plain Heyting algebra")
    if cls.kind == "heyting":
        return [lat]
    if cls.kind == "ws5":
        return _canonical_decorations(lat, _ws5_candidates(lat))
    if cls.kind == "hri":
        return _canonical_decorations(lat, _hri_candidates(lat))
    return _decorate_leveled(lat, cls)


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
