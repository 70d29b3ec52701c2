"""Homomorphism enumeration, subalgebras, isomorphism testing, retract detection.

Homomorphisms come from a depth-first search over the values of greedy generators, in
ascending order of those values; each generator is the element whose subuniverse, an
int mask grown from the set closed so far by one `|=` per pair of elements from rows
built once per call, is largest.  The graph of a hom is the subalgebra of dom x cod
generated by the pairs (g, m(g)), so a branch extends its partial map over each
round's members in the order the greedy reached them, and is pruned on a clash.
Isomorphisms are read off the canonical forms, a complete invariant.  Retract sections
come from the same search, each element's images restricted to its fibre under the
onto map: the retract witness is the first onto map in search order that has a
section, with its lexicographically least section.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from operator import itemgetter, or_

from .algebra import (BINARY, TABLES, FiniteAlgebra, _in_universe, _inverse,
                      canonical_relabeling, relabeled_tables)
from .errors import TheoremViolation
from .fixtures import two_element


@dataclass(frozen=True)
class Homomorphism:
    """Total operation-preserving map, re-verified row by row on construction (_unpreserved)."""

    dom: FiniteAlgebra
    cod: FiniteAlgebra
    map: tuple[int, ...]
    onto: bool = field(init=False)
    injective: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        _verify_preservation(self.dom, self.cod, self.map)
        image = set(self.map)
        object.__setattr__(self, "onto", len(image) == self.cod.size)
        object.__setattr__(self, "injective", len(image) == self.dom.size)

    def inverse(self) -> "Homomorphism":
        if not (self.onto and self.injective):
            raise ValueError("only bijections invert")
        return Homomorphism(self.cod, self.dom, _inverse(self.map))


def _table_pairs(dom: FiniteAlgebra, cod: FiniteAlgebra) -> tuple[list, list]:
    """(unary, binary): the pairs (name, (dom's table, cod's table)) in TABLES order.
    The two algebras must share their class and their tables."""
    if dom.cls != cod.cls:
        raise ValueError(f"class mismatch: {dom.cls} vs {cod.cls}")
    if dom.tables().keys() != cod.tables().keys():
        raise ValueError(f"tables differ: {list(dom.tables())} vs {list(cod.tables())}")
    return ([(n, (t, cod.tables()[n])) for n, t in dom.unary_tables().items()],
            [(n, (t, cod.tables()[n])) for n, t in dom.binary_tables().items()])


def _unpreserved(m, *groups):
    """The first (name, cell), a cell being an argument or "(a,b)", at which the map m
    fails to carry ta to tb over the pairs (name, (ta, tb)) of the groups in order;
    None if there is none.  Each row, of a binary table or a whole unary one, is
    compared whole by two gathers, and only a row that differs is searched cell by cell."""
    image = itemgetter(*m)
    for name, (ta, tb) in chain(*groups):
        for a, row in enumerate(ta) if name in BINARY else [(None, ta)]:
            target = tb if a is None else tb[m[a]]
            if itemgetter(*row)(m) != image(target):
                b = next(b for b, v in enumerate(row) if m[v] != target[m[b]])
                return name, b if a is None else f"({a},{b})"


def _verify_preservation(dom: FiniteAlgebra, cod: FiniteAlgebra, m) -> None:
    unary, binary = _table_pairs(dom, cod)
    if len(m) != dom.size or any(not 0 <= v < cod.size for v in m):
        raise ValueError("map has wrong shape")
    if m[0] != 0 or m[dom.top] != cod.top:
        raise ValueError("map does not preserve the constants")
    if broken := _unpreserved(m, binary, unary):
        raise ValueError("map breaks {} at {}".format(*broken))


@dataclass(frozen=True)
class RetractWitness:
    retraction: Homomorphism
    injection: Homomorphism

    def __post_init__(self):
        r, j = self.retraction, self.injection
        if j.cod != r.dom or r.cod != j.dom:
            raise ValueError("retraction/injection domains do not line up")
        if not r.onto:
            raise ValueError("retraction must be onto")
        if any(r.map[j.map[b]] != b for b in j.dom.elements):
            raise ValueError("retraction o injection is not the identity")


@dataclass(frozen=True)
class HomsResult:
    homs: tuple[Homomorphism, ...]
    truncated: bool = False


def _rows(alg: FiniteAlgebra) -> list[list[int]]:
    """rows[x][y]: the mask of every binary table's value on (x, y) and (y, x), and on
    the diagonal also of x's unary values; one flat pass per table and transpose."""
    n, bits = alg.size, [1 << v for v in alg.elements]
    masks = [map(bits.__getitem__, chain.from_iterable(t)) for t in alg.binary_tables().values()]
    flat = list(reduce(lambda a, b: map(or_, a, b), masks))
    for t in alg.unary_tables().values():
        flat[::n + 1] = map(or_, flat[::n + 1], map(bits.__getitem__, t))
    flat = list(map(or_, flat, chain.from_iterable(flat[y::n] for y in range(n))))
    return [flat[x:x + n] for x in range(0, n * n, n)]


def _grown(rows: list[list[int]], members: list[int], i: int) -> int:
    """Mask of the least subuniverse containing members, whose first i form one; each later
    member ors in its row at itself and at each member before it; members grows in place."""
    seen = sum(1 << x for x in members)
    while i < len(members):
        row = rows[members[i]]
        i += 1
        produced = 0
        for y in members[:i]:
            produced |= row[y]
        fresh = produced & ~seen
        seen |= fresh
        while fresh:
            members.append((fresh & -fresh).bit_length() - 1)
            fresh &= fresh - 1
    return seen


def subalgebra_closure(alg: FiniteAlgebra, seed) -> frozenset:
    """Least subuniverse containing seed; the constants 0 and top are always included.
    ValueError for a seed element outside the universe."""
    members = list(dict.fromkeys((0, alg.top, *_in_universe(alg, seed))))
    _grown(_rows(alg), members, 0)
    return frozenset(members)


def induced_subalgebra(alg: FiniteAlgebra, carrier) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Restrict to a subuniverse; returns (subalgebra, embedding new->old index)."""
    sub = sorted(carrier)
    pos = {old: new for new, old in enumerate(sub)}
    tables = None
    if sub[:1] + sub[-1:] == [0, alg.top]:  # sorted: it holds the constants, in range
        with suppress(KeyError):  # a value outside the carrier has no new index
            tables = relabeled_tables(alg, sub, pos, TABLES)
    if tables is None:
        raise ValueError("carrier is not closed under the operations")
    name = f"{alg.name}|{sub}" if alg.name else ""
    return FiniteAlgebra(len(sub), alg.cls, **dict(zip(TABLES, tables)), name=name), tuple(sub)


def minimal_subalgebras(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """The subalgebra {0, top}, verified two-element: the least one, as every subalgebra
    holds the constants.  They are closed in a valid algebra; induced_subalgebra raises
    ValueError when they are not.  A two-element algebra has only the identity
    relabeling, so the check is equality with it rather than an isomorphism search."""
    if not alg.nontrivial:
        raise ValueError("trivial algebra has no minimal subalgebra")
    sub, _ = induced_subalgebra(alg, (0, alg.top))
    if sub != two_element(alg.cls):
        raise TheoremViolation(f"minimal subalgebra of {alg!r} is not the two-element algebra")
    return [sub]


def _rounds(alg: FiniteAlgebra) -> tuple[list[int], list[int]]:
    """The greedy generators' rounds as (members, ends): members is the universe in the
    order _grown reached it, round i's subuniverse is members[:ends[i]] (round 0 is the
    constants' closure), and members[ends[i]] is the generator that starts round i + 1:
    the element whose closure, grown with the rows built once per call, is largest; the
    first on ties.  A candidate inside the closure of an earlier one in the same round
    is skipped: its closure is a subset of that one, so it cannot be the first largest."""
    rows, members = _rows(alg), list(dict.fromkeys((0, alg.top)))
    closed = _grown(rows, members, 0)
    ends = [len(members)]
    while len(members) < alg.size:
        covered, best = closed, (closed, members)
        for x in alg.elements:
            if not covered >> x & 1:
                grown = [*members, x]
                covered |= (mask := _grown(rows, grown, len(members)))
                if len(grown) > len(best[1]):
                    best = mask, grown
        closed, members = best
        ends.append(len(members))
    return members, ends


def generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
    """Greedy generators: the element that starts each round after the constants'."""
    members, ends = _rounds(alg)
    return tuple(members[e] for e in ends[:-1])


def _search(dom: FiniteAlgebra, cod: FiniteAlgebra, images=None):
    """Yield operation-preserving maps dom->cod as tuples, deterministic DFS order.

    A branch that sets the generator of a round of _rounds(dom) extends m over that
    round's members, in the order _grown reached them: each is combined once with itself
    and the members before it under every table, a forced value fills an unassigned
    element, and a clash prunes the branch.  _grown reached each member after the
    generator from those same pairs, so it is assigned before its turn.
    images[x], an ascending sequence of cod's elements, restricts the values x may
    take (every element of cod by default): a branch that forces a value outside
    it is pruned, and a generator tries only its allowed values.  So the search
    yields exactly the unrestricted maps that respect images, in the same order.
    """
    unary, binary = _table_pairs(dom, cod)
    if images is None:
        images = [range(cod.size)] * dom.size
    members, ends = _rounds(dom)

    def grow(m, start, end):
        """Extend m over members[start:end]; False on a clash."""
        for i, x in enumerate(members[start:end], start):
            mx = m[x]
            forced = [(ta[x], tb[mx]) for _, (ta, tb) in unary]
            for _, (ta, tb) in binary:
                row_a, row_b = ta[x], tb[mx]
                for y in members[:i + 1]:
                    my = m[y]
                    forced.append((row_a[y], row_b[my]))
                    forced.append((ta[y][x], tb[my][mx]))
            for e, v in forced:
                # a forced value outside images[e] fails the elif below
                if m[e] == -1 and v in images[e]:
                    m[e] = v
                elif m[e] != v:
                    return False
        return True

    def rec(i, m):
        if i == len(ends) - 1:
            assert all(v != -1 for v in m)
            yield tuple(m)
            return
        g = members[ends[i]]
        for v in images[g]:
            m2 = m.copy()
            m2[g] = v
            if grow(m2, ends[i], ends[i + 1]):
                yield from rec(i + 1, m2)

    m0 = [-1] * dom.size
    m0[0], m0[dom.top] = 0, cod.top  # m0[0] is cod.top when dom is trivial
    if m0[0] == 0 and 0 in images[0] and cod.top in images[dom.top] and grow(m0, 0, ends[0]):
        yield from rec(0, m0)


def homs(dom: FiniteAlgebra, cod: FiniteAlgebra, mode: str = "any", cap: int | None = None):
    """Homomorphism search.

    mode "any": first witness in search order or None;
    mode "all": HomsResult with lexicographically sorted maps.
    The suffix "_onto" (as in "any_onto") keeps only the maps onto cod.  cap (at
    least 1) bounds the kept maps for "all" and sets `truncated` when more exist.
    """
    kind = mode.removesuffix("_onto")
    if kind not in ("any", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    onto = kind != mode
    found = (m for m in _search(dom, cod) if not onto or len(set(m)) == cod.size)
    if kind == "any":
        m = next(found, None)
        return None if m is None else Homomorphism(dom, cod, m)
    maps = sorted(islice(found, cap))
    truncated = next(found, None) is not None
    return HomsResult(tuple(Homomorphism(dom, cod, m) for m in maps), truncated)


def isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    """An isomorphism a -> b, or None.

    The canonical form is a complete invariant, so a and b are isomorphic exactly
    when their canonical forms are equal; then x -> pb^-1(pa(x)) is an
    isomorphism, where pa and pb are the canonical relabelings.  For a == b it is
    the identity.  The map is checked again on every table as a Homomorphism.
    The cost is two canonical relabelings: 13-14 s on 2 cores for the 256-element
    B4disc^4 against a shuffled copy (README, "Canonical form").
    """
    if a.cls != b.cls or a.size != b.size:
        return None
    (pa, ca), (pb, cb) = canonical_relabeling(a), canonical_relabeling(b)
    if ca != cb:  # equality ignores names, so this is serial_key equality
        return None
    return Homomorphism(a, b, tuple(map(_inverse(pb).__getitem__, pa)))


def is_retract(p: FiniteAlgebra, b: FiniteAlgebra) -> RetractWitness | None:
    """A retraction p -> b with an injection b -> p inverse to it, or None.

    When p and b have the same size, an onto map p -> b is a bijection, so the
    witness is an isomorphism and its inverse, or None when isomorphic finds
    none.  Otherwise it is the first onto map phi of the hom search p -> b, in
    search order, that has a section, together with its lexicographically least
    section: a hom b -> p found by the same search with the images of each v
    restricted to phi's fibre over v."""
    _table_pairs(p, b)  # raises unless p and b share their class and tables
    if b.size > p.size:
        raise ValueError("retract cannot be larger than the algebra")
    if b.size == p.size:
        iso = isomorphic(p, b)
        return None if iso is None else RetractWitness(retraction=iso, injection=iso.inverse())
    for m in _search(p, b):
        if len(set(m)) != b.size:
            continue
        fibres = [[x for x in p.elements if m[x] == v] for v in b.elements]
        section = min(_search(b, p, fibres), default=None)
        if section is not None:
            return RetractWitness(Homomorphism(p, b, m), Homomorphism(b, p, section))
    return None
