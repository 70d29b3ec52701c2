"""Homomorphism enumeration, subalgebras, isomorphism testing, retract detection.

Homomorphisms come from a depth-first search with closure propagation over the
images of greedy generators, each candidate's subuniverse grown outward from the set
closed so far, in ascending order of their values on the generators.  Isomorphisms
are read off the canonical forms (`algebra.canonical_relabeling`), a complete
invariant.  Retract sections come from the same search, each element's images
restricted to its fibre under the onto map: the retract witness is the first onto
map in search order that has a section, with its lexicographically least section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import TABLES, FiniteAlgebra, canonical_relabeling, relabeled_tables, serial_key
from .errors import TheoremViolation
from .fixtures import two_element


@dataclass(frozen=True)
class Homomorphism:
    """Total operation-preserving map; preservation is re-verified on construction."""

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
        inv = [0] * self.cod.size
        for a, b in enumerate(self.map):
            inv[b] = a
        return Homomorphism(self.cod, self.dom, tuple(inv))


def _table_pairs(dom: FiniteAlgebra, cod: FiniteAlgebra) -> tuple[dict, dict]:
    """(unary, binary): each table of dom by name, paired with cod's table of that
    name.  The two algebras must share their class and their tables."""
    if dom.cls != cod.cls:
        raise ValueError(f"class mismatch: {dom.cls} vs {cod.cls}")
    if dom.tables().keys() != cod.tables().keys():
        raise ValueError(f"tables differ: {list(dom.tables())} vs {list(cod.tables())}")
    return ({n: (t, cod.tables()[n]) for n, t in dom.unary_tables().items()},
            {n: (t, cod.tables()[n]) for n, t in dom.binary_tables().items()})


def _verify_preservation(dom: FiniteAlgebra, cod: FiniteAlgebra, m) -> None:
    unary, binary = _table_pairs(dom, cod)
    if len(m) != dom.size or any(not 0 <= v < cod.size for v in m):
        raise ValueError("map has wrong shape")
    if m[0] != 0 or m[dom.top] != cod.top:
        raise ValueError("map does not preserve the constants")
    for name, (ta, tb) in binary.items():
        for a in dom.elements:
            for b in dom.elements:
                if m[ta[a][b]] != tb[m[a]][m[b]]:
                    raise ValueError(f"map breaks {name} at ({a},{b})")
    for name, (ta, tb) in unary.items():
        for a in dom.elements:
            if m[ta[a]] != tb[m[a]]:
                raise ValueError(f"map breaks {name} at {a}")


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


def _grown(alg: FiniteAlgebra, closed, new) -> frozenset:
    """Least subuniverse containing the subuniverse closed and the elements new: each
    element is combined once, with itself and those before it, under every table."""
    members = [*closed, *set(new).difference(closed)]
    seen = set(members)
    i = len(closed)
    while i < len(members):
        x = members[i]
        i += 1
        before = members[:i]
        produced = {t[x] for t in alg.unary_tables().values()}
        for t in alg.binary_tables().values():
            produced.update([t[x][y] for y in before])
            produced.update([t[y][x] for y in before])
        fresh = produced - seen
        seen |= fresh
        members += fresh
    return frozenset(seen)


def subalgebra_closure(alg: FiniteAlgebra, seed) -> frozenset:
    """Least subuniverse containing seed; the constants 0 and top are always included."""
    return _grown(alg, (), (0, alg.top, *seed))


def induced_subalgebra(alg: FiniteAlgebra, carrier) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Restrict to a subuniverse; returns (subalgebra, embedding new->old index)."""
    sub = sorted(carrier)
    if subalgebra_closure(alg, sub) != frozenset(sub):
        raise ValueError("carrier is not closed under the operations")
    pos = {old: new for new, old in enumerate(sub)}
    out = FiniteAlgebra(
        len(sub), alg.cls,
        **dict(zip(TABLES, relabeled_tables(alg, sub, pos, TABLES))),
        name=f"{alg.name}|{sub}" if alg.name else "",
    )
    return out, tuple(sub)


def minimal_subalgebras(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """The constant-generated subalgebra, verified two-element.  It is the least
    subalgebra: every closure contains it, and the constants generate all of it.
    A two-element algebra has only the identity relabeling, so the check is
    equality with the two-element algebra rather than an isomorphism search."""
    if not alg.nontrivial:
        raise ValueError("trivial algebra has no minimal subalgebra")
    sub, _ = induced_subalgebra(alg, subalgebra_closure(alg, ()))
    if sub != two_element(alg.cls):
        raise TheoremViolation(f"minimal subalgebra of {alg!r} is not the two-element algebra")
    return [sub]


def generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
    """Greedy generators: repeatedly add the element whose closure, grown outward
    from the set closed so far, is largest; the first such element on ties.  A
    candidate inside the closure of an earlier one in the same round is skipped:
    its closure is a subset of that one, so it cannot be the first largest."""
    closed = subalgebra_closure(alg, ())
    gens: list[int] = []
    while len(closed) < alg.size:
        covered, best, best_closure = set(closed), None, closed
        for x in alg.elements:
            if x not in covered:
                grown = _grown(alg, closed, [x])
                covered |= grown
                if len(grown) > len(best_closure):
                    best, best_closure = x, grown
        gens.append(best)
        closed = best_closure
    return tuple(gens)


def _search(dom: FiniteAlgebra, cod: FiniteAlgebra, images=None):
    """Yield operation-preserving maps dom->cod as tuples, deterministic DFS order.

    Partial maps are extended by closure propagation and pruned on table conflicts.
    images[x], an ascending sequence of cod's elements, restricts the values x may
    take (every element of cod by default): a branch that forces a value outside
    it is pruned, and a generator tries only its allowed values.  So the search
    yields exactly the unrestricted maps that respect images, in the same order.
    """
    unary, binary = _table_pairs(dom, cod)
    unary, binary = list(unary.values()), list(binary.values())
    n = dom.size
    if images is None:
        images = [range(cod.size)] * n

    def close(m, queue):
        while queue:
            x = queue.pop()
            mx = m[x]
            for ta, tb in unary:
                e, v = ta[x], tb[mx]
                # a forced value outside images[e] fails the elif below
                if m[e] == -1 and v in images[e]:
                    m[e] = v
                    queue.append(e)
                elif m[e] != v:
                    return False
            for ta, tb in binary:
                row_a, row_b = ta[x], tb[mx]
                for y in range(n):
                    my = m[y]
                    if my == -1:
                        continue
                    for e, v in ((row_a[y], row_b[my]), (ta[y][x], tb[my][mx])):
                        if m[e] == -1 and v in images[e]:
                            m[e] = v
                            queue.append(e)
                        elif m[e] != v:
                            return False
        return True

    gens = generating_set(dom)
    m0 = [-1] * n
    m0[0], m0[dom.top] = 0, cod.top  # m0[0] is cod.top when dom is trivial
    if m0[0] != 0 or 0 not in images[0] or cod.top not in images[dom.top]:
        return
    if not close(m0, [0, dom.top] if dom.top != 0 else [0]):
        return

    def rec(i, m):
        if i == len(gens):
            assert all(v != -1 for v in m)
            yield tuple(m)
            return
        g = gens[i]
        if m[g] != -1:
            yield from rec(i + 1, m)
            return
        for v in images[g]:
            m2 = m.copy()
            m2[g] = v
            if close(m2, [g]):
                yield from rec(i + 1, m2)

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
    maps, truncated = [], False
    for m in found:
        if cap is not None and len(maps) == cap:
            truncated = True
            break
        maps.append(m)
    maps.sort()
    return HomsResult(tuple(Homomorphism(dom, cod, m) for m in maps), truncated)


def isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    """An isomorphism a -> b, or None.

    The canonical form is a complete invariant, so a and b are isomorphic exactly
    when their canonical forms are equal; then x -> pb^-1(pa(x)) is an
    isomorphism, where pa and pb are the canonical relabelings.  For a == b it is
    the identity.  The map is checked again on every table as a Homomorphism.
    The cost is two canonical relabelings, which can reach minutes on 256-element
    products such as B4disc^4 (README, "Canonical form").
    """
    if a.cls != b.cls or a.size != b.size:
        return None
    (pa, ca), (pb, cb) = canonical_relabeling(a), canonical_relabeling(b)
    if serial_key(ca) != serial_key(cb):
        return None
    back = [0] * b.size
    for x, y in enumerate(pb):
        back[y] = x
    return Homomorphism(a, b, tuple(back[y] for y in pa))


def is_retract(p: FiniteAlgebra, b: FiniteAlgebra) -> RetractWitness | None:
    """A retraction p -> b with an injection b -> p inverse to it, or None.

    When p and b are isomorphic the witness is an isomorphism and its inverse.
    Otherwise it is the first onto map phi of the hom search p -> b, in search
    order, that has a section, together with its lexicographically least
    section: a hom b -> p found by the same search with the images of each v
    restricted to phi's fibre over v."""
    _table_pairs(p, b)  # raises unless p and b share their class and tables
    if b.size > p.size:
        raise ValueError("retract cannot be larger than the algebra")
    iso = isomorphic(p, b)
    if iso is not None:
        return RetractWitness(retraction=iso, injection=iso.inverse())
    for m in _search(p, b):
        if len(set(m)) != b.size:
            continue
        fibres = [[x for x in p.elements if m[x] == v] for v in b.elements]
        section = min(_search(b, p, fibres), default=None)
        if section is not None:
            return RetractWitness(Homomorphism(p, b, m), Homomorphism(b, p, section))
    return None
