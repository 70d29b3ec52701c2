"""Homomorphism enumeration, subalgebras, isomorphism testing, retract detection."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import FiniteAlgebra
from .errors import TheoremViolation
from .fixtures import two_element


@dataclass(frozen=True)
class Homomorphism:
    """Total operation-preserving map; preservation is re-verified on construction."""

    dom: FiniteAlgebra
    cod: FiniteAlgebra
    map: tuple[int, ...]
    onto: bool = field(default=False)
    injective: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        _verify_preservation(self.dom, self.cod, self.map)
        image = set(self.map)
        object.__setattr__(self, "onto", len(image) == self.cod.size)
        object.__setattr__(self, "injective", len(image) == self.dom.size)

    def __call__(self, a: int) -> int:
        return self.map[a]

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self o inner (inner applied first)."""
        if inner.cod != self.dom:
            raise ValueError("composition domains do not line up")
        return Homomorphism(inner.dom, self.cod, tuple(self.map[v] for v in inner.map))

    def inverse(self) -> "Homomorphism":
        if not (self.onto and self.injective):
            raise ValueError("only bijections invert")
        inv = [0] * self.cod.size
        for a, b in enumerate(self.map):
            inv[b] = a
        return Homomorphism(self.cod, self.dom, tuple(inv))

    @classmethod
    def identity(cls, alg: FiniteAlgebra) -> "Homomorphism":
        return cls(alg, alg, tuple(alg.elements))


def _verify_preservation(dom: FiniteAlgebra, cod: FiniteAlgebra, m) -> None:
    if dom.cls != cod.cls:
        raise ValueError(f"class mismatch: {dom.cls} vs {cod.cls}")
    if len(m) != dom.size or any(not 0 <= v < cod.size for v in m):
        raise ValueError("map has wrong shape")
    if m[0] != 0 or m[dom.top] != cod.top:
        raise ValueError("map does not preserve the constants")
    for name, ta in dom.binary_tables().items():
        tb = cod.binary_tables().get(name)
        if tb is None:
            raise ValueError(f"codomain lacks table {name}")
        for a in dom.elements:
            for b in dom.elements:
                if m[ta[a][b]] != tb[m[a]][m[b]]:
                    raise ValueError(f"map breaks {name} at ({a},{b})")
    ua, ub = dom.unary_tables(), cod.unary_tables()
    if set(ua) != set(ub):
        raise ValueError(f"derived tables differ: {sorted(ua)} vs {sorted(ub)}")
    for name, ta in ua.items():
        tb = ub[name]
        for a in dom.elements:
            if m[ta[a]] != tb[m[a]]:
                raise ValueError(f"map breaks {name} at {a}")


@dataclass(frozen=True)
class RetractWitness:
    retraction: Homomorphism
    injection: Homomorphism
    composite_is_identity: bool = False

    def __post_init__(self):
        r, j = self.retraction, self.injection
        if j.cod != r.dom or r.cod != j.dom:
            raise ValueError("retraction/injection domains do not line up")
        if not r.onto:
            raise ValueError("retraction must be onto")
        ok = all(r.map[j.map[b]] == b for b in j.dom.elements)
        if not ok:
            raise ValueError("retraction o injection is not the identity")
        object.__setattr__(self, "composite_is_identity", True)


@dataclass(frozen=True)
class HomsResult:
    homs: tuple[Homomorphism, ...] | None
    count: int
    truncated: bool = False


def subalgebra_closure(alg: FiniteAlgebra, seed) -> frozenset:
    """Least subuniverse containing seed; the constants 0 and top are always included."""
    closed = {0, alg.top}
    closed.update(seed)
    unary = list(alg.unary_tables().values())
    binary = list(alg.binary_tables().values())
    frontier = list(closed)
    while frontier:
        produced = set()
        for t in unary:
            produced.update(t[a] for a in closed)
        for t in binary:
            produced.update(t[a][b] for a in closed for b in closed)
        produced -= closed
        closed.update(produced)
        frontier = list(produced)
    return frozenset(closed)


def induced_subalgebra(alg: FiniteAlgebra, carrier) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Restrict to a subuniverse; returns (subalgebra, embedding new->old index)."""
    sub = sorted(carrier)
    if subalgebra_closure(alg, sub) != frozenset(sub):
        raise ValueError("carrier is not closed under the operations")
    pos = {old: new for new, old in enumerate(sub)}

    def two(t):
        return None if t is None else tuple(tuple(pos[t[a][b]] for b in sub) for a in sub)

    def one(t):
        return None if t is None else tuple(pos[t[a]] for a in sub)

    out = FiniteAlgebra(
        len(sub), alg.cls,
        meet=two(alg.meet), join=two(alg.join), impl=two(alg.impl), dimpl=two(alg.dimpl),
        box=one(alg.box), invol=one(alg.invol), dualneg=one(alg.dualneg),
        name=f"{alg.name}|{sub}" if alg.name else "",
    )
    return out, tuple(sub)


def subuniverses(alg: FiniteAlgebra):
    """All subuniverses, ascending by size then carrier (desk-scale: 2^(n-2) candidates)."""
    import itertools

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


def minimal_subalgebras(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """The constant-generated subalgebra, verified minimal and two-element."""
    if not alg.nontrivial:
        raise ValueError("trivial algebra has no minimal subalgebra")
    s0 = subalgebra_closure(alg, ())
    for x in alg.elements:
        if len(subalgebra_closure(alg, (x,))) < len(s0):
            raise TheoremViolation(f"closure({x}) smaller than the constant closure on {alg!r}")
    sub, _ = induced_subalgebra(alg, s0)
    for x in sub.elements:
        if subalgebra_closure(sub, (x,)) != frozenset(sub.elements):
            raise TheoremViolation(f"{sub!r} is not generated by its element {x}")
    if isomorphic(sub, two_element(alg.cls)) is None:
        raise TheoremViolation(f"minimal subalgebra of {alg!r} is not the two-element algebra")
    return [sub]


@lru_cache(maxsize=None)
def generating_set(alg: FiniteAlgebra) -> tuple[int, ...]:
    """Greedy generators: repeatedly add the element whose closure grows most."""
    closed = subalgebra_closure(alg, ())
    gens: list[int] = []
    while len(closed) < alg.size:
        best, best_closure = None, None
        for x in alg.elements:
            if x in closed:
                continue
            cand = subalgebra_closure(alg, closed | {x})
            if best_closure is None or len(cand) > len(best_closure):
                best, best_closure = x, cand
        gens.append(best)
        closed = best_closure
    return tuple(gens)


def _search(dom: FiniteAlgebra, cod: FiniteAlgebra, injective: bool = False):
    """Yield operation-preserving maps dom->cod as tuples, deterministic DFS order.

    Partial maps are extended by closure propagation and pruned on table conflicts.
    """
    if dom.cls != cod.cls:
        raise ValueError(f"class mismatch: {dom.cls} vs {cod.cls}")
    if set(dom.unary_tables()) != set(cod.unary_tables()):
        raise ValueError("derived tables differ between domain and codomain")
    unary = [(t, cod.unary_tables()[n]) for n, t in dom.unary_tables().items()]
    binary = [(t, cod.binary_tables()[n]) for n, t in dom.binary_tables().items()]
    n = dom.size

    def close(m, used, queue):
        # Propagate forced images; used is the codomain fiber-occupancy for injective mode.
        while queue:
            x = queue.pop()
            mx = m[x]
            for ta, tb in unary:
                e, v = ta[x], tb[mx]
                if m[e] == -1:
                    if injective and used[v] not in (-1, e):
                        return False
                    m[e] = v
                    if injective:
                        used[v] = e
                    queue.append(e)
                elif m[e] != v:
                    return False
            for ta, tb in binary:
                row_a, col_a = ta[x], [ta[y][x] for y in range(n)]
                for y in range(n):
                    my = m[y]
                    if my == -1:
                        continue
                    for e, v in ((row_a[y], tb[mx][my]), (col_a[y], tb[my][mx])):
                        if m[e] == -1:
                            if injective and used[v] not in (-1, e):
                                return False
                            m[e] = v
                            if injective:
                                used[v] = e
                            queue.append(e)
                        elif m[e] != v:
                            return False
        return True

    gens = generating_set(dom)
    m0 = [-1] * n
    used0 = [-1] * cod.size
    m0[0] = 0
    used0[0] = 0
    if m0[dom.top] == -1:
        m0[dom.top] = cod.top
        if injective:
            if used0[cod.top] not in (-1, dom.top):
                return
            used0[cod.top] = dom.top
    elif m0[dom.top] != cod.top:
        return
    if not close(m0, used0, [0, dom.top] if dom.top != 0 else [0]):
        return

    def rec(i, m, used):
        if i == len(gens):
            assert all(v != -1 for v in m)
            yield tuple(m)
            return
        g = gens[i]
        if m[g] != -1:
            yield from rec(i + 1, m, used)
            return
        for v in range(cod.size):
            if injective and used[v] != -1:
                continue
            m2 = m.copy()
            used2 = used.copy()
            m2[g] = v
            used2[v] = g
            if close(m2, used2, [g]):
                yield from rec(i + 1, m2, used2)

    yield from rec(0, m0, used0)


def homs(dom: FiniteAlgebra, cod: FiniteAlgebra, mode: str = "any", cap: int | None = None):
    """Homomorphism search.

    mode "any": first witness in search order or None;
    mode "all": HomsResult with lexicographically sorted maps;
    mode "count": HomsResult with the exact count (maps omitted).
    The suffix "_onto" (as in "any_onto") keeps only the maps onto cod.  cap bounds
    the kept maps for all/count and sets `truncated` when more exist.
    """
    kind = mode.removesuffix("_onto")
    if kind not in ("any", "all", "count"):
        raise ValueError(f"unknown mode {mode!r}")
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
    if kind == "count":
        return HomsResult(None, len(maps), truncated)
    maps.sort()
    return HomsResult(tuple(Homomorphism(dom, cod, m) for m in maps), len(maps), truncated)


def isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    """First isomorphism found, with open/dense-count pruning, or None."""
    if a.cls != b.cls or a.size != b.size:
        return None
    if a.open_set is not None and b.open_set is not None and len(a.open_set) != len(b.open_set):
        return None
    if len(a.dense_set) != len(b.dense_set):
        return None
    profile = lambda alg: sorted(
        (len(alg.upset[x]), sum(1 for y in alg.elements if alg.le(y, x))) for x in alg.elements
    )
    if profile(a) != profile(b):
        return None
    for m in _search(a, b, injective=True):
        return Homomorphism(a, b, m)
    return None


def _sections(retract_of, onto_hom):
    """Search injections psi with onto_hom o psi = id, choosing per congruence class."""
    p, b = onto_hom.dom, onto_hom.cod
    fibers = [[x for x in p.elements if onto_hom.map[x] == v] for v in b.elements]
    unary = [(t, p.unary_tables()[n]) for n, t in b.unary_tables().items()]
    binary = [(t, p.binary_tables()[n]) for n, t in b.binary_tables().items()]
    if b.top == 0 and p.top != 0:
        return  # no map into p preserves both constants
    psi = [-1] * b.size
    psi[0] = 0
    psi[b.top] = p.top

    def consistent(v):
        for tb, tp in unary:
            w = tb[v]
            if psi[w] != -1 and psi[w] != tp[psi[v]]:
                return False
        for tb, tp in binary:
            for u in b.elements:
                if psi[u] == -1:
                    continue
                for x, y in ((v, u), (u, v)):
                    w = tb[x][y]
                    if psi[w] != -1 and psi[w] != tp[psi[x]][psi[y]]:
                        return False
        return True

    order = [v for v in b.elements if psi[v] == -1]

    def rec(i):
        if i == len(order):
            yield tuple(psi)
            return
        v = order[i]
        for cand in fibers[v]:
            psi[v] = cand
            if consistent(v):
                yield from rec(i + 1)
            psi[v] = -1

    if 0 in fibers[0] and p.top in fibers[b.top] and consistent(0) and consistent(b.top):
        yield from rec(0)


def is_retract(p: FiniteAlgebra, b: FiniteAlgebra, factor_pair=None) -> RetractWitness | None:
    """Direct retract search; cross-checked against the product construction when
    a FactorPair presenting p as a product is supplied."""
    if p.cls != b.cls:
        raise ValueError(f"class mismatch: {p.cls} vs {b.cls}")
    if b.size > p.size:
        raise ValueError("retract cannot be larger than the algebra")

    witness = None
    iso = isomorphic(p, b)
    if iso is not None:
        witness = RetractWitness(retraction=iso, injection=iso.inverse())
    else:
        for m in _search(p, b):
            if len(set(m)) != b.size:
                continue
            phi = Homomorphism(p, b, m)
            for sec in _sections(b, phi):
                psi = Homomorphism(b, p, sec)
                witness = RetractWitness(retraction=phi, injection=psi)
                break
            if witness is not None:
                break

    if factor_pair is not None:
        applicable, other = _retract_via_factor_pair(p, b, factor_pair)
        if applicable and (other is None) != (witness is None):
            raise TheoremViolation(
                f"direct retract search ({witness is not None}) disagrees with the "
                f"product-construction route ({other is not None}) for {b!r} in {p!r}"
            )
    return witness


def _retract_via_factor_pair(p, b, fp) -> tuple[bool, RetractWitness | None]:
    """Retract witness per the product theorem construction psi(x) = (x, chi(x)).

    Returns (applicable, witness): applicable is False when b is isomorphic to
    neither quotient, in which case the theorem route says nothing.
    """
    pairs = [(fp.quotient_a, fp.quotient_b, True), (fp.quotient_b, fp.quotient_a, False)]
    verdicts = []
    witness = None
    for mine, other, first in pairs:
        sigma = isomorphic(b, mine)
        if sigma is None:
            continue
        chi = homs(mine, other, "any")
        verdicts.append(chi is not None)
        if chi is None or witness is not None:
            continue
        h = fp.iso  # p -> product(quotient_a, quotient_b)
        hinv = h.inverse()
        nb = fp.quotient_b.size
        if first:
            pair_index = lambda x: sigma.map[x] * nb + chi.map[sigma.map[x]]
            coord = lambda q: q // nb
        else:
            pair_index = lambda x: chi.map[sigma.map[x]] * nb + sigma.map[x]
            coord = lambda q: q % nb
        injection = Homomorphism(b, p, tuple(hinv.map[pair_index(x)] for x in b.elements))
        sigma_inv = sigma.inverse()
        retraction = Homomorphism(p, b, tuple(sigma_inv.map[coord(h.map[x])] for x in p.elements))
        witness = RetractWitness(retraction=retraction, injection=injection)
    if not verdicts:
        return False, None
    if witness is None and any(verdicts):
        raise TheoremViolation("hom exists but the product construction built no witness")
    if len(set(verdicts)) > 1:
        raise TheoremViolation("the two product orientations disagree about retractness")
    return True, witness
