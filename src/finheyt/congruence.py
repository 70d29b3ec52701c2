"""Congruence filters, congruences, quotients, products, factor decomposition.

On a finite lattice every h-filter is principal (it is finite, meet-closed and
upward closed, so it is the up-set of the meet of its members); congruence
filters are exactly the up-sets of open elements, and the open elements form a
Boolean algebra whose dual is the congruence lattice.  Everything here is built
from that: the congruence of the up-set of b has the fibres of a -> a & b as its
blocks, the factor complement of the congruence of the up-set of b is the
congruence of the up-set of !b, and the simple factors are the quotients by the
up-sets of the atoms of the open elements.  Without a box table every element
counts as open.  The partition form is kept for the relational factor-pair checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .algebra import FiniteAlgebra, canonical_relabeling, serial_key
from .errors import TheoremViolation
from .morphism import Homomorphism, isomorphic


@dataclass(frozen=True)
class Congruence:
    """Partition of {0..size-1}; blocks sorted by minimum element, elements sorted."""

    blocks: tuple[tuple[int, ...], ...]
    size: int

    def __post_init__(self):
        object.__setattr__(
            self,
            "blocks",
            tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0])),
        )

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.size
        for i, block in enumerate(self.blocks):
            for a in block:
                out[a] = i
        return tuple(out)

    @property
    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    @property
    def is_total(self) -> bool:
        return len(self.blocks) == 1

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def meet(self, other: "Congruence") -> "Congruence":
        keys = {}
        for a in range(self.size):
            keys.setdefault((self.class_of[a], other.class_of[a]), []).append(a)
        return Congruence(tuple(tuple(v) for v in keys.values()), self.size)

    def join(self, other: "Congruence") -> "Congruence":
        parent = list(range(self.size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for blocks in (self.blocks, other.blocks):
            for block in blocks:
                for a in block[1:]:
                    parent[find(a)] = find(block[0])
        groups = {}
        for a in range(self.size):
            groups.setdefault(find(a), []).append(a)
        return Congruence(tuple(tuple(v) for v in groups.values()), self.size)

    def permutes_with(self, other: "Congruence") -> bool:
        n = self.size

        def compose(first, second):
            out = set()
            for a in range(n):
                for b in range(n):
                    if first.related(a, b):
                        for c in range(n):
                            if second.related(b, c):
                                out.add((a, c))
            return out

        return compose(self, other) == compose(other, self)


def _blocks_valid(alg: FiniteAlgebra, blocks) -> str | None:
    seen = [0] * alg.size
    for block in blocks:
        for a in block:
            if not 0 <= a < alg.size:
                return f"element {a} out of range"
            seen[a] += 1
    if any(c != 1 for c in seen):
        return "blocks do not partition the universe"
    return None


def _induced_tables(alg: FiniteAlgebra, theta: Congruence, error) -> dict:
    """Tables induced on the blocks of theta, by field name, in one pass per table;
    raises `error` as soon as a table maps related arguments to unrelated values."""
    cls, k = theta.class_of, len(theta.blocks)
    out = {}
    for name, t in alg.unary_tables().items():
        row = {}
        for a in alg.elements:
            if row.setdefault(cls[a], cls[t[a]]) != cls[t[a]]:
                raise error(f"partition not compatible with {name}")
        out[name] = tuple(row[c] for c in range(k))
    for name, t in alg.binary_tables().items():
        rows = [{} for _ in range(k)]
        for a in alg.elements:
            row, ta = rows[cls[a]], t[a]
            for b in alg.elements:
                if row.setdefault(cls[b], cls[ta[b]]) != cls[ta[b]]:
                    raise error(f"partition not compatible with {name}")
        out[name] = tuple(tuple(row[c] for c in range(k)) for row in rows)
    return out


def congruence_from_blocks(alg: FiniteAlgebra, blocks) -> Congruence:
    """Build a congruence, verifying the partition is compatible with every table."""
    problem = _blocks_valid(alg, blocks)
    if problem:
        raise ValueError(problem)
    theta = Congruence(tuple(tuple(b) for b in blocks), alg.size)
    _induced_tables(alg, theta, ValueError)
    return theta


# -- filters -----------------------------------------------------------------

def is_hfilter(alg: FiniteAlgebra, carrier) -> bool:
    f = frozenset(carrier)
    if alg.top not in f:
        return False
    up = all(b in f for a in f for b in alg.upset[a])
    meets = all(alg.meet[a][b] in f for a in f for b in f)
    return up and meets


def is_congruence_filter(alg: FiniteAlgebra, carrier) -> bool:
    f = frozenset(carrier)
    if not is_hfilter(alg, f):
        return False
    if alg.box is None:
        return True
    return all(alg.box[a] in f for a in f)


def generated_hfilter(alg: FiniteAlgebra, seed) -> frozenset:
    """Least h-filter containing seed: the up-set of the meet of the seed."""
    if not seed:
        return frozenset({alg.top})
    b = reduce(lambda x, y: alg.meet[x][y], seed)
    return frozenset(alg.upset[b])


def generated_congfilter(alg: FiniteAlgebra, seed) -> frozenset:
    """Least congruence filter containing seed, via the boxed-meet description:
    { a : box b0 & ... & box b(k-1) <= a for some bi in seed }."""
    if alg.box is None:
        return generated_hfilter(alg, seed)
    if not seed:
        return frozenset({alg.top})
    b = reduce(lambda x, y: alg.meet[x][y], (alg.box[s] for s in seed))
    return frozenset(alg.upset[b])


def _open_elements(alg: FiniteAlgebra):
    """The b whose up-set is a congruence filter: the open elements, or all without a box."""
    return alg.elements if alg.box is None else sorted(alg.open_set)


def all_congruence_filters(alg: FiniteAlgebra) -> list[frozenset]:
    """Every congruence filter, ascending by size then carrier."""
    out = [frozenset(alg.upset[b]) for b in _open_elements(alg)]
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def principal_generator(alg: FiniteAlgebra, f) -> int:
    """The single generator b with f = { a : box b <= a }; b is the meet of f."""
    b = reduce(lambda x, y: alg.meet[x][y], f)
    bb = b if alg.box is None else alg.box[b]
    if frozenset(alg.upset[bb]) != frozenset(f):
        raise TheoremViolation(f"meet {b} does not box-generate the filter {sorted(f)}")
    return b


def to_congruence(alg: FiniteAlgebra, f) -> Congruence:
    """Congruence of a filter: a ~ c iff (a -> c) & (c -> a) lies in f.  With f the
    up-set of b, that is b <= a <-> c, i.e. a & b = c & b: the blocks are the fibres
    of a -> a & b."""
    if not is_congruence_filter(alg, f):
        raise ValueError(f"{sorted(f)} is not a congruence filter")
    b = reduce(lambda x, y: alg.meet[x][y], f)
    fibres: dict[int, list[int]] = {}
    for a in alg.elements:
        fibres.setdefault(alg.meet[a][b], []).append(a)
    return congruence_from_blocks(alg, list(fibres.values()))


def to_filter(alg: FiniteAlgebra, theta: Congruence) -> frozenset:
    """The block of the top element."""
    return frozenset(theta.blocks[theta.class_of[alg.top]])


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b."""
    return to_congruence(alg, generated_congfilter(alg, (alg.iff(a, b),)))


# -- quotients and products --------------------------------------------------

def quotient(alg: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Block algebra (re-canonicalized) with its projection."""
    prelim = FiniteAlgebra(
        len(theta.blocks), alg.cls,
        name=f"{alg.name}/theta" if alg.name else "",
        **_induced_tables(alg, theta, TheoremViolation),
    )
    perm, canon = canonical_relabeling(prelim)
    proj = Homomorphism(alg, canon, tuple(perm[theta.class_of[a]] for a in alg.elements))
    return canon, proj


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; element (x, y) sits at index x*|b| + y."""
    if a.cls != b.cls:
        raise ValueError(f"class mismatch: {a.cls} vs {b.cls}")
    n, m = a.size, b.size

    def two(ta, tb):
        if ta is None or tb is None:
            return None
        return tuple(
            tuple(ta[x1][x2] * m + tb[y1][y2] for x2 in range(n) for y2 in range(m))
            for x1 in range(n) for y1 in range(m)
        )

    def one(ta, tb):
        if ta is None or tb is None:
            return None
        return tuple(ta[x] * m + tb[y] for x in range(n) for y in range(m))

    return FiniteAlgebra(
        n * m, a.cls,
        meet=two(a.meet, b.meet), join=two(a.join, b.join), impl=two(a.impl, b.impl),
        dimpl=two(a.dimpl, b.dimpl), box=one(a.box, b.box), invol=one(a.invol, b.invol),
        dualneg=one(a.dualneg, b.dualneg),
        name=f"({a.name or 'A'})x({b.name or 'B'})",
    )


@dataclass(frozen=True)
class FactorPair:
    """Complementary permuting congruences with the witness isomorphism onto the product."""

    theta: Congruence
    theta_prime: Congruence
    quotient_a: FiniteAlgebra
    quotient_b: FiniteAlgebra
    proj_a: Homomorphism
    proj_b: Homomorphism
    iso: Homomorphism


def make_factor_pair(alg: FiniteAlgebra, theta: Congruence, theta_prime: Congruence) -> FactorPair:
    qa, pa = quotient(alg, theta)
    qb, pb = quotient(alg, theta_prime)
    prod = product(qa, qb)
    iso = Homomorphism(alg, prod, tuple(pa.map[x] * qb.size + pb.map[x] for x in alg.elements))
    if not (iso.onto and iso.injective):
        raise TheoremViolation("factor map onto the product is not bijective")
    return FactorPair(theta, theta_prime, qa, qb, pa, pb, iso)


def factor_complement(alg: FiniteAlgebra, theta: Congruence) -> FactorPair | None:
    """The complement of a congruence theta of alg: with b the meet of theta's top
    block, the congruence of the up-set of !b.  None when b | !b < 1, which only an
    algebra without a box table allows; then theta has no complement at all."""
    b = reduce(lambda x, y: alg.meet[x][y], to_filter(alg, theta))
    nb = alg.neg[b]
    if alg.join[b][nb] != alg.top:
        return None
    theta_prime = to_congruence(alg, alg.upset[nb])
    if not theta.meet(theta_prime).is_identity:
        raise TheoremViolation(f"congruences of {b} and its complement meet above the identity")
    if not theta.join(theta_prime).is_total:
        raise TheoremViolation(f"congruences of {b} and its complement join below the total")
    if not theta.permutes_with(theta_prime):
        raise TheoremViolation(f"congruences of {b} and its complement do not permute")
    return make_factor_pair(alg, theta, theta_prime)


def decompose_simples(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """One factor A/Con(up-set of e) per atom e of the complemented open elements; each
    is simple (or, without a box table, indecomposable).  A single atom returns the
    input itself.  Verifies that the factors multiply back to the input up to isomorphism."""
    if not alg.nontrivial:
        raise ValueError("decompose_simples needs a nontrivial algebra")
    centre = [e for e in _open_elements(alg) if alg.join[e][alg.neg[e]] == alg.top]
    atoms = [e for e in centre if e != 0 and all(o in (0, e) or not alg.le(o, e) for o in centre)]
    if len(atoms) == 1:
        factors = [alg]
    else:
        factors = sorted(
            (quotient(alg, to_congruence(alg, alg.upset[e]))[0] for e in atoms), key=serial_key
        )
    if isomorphic(reduce(product, factors), alg) is None:
        raise TheoremViolation(f"decomposition of {alg!r} does not multiply back")
    return factors


def boolean_projection(alg: FiniteAlgebra) -> tuple[FiniteAlgebra, Homomorphism]:
    """Quotient by the congruence filter generated by all dense elements."""
    f = generated_congfilter(alg, sorted(alg.dense_set))
    out, proj = quotient(alg, to_congruence(alg, f))
    if not out.boolean_h_reduct:
        raise TheoremViolation(f"Boolean projection of {alg!r} is not Boolean")
    return out, proj
