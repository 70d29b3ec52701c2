"""Congruence filters, congruences, quotients, products, factor decomposition.

On a finite lattice every h-filter is the up-set of its meet, so the filter
predicates read a filter through its meet; congruence filters are exactly the
up-sets of open elements, and the open elements form a Boolean algebra whose
dual is the congruence lattice.  Every congruence is built from its open
generator b by one constructor, _congruence_of: its blocks are the fibres of
a -> a & b, and they form a congruence exactly when the class map is a
homomorphism onto the block algebra they induce, checked row by row as every
Homomorphism is; a bounded cache keeps both per (algebra, generator).  A
partition from a caller is read through the meet of its top block, and one
whose class map breaks an operation is a caller's error.  The factor
complement of the congruence of the up-set of b is that of the up-set of !b,
and the simple factors are the quotients by the up-sets of the atoms of the
open elements.  Both are checked by one product check, _multiplied: the
projections must multiply back to a bijection onto the product of the
quotients.  Without a box table every element counts as open.

A Congruence meets, joins and permutes on block labels.  The meet is the
identity when the elements' pairs of labels are distinct and otherwise groups
the elements on their pair; the join and the permutability test share one
merge of the first partition's label lists, and a join of one block is the
total.  A factor pair always meets to the identity and joins to the total, so
those two are built once per size and shared.  Two partitions permute exactly
when their composite is their join, i.e. when within each join block every
block of one meets every block of the other, which is a count of the block
pairs that meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain

from .algebra import (TABLES, FiniteAlgebra, _in_universe, canonical_relabeling, relabeled_tables,
                      serial_key)
from .errors import TheoremViolation
from .morphism import Homomorphism, _table_pairs, _unpreserved


@dataclass(frozen=True)
class Congruence:
    """Partition of {0..size-1}; blocks sorted by minimum element, elements sorted."""

    blocks: tuple[tuple[int, ...], ...]
    size: int

    def __post_init__(self):
        # disjoint blocks sort as their least elements do
        blocks = tuple(sorted(map(tuple, map(sorted, self.blocks))))
        if sorted(chain.from_iterable(blocks)) != list(range(self.size)):
            raise ValueError(f"blocks {blocks} do not partition 0..{self.size - 1}")
        object.__setattr__(self, "blocks", blocks)

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

    def _same_size(self, other: "Congruence") -> None:
        if other.size != self.size:
            raise ValueError(f"partitions of {self.size} and {other.size} elements")

    def _merged(self, other: "Congruence") -> list[list[int]]:
        """Per self-block label, the labels of its join block in one list that they
        share: each other-block merges the lists it meets, the shorter into the longer."""
        self._same_size(other)
        cls = self.class_of
        merged = [[i] for i in range(len(self.blocks))]
        for block in other.blocks:
            into = merged[cls[block[0]]]
            for a in block[1:]:
                part = merged[cls[a]]
                if part is not into:
                    if len(part) > len(into):
                        into, part = part, into
                    into += part
                    for i in part:
                        merged[i] = into
        return merged

    def meet(self, other: "Congruence") -> "Congruence":
        self._same_size(other)
        pairs = list(zip(self.class_of, other.class_of))
        if len(set(pairs)) == self.size:
            return _extremes(self.size)[0]
        groups = {}
        for a, key in enumerate(pairs):
            groups.setdefault(key, []).append(a)
        return Congruence(tuple(map(tuple, groups.values())), self.size)

    def join(self, other: "Congruence") -> "Congruence":
        groups = {}
        for labels, block in zip(self._merged(other), self.blocks):
            groups.setdefault(labels[0], []).extend(block)
        if len(groups) == 1:
            return _extremes(self.size)[1]
        return Congruence(tuple(map(tuple, groups.values())), self.size)

    def permutes_with(self, other: "Congruence") -> bool:
        """Whether the block pairs that meet number the self-blocks of each other-block's
        join block, summed over the other-blocks (see the module docstring)."""
        merged, cls = self._merged(other), self.class_of
        pairs = len(set(zip(cls, other.class_of)))
        return pairs == sum(len(merged[cls[block[0]]]) for block in other.blocks)


@lru_cache(maxsize=64)
def _extremes(size: int) -> tuple[Congruence, Congruence]:
    """The identity and the total congruence of size elements, built once."""
    return Congruence(tuple(zip(range(size))), size), Congruence((tuple(range(size)),), size)


# -- filters -----------------------------------------------------------------

def _meet_of(alg: FiniteAlgebra, elements) -> int:
    """The meet of elements; the top for none."""
    return reduce(lambda x, y: alg.meet[x][y], elements, alg.top)


def _box(alg: FiniteAlgebra):
    """The box table; the identity without one, so that every element counts as open."""
    return alg.elements if alg.box is None else alg.box


def is_hfilter(alg: FiniteAlgebra, carrier) -> bool:
    """Whether carrier is an h-filter, i.e. the up-set of its meet; ValueError if it
    leaves the universe."""
    f = frozenset(_in_universe(alg, carrier))
    return f == frozenset(alg.upset[_meet_of(alg, f)])


def is_congruence_filter(alg: FiniteAlgebra, carrier) -> bool:
    """Whether carrier is a congruence filter, i.e. an h-filter with an open meet."""
    f = frozenset(carrier)
    if not is_hfilter(alg, f):
        return False
    b = _meet_of(alg, f)
    return _box(alg)[b] == b


def generated_hfilter(alg: FiniteAlgebra, seed) -> frozenset:
    """Least h-filter containing seed: the up-set of the meet of the seed."""
    return frozenset(alg.upset[_meet_of(alg, _in_universe(alg, seed))])


def generated_congfilter(alg: FiniteAlgebra, seed) -> frozenset:
    """Least congruence filter containing seed, via the boxed-meet description:
    { a : box b0 & ... & box b(k-1) <= a for some bi in seed }."""
    box = _box(alg)
    return generated_hfilter(alg, [box[s] for s in _in_universe(alg, seed)])


def _open_elements(alg: FiniteAlgebra):
    """The b whose up-set is a congruence filter: the open elements, or all without a box."""
    return alg.elements if alg.box is None else sorted(alg.open_set)


def all_congruence_filters(alg: FiniteAlgebra) -> list[frozenset]:
    """Every congruence filter, ascending by size then carrier."""
    out = [frozenset(alg.upset[b]) for b in _open_elements(alg)]
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def principal_generator(alg: FiniteAlgebra, f) -> int:
    """The single generator b with f = { a : box b <= a }; b is the meet of f."""
    f = _in_universe(alg, f)
    b = _meet_of(alg, f)
    if frozenset(alg.upset[_box(alg)[b]]) != frozenset(f):
        raise TheoremViolation(f"meet {b} does not box-generate the filter {sorted(f)}")
    return b


def _block_algebra(alg: FiniteAlgebra, theta: Congruence) -> FiniteAlgebra:
    """The unnamed algebra the blocks of theta induce, read off the least element of each."""
    tables = relabeled_tables(alg, [block[0] for block in theta.blocks], theta.class_of, TABLES)
    return FiniteAlgebra(len(theta.blocks), alg.cls, **dict(zip(TABLES, tables)))


@lru_cache(maxsize=256)
def _congruence_of(alg: FiniteAlgebra, b: int) -> tuple[Congruence, FiniteAlgebra]:
    """Congruence of the up-set of the open element b, with the unnamed algebra its
    blocks induce, read off the least element of each.  a ~ c iff b <= a <-> c, i.e.
    a & b = c & b, so the blocks are the fibres of a -> a & b; TheoremViolation naming
    the first table, unary ones first, at which the class map is no homomorphism onto
    the block algebra.  Cached per (algebra, generator); a violation is not cached."""
    fibres: dict[int, list[int]] = {}
    for a in alg.elements:
        fibres.setdefault(alg.meet[a][b], []).append(a)
    theta = Congruence(tuple(map(tuple, fibres.values())), alg.size)
    blocks = _block_algebra(alg, theta)
    if broken := _unpreserved(theta.class_of, *_table_pairs(alg, blocks)):
        raise TheoremViolation(f"partition not compatible with {broken[0]}")
    return theta, blocks


def to_congruence(alg: FiniteAlgebra, f) -> Congruence:
    """Congruence of the congruence filter f: that of the up-set of its meet."""
    if not is_congruence_filter(alg, f):
        raise ValueError(f"{sorted(f)} is not a congruence filter")
    return _congruence_of(alg, _meet_of(alg, f))[0]


def to_filter(alg: FiniteAlgebra, theta: Congruence) -> frozenset:
    """The block of the top element."""
    return frozenset(theta.blocks[theta.class_of[alg.top]])


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b: that of the up-set of box(a <-> b)."""
    _in_universe(alg, (a, b))
    return _congruence_of(alg, _box(alg)[alg.iff(a, b)])[0]


# -- quotients and products --------------------------------------------------

def _checked(alg: FiniteAlgebra, theta: Congruence) -> tuple[int, FiniteAlgebra]:
    """(b, block algebra) of _congruence_of(alg, b), b the meet of theta's top block.
    ValueError for a partition of another size or one whose class map breaks an
    operation; TheoremViolation for a congruence that _congruence_of(alg, b) misses."""
    if theta.size != alg.size:
        raise ValueError(f"a partition of {theta.size} elements for an algebra of {alg.size}")
    b = _meet_of(alg, to_filter(alg, theta))
    if _box(alg)[b] == b:
        congruence, blocks = _congruence_of(alg, b)
        if congruence == theta:
            return b, blocks
    if broken := _unpreserved(theta.class_of, *_table_pairs(alg, _block_algebra(alg, theta))):
        raise ValueError("{} is not a congruence: it breaks {} at {}".format(theta.blocks, *broken))
    raise TheoremViolation(f"{theta.blocks} is not the congruence of the up-set of {b}")


def quotient(alg: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Block algebra (re-canonicalized) with its projection, theta checked by _checked."""
    blocks = _checked(alg, theta)[1].rename(f"{alg.name}/theta" if alg.name else "")
    perm, canon = canonical_relabeling(blocks)
    proj = Homomorphism(alg, canon, tuple(perm[theta.class_of[a]] for a in alg.elements))
    return canon, proj


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; element (x, y) sits at index x*|b| + y.  The factors
    must share their class and their tables (ValueError otherwise); each table is
    built a row at a time."""
    unary, binary = _table_pairs(a, b)
    m = b.size
    tables = {name: tuple(x * m + y for x in ta for y in tb) for name, (ta, tb) in unary}
    for name, (ta, tb) in binary:
        tables[name] = tuple(tuple(x * m + y for x in ra for y in rb) for ra in ta for rb in tb)
    return FiniteAlgebra(a.size * m, a.cls, name=f"({a.name or 'A'})x({b.name or 'B'})", **tables)


def _multiplied(alg: FiniteAlgebra, parts) -> Homomorphism:
    """The map x -> (proj(x)) over the (factor, projection) pairs in order, onto the
    product of the factors (mixed radix, as `product` indexes it); TheoremViolation
    unless it is a bijection."""
    index = [0] * alg.size
    for f, proj in parts:
        index = [i * f.size + proj.map[x] for x, i in enumerate(index)]
    h = Homomorphism(alg, reduce(product, (f for f, _ in parts)), index)
    if not (h.onto and h.injective):
        raise TheoremViolation(f"the projections of {alg!r} do not multiply back")
    return h


@dataclass(frozen=True)
class FactorPair:
    """Complementary permuting congruences with the witness isomorphism onto the product."""

    theta: Congruence
    theta_prime: Congruence
    quotient_a: FiniteAlgebra
    quotient_b: FiniteAlgebra
    iso: Homomorphism


def factor_complement(alg: FiniteAlgebra, theta: Congruence) -> FactorPair | None:
    """The complement of a congruence theta of alg, checked by _checked: with b the
    meet of theta's top block, that of the up-set of !b.  None when b | !b < 1, which
    only an algebra without a box table allows; then theta has no complement at all."""
    b = _checked(alg, theta)[0]
    nb = alg.neg[b]
    if alg.join[b][nb] != alg.top:
        return None
    theta_prime = _congruence_of(alg, nb)[0]
    if not theta.meet(theta_prime).is_identity:
        raise TheoremViolation(f"congruences of {b} and its complement meet above the identity")
    if not theta.join(theta_prime).is_total:
        raise TheoremViolation(f"congruences of {b} and its complement join below the total")
    if not theta.permutes_with(theta_prime):
        raise TheoremViolation(f"congruences of {b} and its complement do not permute")
    qa, qb = quotient(alg, theta), quotient(alg, theta_prime)
    return FactorPair(theta, theta_prime, qa[0], qb[0], _multiplied(alg, [qa, qb]))


def decompose_simples(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """One factor A/Con(up-set of e) per atom e of the complemented open elements; each
    is simple (or, without a box table, indecomposable).  A single atom returns the
    input itself.  The factors, in serial-key order, must multiply back
    (_multiplied)."""
    if not alg.nontrivial:
        raise ValueError("decompose_simples needs a nontrivial algebra")
    centre = [e for e in _open_elements(alg) if alg.join[e][alg.neg[e]] == alg.top]
    atoms = [e for e in centre if e != 0 and all(o in (0, e) or not alg.le(o, e) for o in centre)]
    if len(atoms) == 1:
        return [alg]
    parts = sorted(
        (quotient(alg, _congruence_of(alg, e)[0]) for e in atoms),
        key=lambda part: serial_key(part[0]),
    )
    _multiplied(alg, parts)
    return [f for f, _ in parts]


def boolean_projection(alg: FiniteAlgebra) -> tuple[FiniteAlgebra, Homomorphism]:
    """Quotient by the congruence filter generated by all dense elements: the up-set
    of the meet of their boxes."""
    box = _box(alg)
    b = _meet_of(alg, (box[d] for d in alg.dense_set))
    out, proj = quotient(alg, _congruence_of(alg, b)[0])
    if not out.boolean_h_reduct:
        raise TheoremViolation(f"Boolean projection of {alg!r} is not Boolean")
    return out, proj
