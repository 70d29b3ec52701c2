"""Finite algebras on {0..n-1}: tables, validation, derived operations, canonical form.

Conventions: index 0 is the bottom element and index size-1 the top; catalog
algebras additionally keep indices compatible with a linear extension of the
lattice order (see canonical_form).

The canonical form of an algebra is its relabeling with the least serial_key
over all relabelings by linear extensions of the lattice order.
canonical_relabeling finds it by branch and bound on the relabeled meet table
rather than by enumerating the extensions, of which the 16-element Boolean
lattice alone has 1,680,384.

This module owns the table schema: TABLES names every table an algebra may
carry, in the order of the file format and of serial_key, BINARY says which of
them take two arguments, and check_structure says which a class carries.  Code
that handles every table (file formats, products, subalgebras, quotients,
homomorphisms) iterates TABLES or FiniteAlgebra.tables() instead of naming them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    InvalidAlgebraError,
    MalformedAlgebraError,
    TermEvalError,
)

KINDS = ("heyting", "ws5", "hri", "hdp", "dht")
LEVELED = ("hdp", "dht")


@dataclass(frozen=True)
class VarietyClass:
    """Algebra class tag; level is the stabilization degree for hdp/dht."""

    kind: str
    level: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind in LEVELED:
            if self.level is None or self.level < 1:
                raise ValueError(f"class {self.kind} needs a level >= 1")
        elif self.level is not None:
            raise ValueError(f"class {self.kind} takes no level")

    @classmethod
    def parse(cls, text: str) -> "VarietyClass":
        if ":" in text:
            kind, _, lvl = text.partition(":")
            return cls(kind, int(lvl))
        return cls(text)

    def __str__(self) -> str:
        return self.kind if self.level is None else f"{self.kind}:{self.level}"


# Every table, in file and serial_key order: the Heyting tables, then the
# optional ones of the discriminator classes.
TABLES = ("meet", "join", "impl", "box", "invol", "dualneg", "dimpl")
BINARY = frozenset({"meet", "join", "impl", "dimpl"})


def _tup2(rows):
    return None if rows is None else tuple(tuple(r) for r in rows)


def _tup1(row):
    return None if row is None else tuple(row)


@dataclass(frozen=True)
class FiniteAlgebra:
    """Operation tables over {0..size-1}; binary tables are row-major, row = left argument."""

    size: int
    cls: VarietyClass
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    impl: tuple[tuple[int, ...], ...]
    box: tuple[int, ...] | None = None
    invol: tuple[int, ...] | None = None
    dualneg: tuple[int, ...] | None = None
    dimpl: tuple[tuple[int, ...], ...] | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for name in TABLES:
            tup = _tup2 if name in BINARY else _tup1
            object.__setattr__(self, name, tup(getattr(self, name)))

    @property
    def top(self) -> int:
        return self.size - 1

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def nontrivial(self) -> bool:
        return self.size > 1

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    @cached_property
    def neg(self) -> tuple[int, ...]:
        return tuple(self.impl[a][0] for a in self.elements)

    def iff(self, a: int, b: int) -> int:
        return self.meet[self.impl[a][b]][self.impl[b][a]]

    @cached_property
    def upset(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b for b in self.elements if self.le(a, b)) for a in self.elements)

    @cached_property
    def open_set(self) -> frozenset | None:
        if self.box is None:
            return None
        return frozenset(a for a in self.elements if self.box[a] == a)

    @cached_property
    def dense_set(self) -> frozenset:
        return frozenset(a for a in self.elements if self.neg[a] == 0)

    @cached_property
    def regular_set(self) -> frozenset:
        return frozenset(a for a in self.elements if self.neg[self.neg[a]] == a)

    @cached_property
    def boolean_h_reduct(self) -> bool:
        return all(self.join[a][self.neg[a]] == self.top for a in self.elements)

    @cached_property
    def _present(self) -> tuple:
        """Read-only views of the present tables by name, in TABLES order: all,
        unary, binary."""
        every, unary, binary = {}, {}, {}
        for name in TABLES:
            t = getattr(self, name)
            if t is not None:
                every[name] = t
                (binary if name in BINARY else unary)[name] = t
        return MappingProxyType(every), MappingProxyType(unary), MappingProxyType(binary)

    def tables(self) -> MappingProxyType:
        """The tables present, by name, in TABLES order."""
        return self._present[0]

    def unary_tables(self) -> MappingProxyType:
        return self._present[1]

    def binary_tables(self) -> MappingProxyType:
        return self._present[2]

    def rename(self, name: str) -> "FiniteAlgebra":
        return replace(self, name=name)

    def __hash__(self):  # cached: algebras key caches, and each hash reads every table
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(serial_key(self)))
        return self._hash

    def __repr__(self):
        tag = self.name or f"{self.cls}/{self.size}"
        return f"FiniteAlgebra<{tag}>"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ElementProfile:
    """Element classification; open is None when the algebra carries no box table."""

    open: frozenset | None
    dense: frozenset
    regular: frozenset
    boolean_h_reduct: bool
    simple: bool


def check_structure(alg: FiniteAlgebra) -> None:
    """Raise MalformedAlgebraError on shape/range defects or tables foreign to the class."""
    n = alg.size
    if n < 1:
        raise MalformedAlgebraError(f"size must be >= 1, got {n}")

    def chk1(name, row):
        if len(row) != n:
            raise MalformedAlgebraError(f"{name}: expected {n} entries, got {len(row)}")
        for i, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:  # as fits: a bool is no cell
                raise MalformedAlgebraError(f"{name}[{i}] = {v!r} out of range 0..{n - 1}")

    def chk2(name, rows):
        if len(rows) != n:
            raise MalformedAlgebraError(f"{name}: expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            chk1(f"{name}[{i}]", row)

    def fits(t, binary):
        """Whether t is a well-formed table, decided in C; chk1 and chk2 say why not."""
        cells = list(chain.from_iterable(t)) if binary else t
        return (len(t) == n and (not binary or set(map(len, t)) == {n})
                and set(map(type, cells)) <= {int} and set(cells) <= set(range(n)))

    # Besides the Heyting tables a class may carry the tables it lists here,
    # and needs the last, from which derive_operations fills the others: box
    # for hri and hdp, box and dualneg for dht.
    extra = {
        "heyting": (),
        "ws5": ("box",),
        "hri": ("box", "invol"),
        "hdp": ("box", "dualneg"),
        "dht": ("box", "dualneg", "dimpl"),
    }[alg.cls.kind]
    allowed, required = TABLES[:3] + extra, TABLES[:3] + extra[-1:]
    for name in TABLES:
        t = getattr(alg, name)
        if t is None:
            if name in required:
                raise MalformedAlgebraError(f"class {alg.cls} requires table {name}")
        elif name not in allowed:
            raise MalformedAlgebraError(f"table {name} not part of class {alg.cls}")
        elif not fits(t, name in BINARY):
            (chk2 if name in BINARY else chk1)(name, t)


def _boxdot_powers(alg: FiniteAlgebra, dualneg) -> list[tuple[int, ...]]:
    """boxdot^0, boxdot^1, ... (boxdot = neg . dualneg) up to the first power equal to
    the one before it, or to boxdot^(size+1) if boxdot never settles: the orbit of a
    shows all its members within size steps, so no later power adds to a meet."""
    bd = tuple(alg.neg[d] for d in dualneg)
    p = [tuple(alg.elements)]
    for _ in range(alg.size + 1):
        p.append(tuple(bd[c] for c in p[-1]))
        if p[-1] == p[-2]:
            break
    return p


def derived_box_hdp(alg: FiniteAlgebra, dualneg, level: int) -> tuple[int, ...]:
    """box a = meet of boxdot^i a for i = 0..level, boxdot = neg . dualneg: the meet
    down each column of the powers to level that _boxdot_powers lists."""
    meet = alg.meet
    return tuple(reduce(lambda x, y: meet[x][y], col)
                 for col in zip(*_boxdot_powers(alg, dualneg)[:level + 1]))


def derived_dualneg_dht(alg: FiniteAlgebra) -> tuple[int, ...]:
    return tuple(alg.dimpl[alg.top][a] for a in alg.elements)


def inferred_level(alg: FiniteAlgebra) -> int | None:
    """Least k >= 0 with boxdot^(k+1) = boxdot^k, or None if boxdot cycles."""
    dualneg = alg.dualneg if alg.dualneg is not None else derived_dualneg_dht(alg)
    p = _boxdot_powers(alg, dualneg)
    return len(p) - 2 if p[-1] == p[-2] else None


# _IS[x] is the translate table sending x to 1 and every other byte to 0
_IS = [bytes(x) + b"\1" + bytes(255 - x) for x in range(256)]


def validate(alg: FiniteAlgebra) -> ValidationReport:
    """Check structure, then lattice, residuation and class axioms; collect every
    violation."""
    check_structure(alg)
    return _axioms(alg)


def _axioms(alg: FiniteAlgebra) -> ValidationReport:
    """The axiom pass of validate, on an algebra whose structure is checked.

    Each identity in two or three variables is stated once, as its two sides
    over its cells in row-major order: all (a, b) at once, and (a, b, c) a
    chunk of rows a at a time, about 64 KB of the three-variable table.  A
    side like (a, b, c) -> a & (b & c) is one translate of the flat meet table
    per a, and (a, b, c) -> (a & b) & c a gather of meet rows through the flat
    meet table.  differ compares the two sides; where they differ, it finds the
    runs of n cells that differ, then the cells in them.  report sorts each
    section's violations into the order of the plain nested loops over a, b
    and c (kept in tests/test_algebra.py as the oracle): by cell, a tuple
    sorting before its extensions, so (a,) comes before (a, b) and (a, b)
    before (a, b, c).  The sort is stable, so violations at one cell keep the
    order in which their identities are stated here.  Up to 256 elements the
    sides are bytes and a map is a 256-byte translate table; above, they are
    tuples and a map is applied by itemgetter.  Checks on one element are
    plain loops.
    """
    n, top = alg.size, alg.top
    meet, join, impl = alg.meet, alg.join, alg.impl
    bad = []

    # A sequence x + pad is a map: tr(s, x + pad) is [x[i] for i in s].
    if n <= 256:  # every label fits in a byte
        seq, cat, tr, pad, IS = bytes, b"".join, bytes.translate, bytes(256 - n), _IS
    else:
        seq, pad = tuple, ()
        IS = [tuple([int(y == x) for y in range(n)]) for x in range(n)]

        def cat(parts):
            return tuple(chain.from_iterable(parts))

        def tr(s, t):
            return itemgetter(*s)(t)

    M, J = [seq(r) for r in meet], [seq(r) for r in join]
    Mt, Jt = [r + pad for r in M], [r + pad for r in J]
    FM, FJ, FI = cat(M), cat(J), cat(map(seq, impl))
    leq = [tr(M[x], IS[x]) for x in range(n)]  # leq[x][y] = 1 when x <= y
    leqt = [r + pad for r in leq]
    step = max(1, (1 << 16) // (n * n))  # rows of about 64 KB of a three-variable table
    chunks = [range(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def differ(name, lhs, rhs, lo=None):
        """(name, cell) for each cell where the sides differ: the cells (a, b) of
        the n x n table, or with lo the cells (a, b, c) of the rows a from lo."""
        if lhs == rhs:
            return []
        out, first = [], 0 if lo is None else lo * n
        for s in range(0, len(lhs), n):
            if lhs[s:s + n] != rhs[s:s + n]:
                q = first + s // n
                head = (q,) if lo is None else divmod(q, n)
                out += [(name, (*head, c)) for c in range(n) if lhs[s + c] != rhs[s + c]]
        return out

    def report(found):
        bad.extend(sorted(found, key=itemgetter(1)))

    found = []
    for a in range(n):
        if meet[a][a] != a:
            found.append(("meet-idempotent", (a,)))
        if join[a][a] != a:
            found.append(("join-idempotent", (a,)))
        if meet[0][a] != 0:
            found.append(("bottom-least", (a,)))
        if join[a][top] != top:
            found.append(("top-greatest", (a,)))
    A = cat([seq((a,)) * n for a in range(n)])  # a over every (a, b)
    found += differ("meet-commutative", FM, cat([FM[a::n] for a in range(n)]))
    found += differ("join-commutative", FJ, cat([FJ[a::n] for a in range(n)]))
    found += differ("absorption-meet-join", cat(map(tr, J, Mt)), A)
    found += differ("absorption-join-meet", cat(map(tr, M, Jt)), A)
    for rows in chunks:
        lo = rows.start
        fm, fj = FM[lo * n:rows.stop * n], FJ[lo * n:rows.stop * n]
        found += differ("meet-associative", cat(map(M.__getitem__, fm)),
                        cat([tr(FM, Mt[a]) for a in rows]), lo)
        found += differ("join-associative", cat(map(J.__getitem__, fj)),
                        cat([tr(FJ, Jt[a]) for a in rows]), lo)
        found += differ("distributive", cat([tr(FJ, Mt[a]) for a in rows]),
                        cat([tr(M[a], Jt[x]) for a in rows for x in M[a]]), lo)
        found += differ("residuation", cat(map(leq.__getitem__, fm)),
                        cat([tr(FI, leqt[a]) for a in rows]), lo)
    report(found)

    kind, level = alg.cls.kind, alg.cls.level

    if alg.invol is not None:
        inv, neg = alg.invol, alg.neg
        found = []
        for a in range(n):
            if inv[inv[a]] != a:
                found.append(("invol-involutive", (a,)))
            if inv[neg[a]] != neg[neg[a]]:
                found.append(("invol-regular", (a,)))
        INV = seq(inv)
        found += differ("invol-de-morgan", tr(FJ, INV + pad), cat([tr(INV, Mt[x]) for x in inv]))
        report(found)
        if alg.box is not None:
            for a in range(n):
                if alg.box[a] != neg[inv[a]]:
                    bad.append(("box-consistent", (a,)))

    dualneg = alg.dualneg
    if kind == "dht":
        FD, found = cat(map(seq, alg.dimpl)), []
        for rows in chunks:  # rows of c, taken in (c, a, b) order
            lo = rows.start
            found += differ("dual-residuation", cat([tr(FJ, leqt[c]) for c in rows]),
                            cat(map(leq.__getitem__, FD[lo * n:rows.stop * n])), lo)
        report([(name, (a, b, c)) for name, (c, a, b) in found])
        derived_dn = derived_dualneg_dht(alg)
        if dualneg is not None:
            for a in range(n):
                if dualneg[a] != derived_dn[a]:
                    bad.append(("dualneg-consistent", (a,)))
        dualneg = derived_dn

    if dualneg is not None:
        report(differ("dual-pseudocomplement", tr(FJ, IS[top]), cat([leq[x] for x in dualneg])))
        if kind in LEVELED:
            # The images of boxdot^k stop shrinking within n steps; from there
            # boxdot permutes its image and each a stays fixed or moves for
            # every k, so a level past the powers listed reports their last pair.
            p = _boxdot_powers(alg, dualneg)
            k = min(level, len(p) - 2)
            for a in range(n):
                if p[k][a] != p[k + 1][a]:
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
        B, found = seq(box), []
        Bt = B + pad
        for a in range(n):
            if meet[box[a]][a] != box[a]:  # box[a] <= a
                found.append(("box-decreasing", (a,)))
            if box[box[a]] != box[a]:
                found.append(("box-idempotent", (a,)))
        found += differ("box-meet", tr(FM, Bt), cat([tr(B, Mt[x]) for x in box]))
        found += differ("box-join-open", tr(cat([tr(B, t) for t in Jt]), Bt),
                        cat([tr(B, Jt[x]) for x in box]))
        report(found)
        opens = [a for a in range(n) if box[a] == a]
        for a in opens:
            if not any(meet[a][g] == 0 and join[a][g] == top for g in opens):
                bad.append(("open-elements-boolean", (a,)))

    return ValidationReport(tuple(bad))


def derive_operations(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Fill in the derived tables alg lacks (box for hri, hdp and dht; dualneg for
    dht) and validate the result.

    Structure is checked before anything is derived.  Present tables are kept, so
    one that disagrees with its derivation is an axiom violation (box-consistent,
    dualneg-consistent) and raises InvalidAlgebraError.  Idempotent.
    """
    check_structure(alg)
    kind, fill = alg.cls.kind, {}
    if kind == "dht" and alg.dualneg is None:
        fill["dualneg"] = derived_dualneg_dht(alg)
    if alg.box is None and kind == "hri":
        fill["box"] = tuple(alg.neg[alg.invol[a]] for a in alg.elements)
    elif alg.box is None and kind in LEVELED:
        fill["box"] = derived_box_hdp(alg, fill.get("dualneg", alg.dualneg), alg.cls.level)
    out = replace(alg, **fill) if fill else alg
    report = _axioms(out)
    if not report.valid:
        raise InvalidAlgebraError(report)
    return out


def element_profile(alg: FiniteAlgebra) -> ElementProfile:
    """Classify elements.  The congruence filters are the up-sets of the open
    elements, so `simple` (exactly two congruence filters) means exactly two open
    elements: two elements, without a box table, where every element counts as open."""
    opens = alg.open_set
    return ElementProfile(
        open=opens,
        dense=alg.dense_set,
        regular=alg.regular_set,
        boolean_h_reduct=alg.boolean_h_reduct,
        simple=len(alg.elements if opens is None else opens) == 2,
    )


def _in_universe(alg: FiniteAlgebra, elements) -> tuple:
    """The elements as a tuple; ValueError naming those that are bools or lie outside
    0..size-1, which indexing would read as other elements or miss."""
    elements = tuple(elements)
    if outside := [a for a in elements if a.__class__ is bool or not 0 <= a < alg.size]:
        raise ValueError(f"elements {sorted(outside)} outside 0..{alg.size - 1}")
    return elements


def discriminator_eval(alg: FiniteAlgebra, a: int, b: int, c: int) -> int:
    """t(a,b,c) = (box(a<->b) & c) | (!box(a<->b) & a); ValueError for an element
    outside the universe."""
    if alg.box is None:
        raise TermEvalError(f"class {alg.cls} carries no box table; run derive_operations")
    _in_universe(alg, (a, b, c))
    e = alg.box[alg.iff(a, b)]
    return alg.join[alg.meet[e][c]][alg.meet[alg.neg[e]][a]]


# -- canonical form ----------------------------------------------------------

_TAIL = TABLES[3:]  # what serial_key compares after impl, in its order


def relabeled_tables(alg: FiniteAlgebra, old, new, names) -> tuple:
    """The named tables of alg on the elements old (new index -> old element),
    each value x read as new[x]; None where alg has none.

    new maps at least the elements of old and their values to new indices: a
    relabeling passes the inverse of its old->new permutation and the
    permutation, a subalgebra its sorted carrier and the positions in it.
    """
    def one(t):
        return tuple([new[t[i]] for i in old])

    out = []
    for name in names:
        t = getattr(alg, name)
        if t is not None:
            t = tuple(one(t[i]) for i in old) if name in BINARY else one(t)
        out.append(t)
    return tuple(out)


def _inverse(perm) -> list[int]:
    """The new->old list of an old->new permutation."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def relabel(alg: FiniteAlgebra, perm) -> FiniteAlgebra:
    """Apply old->new index permutation to every table; ValueError for any other map."""
    if sorted(perm) != list(alg.elements):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{alg.size - 1}")
    return replace(alg, **dict(zip(TABLES, relabeled_tables(alg, _inverse(perm), perm, TABLES))))


def serial_key(alg: FiniteAlgebra):
    return (alg.size, alg.cls.kind, alg.cls.level or 0,
            *(getattr(alg, name) or () for name in TABLES))


def least_meet_relabeling(meet, tail=None):
    """(rows, perm, autos): the least relabeled meet table over linear-extension
    relabelings, the old->new permutation of the first extension reaching it
    whose tail(perm, ext) is least, ext being the extension as a new->old list,
    and the old->old automorphisms that tied leaves gave.  tail gives the
    tables compared after meet at tied leaves; without it every tie is a
    lattice automorphism.

    Branch and bound: the extension grows one element at a time, and the
    remaining elements stay sorted by the labels of their meets with the placed
    ones, because any other order makes a placed row of the relabeled meet
    table larger.  So the placed rows are fixed at each node, the next element
    is a minimal element of the first block of that order whose new row is
    least, and a node whose rows exceed the best meet table found is cut.  An
    element of the first block is minimal in it exactly when everything below
    it is placed: an unplaced y < x has meets with the placed elements no
    larger than x's, so it sorts into x's block or an earlier one.  The search
    carries the placed elements as a bitmask for that test.
    Extensions that tie on the least meet table and on tail give an
    automorphism, and a candidate that an automorphism fixing the prefix maps
    onto an earlier sibling is skipped, since its subtree repeats the sibling's
    keys on later extensions.  As in the individualization-refinement search
    of McKay and Piperno, the automorphisms so found generate the whole group
    of meet and tail.
    """
    n = len(meet)
    tail = tail or (lambda perm, ext: ())
    below = [sum(1 << b for b in range(n) if b != a and meet[a][b] == b) for a in range(n)]
    label = [0] * n
    ext: list[int] = []
    rows: list[tuple[int, ...]] = []
    best: list = []  # [meet rows, perm, extension, tail(perm, ext) or None]
    autos: list[list[int]] = []

    def split(cells, x):
        """Place x next: the new row beyond x, and the blocks sorted by it."""
        k, mx = len(ext), meet[x]
        label[x] = k
        row, out = [], []
        for cell in cells:
            if len(cell) == 1:
                if cell[0] != x:
                    row.append(label[mx[cell[0]]])
                    out.append(cell)
                continue
            groups: dict = {}
            for y in cell:
                if y != x:
                    groups.setdefault(label[mx[y]], []).append(y)
            for v in sorted(groups) if len(groups) > 1 else groups:
                row += [v] * len(groups[v])
                out.append(groups[v])
        return tuple(row), out

    def in_orbit(x, done):
        """True when the automorphisms found so far that fix the prefix map x into done."""
        gens = [g for g in autos if all(g[e] == e for e in ext)]
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for g in gens:
                if g[y] not in orbit:
                    orbit.add(g[y])
                    todo.append(g[y])
        return not orbit.isdisjoint(done)

    def search(cells, less: bool, placed: int) -> bool:
        """Visit the extensions below the current prefix; True when best changed."""
        k = len(ext)
        if k == n:
            perm = tuple(label)
            if less:
                best[:] = [tuple(rows), perm, tuple(ext), None]
                return True
            if best[3] is None:
                best[3] = tail(best[1], best[2])
            key = tail(perm, ext)
            if key < best[3]:
                best[:] = [tuple(rows), perm, tuple(ext), key]
                return True
            if key == best[3]:
                auto = list(range(n))
                for a, b in zip(best[2], ext):
                    auto[a] = b
                autos.append(auto)
            return False
        minimal = [x for x in cells[0] if below[x] | placed == placed]
        if len(minimal) == 1:
            x0 = minimal[0]
            least, refined = split(cells, x0)
            options = [(x0, least, refined)]
        else:
            options = [(x, *split(cells, x)) for x in minimal]
            least = min(beyond for _, beyond, _ in options)
            x0 = next(x for x, beyond, _ in options if beyond == least)
        row = (*(label[meet[x0][e]] for e in ext), k, *least)
        if not less:
            if row > best[0][k]:
                return False
            less = row < best[0][k]
        changed = False
        done: list[int] = []
        rows.append(row)
        for x, beyond, refined in options:
            if beyond != least or (done and autos and in_orbit(x, done)):
                continue
            done.append(x)
            label[x] = k
            ext.append(x)
            if search(refined, less, placed | 1 << x):
                changed, less = True, False
            ext.pop()
        rows.pop()
        return changed

    search([list(range(n))], True, 0)
    return best[0], best[1], autos


@lru_cache(maxsize=1024)
def _cached_relabeling(alg: FiniteAlgebra):
    """canonical_relabeling, with the name of the first equal algebra it saw."""
    def tail(perm, ext):
        return relabeled_tables(alg, ext, perm, _TAIL)

    _, perm, _ = least_meet_relabeling(alg.meet, tail)
    return perm, relabel(alg, perm)


# Quotient naming, isomorphic and the tests call this; the catalog enumeration
# searches its lattices with least_meet_relabeling directly.
def canonical_relabeling(alg: FiniteAlgebra):
    """(perm, algebra) with the least serial_key over linear-extension relabelings.

    perm maps old indices to new ones; among the linear extensions reaching the
    least key, it comes from the first in lexicographic order of the extension
    (the tuple of old elements in new order).  In a valid algebra join and impl
    are determined by meet, so extensions that tie on the least meet table tie
    on them too, and least_meet_relabeling compares only their relabeled box,
    invol, dualneg and dimpl (the rest of serial_key, in its order).  alg must
    be a valid algebra; the whole algebra is relabeled once, at the end.  The
    result is cached on algebra equality, which ignores names, so the relabeled
    algebra is renamed to alg's name when a differently named equal algebra
    filled the cache.
    """
    perm, canon = _cached_relabeling(alg)
    return perm, canon if canon.name == alg.name else canon.rename(alg.name)


def canonical_form(alg: FiniteAlgebra) -> FiniteAlgebra:
    return canonical_relabeling(alg)[1]
