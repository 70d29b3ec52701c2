"""Decision procedures: projectivity, the quasiidentity rho, and the first-order
characterization of having the two-element algebra as image."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from . import morphism, terms
from .algebra import FiniteAlgebra, VarietyClass
from .errors import TermEvalError, TheoremViolation
from .fixtures import two_element
from .terms import (
    CONST0,
    CONST1,
    Box,
    DefiningPair,
    Dimpl,
    Dualneg,
    Impl,
    Invol,
    Join,
    Meet,
    Neg,
    Quasiidentity,
    Term,
    Var,
    discriminator_term,
)


def rho() -> Quasiidentity:
    """![]x & ![]!x = 1  =>  0 = 1; rejected exactly when some a has box a = box !a = 0."""
    x = Var("x")
    premise = Meet(Neg(Box(x)), Neg(Box(Neg(x))))
    return Quasiidentity(premises=((premise, CONST1),), conclusion=(CONST0, CONST1))


def element_criterion(alg: FiniteAlgebra) -> int | None:
    """First element a with box a = box !a, or None when no such element exists."""
    if alg.box is None:
        raise ValueError(f"class {alg.cls} carries no box table; run derive_operations")
    for a in alg.elements:
        if alg.box[a] == alg.box[alg.neg[a]]:
            return a
    return None


@dataclass(frozen=True)
class FpVerdict:
    """Projectivity of a finitely presented algebra, decided from its presentation."""

    projective: bool
    assignment: dict | None
    note: str


def decide_projective_fp(cls: VarietyClass, pair: DefiningPair) -> FpVerdict:
    """Projective iff the atoms are satisfiable in the two-element algebra; the
    satisfying assignment certifies the onto homomorphism to it.  The search is
    exponential in the number of variables, which is at most
    terms.MAX_PRESENTATION_VARS."""
    if len(pair.variables) > terms.MAX_PRESENTATION_VARS:
        raise ValueError(f"presentation has {len(pair.variables)} variables; "
                         f"at most {terms.MAX_PRESENTATION_VARS} are searched")
    env = terms.satisfy_atoms(two_element(cls), pair)
    if env is not None:
        return FpVerdict(True, env, "atoms satisfiable in 2; the presented algebra is "
                                    "nontrivial and projective")
    return FpVerdict(False, None, "atoms unsatisfiable in 2; the presented algebra is "
                                  "not projective (it may even be trivial)")


@dataclass(frozen=True)
class ProjectivityVerdict:
    projective: bool
    criteria: dict
    witness: object
    note: str = "per the mh-fullness criterion"


def decide_projective_finite(alg: FiniteAlgebra) -> ProjectivityVerdict:
    """Evaluate all four equivalent criteria and demand agreement."""
    if not alg.nontrivial:
        raise ValueError("projectivity decision needs a nontrivial algebra")
    two = two_element(alg.cls)
    hom = morphism.homs(alg, two, "any_onto")
    bad = element_criterion(alg)
    criteria = {
        "hom_onto_two": hom is not None,
        "element_criterion": bad is None,
        "rho": terms.check_quasiidentity(alg, rho()).holds,
        "alpha": eval_formula(alg, diagram_alpha(two)),
    }
    values = set(criteria.values())
    if len(values) > 1:
        raise TheoremViolation(f"projectivity criteria disagree on {alg!r}: {criteria}")
    verdict = values.pop()
    return ProjectivityVerdict(verdict, criteria, hom if verdict else bad)


# -- first-order formulas ----------------------------------------------------

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class FoAtom(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FoNot(Formula):
    arg: Formula


@dataclass(frozen=True)
class FoAnd(Formula):
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FoOr(Formula):
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FirstOrderFormula:
    """Prenex formula: quantifier prefix over a boolean combination of term equalities."""

    prefix: tuple[tuple[str, str], ...]
    matrix: Formula

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple((q, v) for q, v in self.prefix))
        bound = {v for _, v in self.prefix}
        free = formula_vars(self.matrix) - bound
        if free:
            raise ValueError(f"formula not closed; free variables {sorted(free)}")

    def __hash__(self):  # cached: formulas key the plan cache and hash a whole term tree
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.prefix, self.matrix)))
        return self._hash


def formula_vars(f: Formula) -> set:
    if isinstance(f, FoAtom):
        return set(terms.term_vars(f.lhs)) | set(terms.term_vars(f.rhs))
    if isinstance(f, FoNot):
        return formula_vars(f.arg)
    return set().union(*(formula_vars(g) for g in f.args)) if f.args else set()


_NODE = {"meet": Meet, "join": Join, "impl": Impl, "dimpl": Dimpl,
         "box": Box, "invol": Invol, "dualneg": Dualneg}


def diagram_beta(m: FiniteAlgebra) -> FirstOrderFormula:
    """Existential diagram of a finite algebra m: holds in C iff C is isomorphic to m.

    exists z0..z(n-1) forall z:
      [every operation-table fact]  and  [z_i distinct]  and  [z equals some z_i].
    """
    zs = [Var(f"z{i}") for i in m.elements]
    z = Var("z")
    conjuncts: list = [FoAtom(CONST0, zs[0]), FoAtom(CONST1, zs[m.top])]
    for i, j in itertools.combinations(m.elements, 2):
        conjuncts.append(FoNot(FoAtom(zs[i], zs[j])))
    for name, table in m.unary_tables().items():
        node = _NODE[name]
        conjuncts.extend(FoAtom(node(zs[i]), zs[table[i]]) for i in m.elements)
    for name, table in m.binary_tables().items():
        node = _NODE[name]
        conjuncts.extend(
            FoAtom(node(zs[i], zs[j]), zs[table[i][j]])
            for i in m.elements for j in m.elements
        )
    conjuncts.append(FoOr(tuple(FoAtom(z, zi) for zi in zs)))
    prefix = tuple(("exists", f"z{i}") for i in m.elements) + (("forall", "z"),)
    return FirstOrderFormula(prefix, FoAnd(tuple(conjuncts)))


def _relativize(f: Formula, x: Term, y: Term) -> Formula:
    """Replace every equality r = s (also under negation) by t(x,y,r) = t(x,y,s)."""
    if isinstance(f, FoAtom):
        return FoAtom(discriminator_term(x, y, f.lhs), discriminator_term(x, y, f.rhs))
    if isinstance(f, FoNot):
        return FoNot(_relativize(f.arg, x, y))
    if isinstance(f, FoAnd):
        return FoAnd(tuple(_relativize(g, x, y) for g in f.args))
    return FoOr(tuple(_relativize(g, x, y) for g in f.args))


@lru_cache(maxsize=16)
def diagram_alpha(m: FiniteAlgebra) -> FirstOrderFormula:
    """exists x,y beta^t(x,y): true in A iff some quotient A/theta(x,y) is isomorphic to m."""
    if m.box is None:
        raise ValueError("diagram_alpha needs a class with a box table")
    beta = diagram_beta(m)
    matrix = _relativize(beta.matrix, Var("x"), Var("y"))
    return FirstOrderFormula((("exists", "x"), ("exists", "y")) + beta.prefix, matrix)


# -- staged evaluation -------------------------------------------------------
#
# A formula is compiled once, independently of any algebra, into a plan:
#   - every distinct subterm of the matrix gets one value slot (common
#     subexpressions are shared across conjuncts) and is computed at the
#     shallowest quantifier depth where all its variables are bound;
#   - the matrix is split into its conjuncts, and each conjunct is checked at
#     the depth of its last variable; a slot is computed just before the first
#     check at its depth that reads it, so a failing check skips the rest of
#     that depth's table lookups;
#   - the subtree below depth d is a pure function of its frontier, the slots
#     set above d and read at d or deeper, so each call memoises it on them.
# The quantifiers keep their brute-force semantics: prefix order, every
# quantifier ranging over the whole universe.

_TABLE_OF = {node: name for name, node in _NODE.items()} | {Neg: "neg"}


@dataclass(frozen=True)
class _Plan:
    """Algebra-independent schedule of a prenex formula.

    Slots hold ("var", depth), ("const", 0 | 1) or (table, argument slots...);
    slot d holds the variable of depth d.  ``levels[0]`` runs once per call and
    ``levels[d + 1]`` after binding the variable of depth d.  A level is
    (segments, trailing): each segment is (slots to compute, check) and the
    trailing slots are the level's remaining ones, read only deeper.  A check is
    ("atom", l, r), ("not", check), ("and", checks) or ("or", checks).
    """

    exists: tuple[bool, ...]
    names: tuple[str, ...]
    slots: tuple[tuple, ...]
    levels: tuple[tuple, ...]
    frontier: tuple[tuple[int, ...], ...]


def _conjuncts(f: Formula):
    if isinstance(f, FoAnd):
        for g in f.args:
            yield from _conjuncts(g)
    else:
        yield f


@lru_cache(maxsize=32)
def _plan(formula: FirstOrderFormula) -> _Plan:
    names = tuple(v for _, v in formula.prefix)
    depth_of = {v: d for d, v in enumerate(names)}
    slots: list[tuple] = []
    slot_depth: list[int] = []
    slot_of: dict = {}

    def intern(key, depth):
        if key not in slot_of:
            slot_of[key] = len(slots)
            slots.append(key)
            slot_depth.append(depth)
        return slot_of[key]

    def term(t: Term) -> int:
        if isinstance(t, terms.Diamond):
            t = Neg(Box(Neg(t.arg)))
        if isinstance(t, Var):
            return slot_of[("var", depth_of[t.name])]
        if isinstance(t, terms.Const):
            return intern(("const", t.value), -1)
        if type(t) not in _TABLE_OF:
            raise TypeError(f"not a term: {t!r}")
        args = tuple(map(term, (t.arg,) if hasattr(t, "arg") else (t.left, t.right)))
        return intern((_TABLE_OF[type(t)], *args), max(slot_depth[a] for a in args))

    def check(f: Formula):
        """(check, depth of its last variable, slots it reads)."""
        if isinstance(f, FoAtom):
            a, b = term(f.lhs), term(f.rhs)
            return ("atom", a, b), max(slot_depth[a], slot_depth[b]), {a, b}
        if isinstance(f, FoNot):
            tree, depth, reads = check(f.arg)
            return ("not", tree), depth, reads
        parts = [check(g) for g in f.args]
        kind = "and" if isinstance(f, FoAnd) else "or"
        return ((kind, tuple(p[0] for p in parts)), max((p[1] for p in parts), default=-1),
                set().union(*(p[2] for p in parts)))

    for d in range(len(names)):
        intern(("var", d), d)
    checks = [check(c) for c in _conjuncts(formula.matrix)]

    done = {s for s, key in enumerate(slots) if key[0] in ("var", "const")}

    def compute(s: int, out: list, read: set) -> None:
        """Schedule slot s after its unscheduled arguments (all at s's depth)."""
        if s in done:
            return
        done.add(s)
        for a in slots[s][1:]:
            compute(a, out, read)
            read.add(a)
        out.append(s)

    levels, reads = [], []
    for d in range(-1, len(names)):
        segments, read = [], set()
        for tree, depth, used in checks:
            if depth == d:
                ops: list = []
                for s in sorted(used):
                    compute(s, ops, read)
                read |= used
                segments.append((tuple(ops), tree))
        trailing: list = []
        for s in range(len(slots)):
            if slot_depth[s] == d:
                compute(s, trailing, read)
        levels.append((tuple(segments), tuple(trailing)))
        reads.append(read)
    frontier = []
    below: set = set()
    for d in reversed(range(len(names))):
        below |= reads[d + 1]
        frontier.append(tuple(sorted(s for s in below if 0 <= slot_depth[s] < d)))
    return _Plan(
        exists=tuple(q == "exists" for q, _ in formula.prefix),
        names=names,
        slots=tuple(slots),
        levels=tuple(levels),
        frontier=tuple(reversed(frontier)),
    )


def _bind_check(check, val: list):
    kind, *args = check
    if kind == "atom":
        a, b = args
        return lambda: val[a] == val[b]
    if kind == "not":
        inner = _bind_check(args[0], val)
        return lambda: not inner()
    parts = [_bind_check(c, val) for c in args[0]]
    if kind == "and":
        return lambda: all(p() for p in parts)
    return lambda: any(p() for p in parts)


def _bind_level(plan: _Plan, level, alg: FiniteAlgebra, val: list):
    """(segments, trailing) with each slot as (out, table, a, b): val[out] = table[val[a]][val[b]].

    A unary table is read as a one-column binary table against the spare last
    slot of val, which stays 0.
    """
    zero = len(val) - 1

    def op(s):
        name, *args = plan.slots[s]
        table = getattr(alg, name)
        if table is None:
            raise TermEvalError(f"operation {name} unavailable for class {alg.cls}")
        if len(args) == 1:
            return s, tuple((c,) for c in table), args[0], zero
        return s, table, *args

    segments, trailing = level
    return (tuple((tuple(map(op, ops)), _bind_check(tree, val)) for ops, tree in segments),
            tuple(map(op, trailing)))


def _search(exists: bool, slot: int, level, frontier, inner, n: int, val: list):
    """The search over one quantifier's variable, memoised on its frontier.

    It returns None when the subformula fails, else the values of the
    existential variables bound from here up to the first universal one: an
    existential level returns its first good value followed by the tail below,
    a universal level returns ().
    """
    segments, trailing = level
    key = itemgetter(*frontier) if frontier else (lambda _: ())
    memo: dict = {}

    def search():
        for v in range(n):
            val[slot] = v
            for ops, check in segments:
                for out, t, a, b in ops:
                    val[out] = t[val[a]][val[b]]
                if not check():
                    break
            else:
                for out, t, a, b in trailing:
                    val[out] = t[val[a]][val[b]]
                tail = inner() if inner else ()
                if tail is not None:
                    if exists:
                        return (v, *tail)
                    continue
            if not exists:
                return None
        return None if exists else ()

    def memoised():
        k = key(val)
        if k in memo:
            return memo[k]
        memo[k] = out = search()
        return out

    return memoised


def satisfying_assignment(alg: FiniteAlgebra, formula: FirstOrderFormula) -> dict | None:
    """Lexicographically first assignment of the formula's leading existential
    variables under which the rest holds, or None when the formula is false.

    Brute force over the whole universe for every quantifier, evaluated by the
    staged plan of the formula (see ``_plan``); memoised subtrees return the
    same values a fresh search would, so the assignment is the lex-first one.
    """
    plan = _plan(formula)
    val = [0] * (len(plan.slots) + 1)
    for s, key in enumerate(plan.slots):
        if key[0] == "const":
            val[s] = 0 if key[1] == 0 else alg.top
    levels = [_bind_level(plan, level, alg, val) for level in plan.levels]
    inner = None
    for d in reversed(range(len(plan.names))):
        inner = _search(plan.exists[d], d, levels[d + 1], plan.frontier[d], inner, alg.size, val)
    # The constant level runs first and once: an existential over the single
    # value 0 of the spare slot.
    values = _search(True, len(plan.slots), levels[0], (), inner, 1, val)()
    return None if values is None else dict(zip(plan.names, values[1:]))


def eval_formula(alg: FiniteAlgebra, formula: FirstOrderFormula) -> bool:
    """Truth of a closed prenex formula in alg (see ``satisfying_assignment``)."""
    return satisfying_assignment(alg, formula) is not None


@dataclass(frozen=True)
class PrimitivityEntry:
    algebra: FiniteAlgebra
    rho_holds: bool
    witness: dict | None


@dataclass(frozen=True)
class PrimitivityReport:
    entries: tuple[PrimitivityEntry, ...]
    primitive: bool


def primitive_report(algebras) -> PrimitivityReport:
    """The quasivariety generated by the algebras is primitive iff rho holds in each."""
    algebras = list(algebras)
    classes = {a.cls for a in algebras}
    if len(classes) > 1:
        raise ValueError(f"mixed classes {sorted(map(str, classes))}")
    q = rho()
    entries = []
    for a in algebras:
        chk = terms.check_quasiidentity(a, q)
        entries.append(PrimitivityEntry(a, chk.holds, chk.witness))
    return PrimitivityReport(tuple(entries), all(e.rho_holds for e in entries))
