"""Decision procedures: projectivity, the quasiidentity rho, and the first-order
characterization of having the two-element algebra as image."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import morphism, terms
from .algebra import FiniteAlgebra, VarietyClass
from .errors import TheoremViolation
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
    satisfying assignment certifies the onto homomorphism to it."""
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


def diagram_alpha(m: FiniteAlgebra) -> FirstOrderFormula:
    """exists x,y beta^t(x,y): true in A iff some quotient A/theta(x,y) is isomorphic to m."""
    if m.box is None:
        raise ValueError("diagram_alpha needs a class with a box table")
    beta = diagram_beta(m)
    matrix = _relativize(beta.matrix, Var("x"), Var("y"))
    return FirstOrderFormula((("exists", "x"), ("exists", "y")) + beta.prefix, matrix)


def _compile_formula(alg: FiniteAlgebra, f: Formula, depth_of: dict):
    """Compile a quantifier-free formula into (eval_fn, arg depth positions)."""
    names = sorted(formula_vars(f), key=depth_of.get)
    arg_of = {v: f"v{i}" for i, v in enumerate(names)}

    def texpr(t: Term) -> str:
        if isinstance(t, Var):
            return arg_of[t.name]
        if isinstance(t, terms.Const):
            return "0" if t.value == 0 else str(alg.top)
        if isinstance(t, Meet):
            return f"MEET[{texpr(t.left)}][{texpr(t.right)}]"
        if isinstance(t, Join):
            return f"JOIN[{texpr(t.left)}][{texpr(t.right)}]"
        if isinstance(t, Impl):
            return f"IMPL[{texpr(t.left)}][{texpr(t.right)}]"
        if isinstance(t, Dimpl):
            return f"DIMPL[{texpr(t.left)}][{texpr(t.right)}]"
        if isinstance(t, Neg):
            return f"NEG[{texpr(t.arg)}]"
        if isinstance(t, Box):
            return f"BOX[{texpr(t.arg)}]"
        if isinstance(t, Invol):
            return f"INVOL[{texpr(t.arg)}]"
        if isinstance(t, Dualneg):
            return f"DUALNEG[{texpr(t.arg)}]"
        if isinstance(t, terms.Diamond):
            return f"NEG[BOX[NEG[{texpr(t.arg)}]]]"
        raise TypeError(f"not a term: {t!r}")

    def fexpr(f: Formula) -> str:
        if isinstance(f, FoAtom):
            return f"({texpr(f.lhs)} == {texpr(f.rhs)})"
        if isinstance(f, FoNot):
            return f"(not {fexpr(f.arg)})"
        if isinstance(f, FoAnd):
            return "(" + " and ".join(fexpr(g) for g in f.args) + ")" if f.args else "True"
        return "(" + " or ".join(fexpr(g) for g in f.args) + ")" if f.args else "False"

    tables = {
        "MEET": alg.meet, "JOIN": alg.join, "IMPL": alg.impl, "DIMPL": alg.dimpl,
        "NEG": alg.neg, "BOX": alg.box, "INVOL": alg.invol, "DUALNEG": alg.dualneg,
    }
    src = f"lambda {', '.join(arg_of[v] for v in names)}: {fexpr(f)}"
    return eval(src, tables), tuple(depth_of[v] for v in names)  # noqa: S307


def eval_formula(alg: FiniteAlgebra, formula: FirstOrderFormula) -> bool:
    """Brute-force quantifier evaluation over the universe.

    The matrix is a conjunction; each conjunct is checked as soon as the last
    variable it mentions is bound, which prunes the assignment tree without
    changing the brute-force semantics.
    """
    prefix = formula.prefix
    depth_of = {v: d for d, (_, v) in enumerate(prefix)}
    conjuncts = formula.matrix.args if isinstance(formula.matrix, FoAnd) else (formula.matrix,)
    at_depth: list[list] = [[] for _ in prefix]
    constant_checks = []
    for c in conjuncts:
        fn, argdepths = _compile_formula(alg, c, depth_of)
        if argdepths:
            at_depth[max(argdepths)].append((fn, argdepths))
        else:
            constant_checks.append(fn)
    if not all(fn() for fn in constant_checks):
        return False

    n = alg.size
    env = [0] * len(prefix)

    def rec(d: int) -> bool:
        if d == len(prefix):
            return True
        quant = prefix[d][0]
        for v in range(n):
            env[d] = v
            ok = all(fn(*(env[p] for p in argdepths)) for fn, argdepths in at_depth[d])
            if ok:
                ok = rec(d + 1)
            if quant == "exists":
                if ok:
                    return True
            elif not ok:
                return False
        return quant == "forall"

    return rec(0)


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
