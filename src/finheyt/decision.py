"""Decision procedures: projectivity, the quasiidentity rho, and the first-order
characterization of having the two-element algebra as image, all evaluated by
the staged formula evaluator in ``terms``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import morphism, terms
from .algebra import FiniteAlgebra, VarietyClass
from .errors import TheoremViolation
from .fixtures import two_element
from .terms import (
    CONST0,
    CONST1,
    Box,
    DefiningPair,
    FirstOrderFormula,
    FoAnd,
    FoAtom,
    FoNot,
    FoOr,
    Formula,
    Meet,
    Neg,
    Quasiidentity,
    Var,
    eval_formula,
)


@lru_cache(maxsize=1)  # one shared object, whose formula and plan are cached
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
    satisfying assignment certifies the onto homomorphism to it.  This is the
    main theorem, which needs every compact congruence to be a factor
    congruence, so heyting is rejected.  The search is exponential in the
    number of variables, which is at most terms.MAX_PRESENTATION_VARS."""
    if cls.kind == "heyting":
        raise ValueError("projectivity of a finitely presented algebra is decided for the "
                         "classes ws5, hri, hdp:N and dht:N, not heyting")
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
    """Evaluate all four equivalent criteria and demand agreement, and that the onto
    homs to 2 are the maps x -> [b <= x] for the open atoms b (b & x takes two values).
    Only the classes with a box table are decided: ws5, hri, hdp:N and dht:N."""
    if alg.box is None:
        raise ValueError(
            f"projectivity of a finite algebra is decided for the classes ws5, hri, hdp:N "
            f"and dht:N, not {alg.cls}" if alg.cls.kind == "heyting" else
            f"this {alg.cls} algebra carries no box table; run derive_operations")
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
    onto_two = [tuple(int(v == b) for v in alg.meet[b])
                for b in sorted(alg.open_set) if len(set(alg.meet[b])) == 2]
    if verdict != bool(onto_two) or (verdict and hom.map not in onto_two):
        raise TheoremViolation(f"the onto homs to 2 of {alg!r} are not {onto_two}")
    return ProjectivityVerdict(verdict, criteria, hom if verdict else bad)


# -- diagram formulas --------------------------------------------------------

_NODE = {c.table: c for c in (*terms.Unary.__subclasses__(), *terms.Binary.__subclasses__())
         if c is not terms.Diamond}  # box is read by Box; <> is ![]!


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


def _relativize(f: Formula, t) -> Formula:
    """Replace every equality r = s (also under negation) by t(r) = t(s)."""
    if isinstance(f, FoAtom):
        return FoAtom(t(f.lhs), t(f.rhs))
    if isinstance(f, FoNot):
        return FoNot(_relativize(f.arg, t))
    if isinstance(f, FoAnd):
        return FoAnd(tuple(_relativize(g, t) for g in f.args))
    return FoOr(tuple(_relativize(g, t) for g in f.args))


@lru_cache(maxsize=16)
def diagram_alpha(m: FiniteAlgebra) -> FirstOrderFormula:
    """exists x,y beta^t(x,y): true in A iff some quotient A/theta(x,y) is isomorphic to m.
    Every atom side t(x,y,r) shares one [](x<->y) and one ![](x<->y) & x."""
    if m.box is None:
        raise ValueError("diagram_alpha needs a class with a box table")
    beta = diagram_beta(m)
    matrix = _relativize(beta.matrix, terms._discriminator(Var("x"), Var("y")))
    return FirstOrderFormula((("exists", "x"), ("exists", "y")) + beta.prefix, matrix)


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
