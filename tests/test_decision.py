import itertools

import pytest

from finheyt.algebra import VarietyClass, relabel
from finheyt.congruence import principal_congruence, quotient
from finheyt.decision import (
    FoAnd,
    FoAtom,
    FoNot,
    FoOr,
    decide_projective_finite,
    decide_projective_fp,
    diagram_alpha,
    diagram_beta,
    element_criterion,
    eval_formula,
    primitive_report,
    rho,
)
from finheyt.fixtures import (
    b4_disc,
    b4_hri,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_simple,
    catalog_fixtures,
    two_element,
    two_ws5,
)
from finheyt.morphism import homs, isomorphic
from finheyt.terms import (
    CONST0,
    CONST1,
    Box,
    DefiningPair,
    Meet,
    Neg,
    Var,
    eval_term,
    parse_term,
    satisfy_atoms,
)


def naive_eval(alg, formula):
    """Reference evaluator: plain nested quantifier loops over term-lang evaluation."""

    def matrix_val(f, env):
        if isinstance(f, FoAtom):
            return eval_term(alg, f.lhs, env) == eval_term(alg, f.rhs, env)
        if isinstance(f, FoNot):
            return not matrix_val(f.arg, env)
        if isinstance(f, FoAnd):
            return all(matrix_val(g, env) for g in f.args)
        if isinstance(f, FoOr):
            return any(matrix_val(g, env) for g in f.args)
        raise TypeError(f)

    def rec(d, env):
        if d == len(formula.prefix):
            return matrix_val(formula.matrix, env)
        quant, name = formula.prefix[d]
        results = (rec(d + 1, {**env, name: v}) for v in alg.elements)
        return any(results) if quant == "exists" else all(results)

    return rec(0, {})


def test_two_algebra_examples():
    two = two_element(VarietyClass("ws5"))
    assert two.box == (0, 1)
    hri = two_element(VarietyClass("hri"))
    assert hri.invol == (1, 0)
    dht = two_element(VarietyClass("dht", 1))
    assert dht.dimpl == ((0, 0), (1, 0))
    assert dht.dualneg == (1, 0)
    for a in dht.elements:  # a -< b = a & !b on the two-element algebra
        for b in dht.elements:
            assert dht.dimpl[a][b] == dht.meet[a][dht.neg[b]]


def test_element_criterion_examples():
    assert element_criterion(b4_disc()) == 1
    assert element_criterion(two_ws5()) is None
    assert element_criterion(b4_prod()) is None
    assert element_criterion(c3_simple()) == 1


def test_element_criterion_witness_forces_both_boxes_to_zero():
    for alg in catalog_fixtures():
        a = element_criterion(alg)
        if a is not None:
            assert alg.box[a] == 0
            assert alg.box[alg.neg[a]] == 0


def test_mh_full_examples():
    # mh-full: some homomorphism maps onto the two-element algebra of the class
    hom = homs(b4_prod(), two_element(b4_prod().cls), "any_onto")
    assert hom is not None and hom.onto
    assert homs(c3_simple(), two_element(c3_simple().cls), "any_onto") is None
    hom = homs(two_ws5(), two_element(two_ws5().cls), "any_onto")
    assert hom is not None and hom.map == (0, 1)


def test_decide_projective_fp_examples():
    ws5 = VarietyClass("ws5")
    verdict = decide_projective_fp(ws5, DefiningPair(("x",), ((Box(Var("x")), Var("x")),)))
    assert verdict.projective and verdict.assignment == {"x": 0}

    bad = DefiningPair(("x",), ((Meet(Neg(Box(Var("x"))), Neg(Box(Neg(Var("x"))))), CONST1),))
    verdict = decide_projective_fp(ws5, bad)
    assert not verdict.projective and "trivial" in verdict.note

    verdict = decide_projective_fp(ws5, DefiningPair((), ()))
    assert verdict.projective and verdict.assignment == {}


def test_decide_projective_fp_matches_bruteforce():
    ws5 = VarietyClass("ws5")
    two = two_element(ws5)
    suite = [
        DefiningPair(("x",), ((parse_term("[]x"), Var("x")),)),
        DefiningPair(("x",), ((parse_term("![]x & ![]!x"), CONST1),)),
        DefiningPair((), ()),
        DefiningPair(("x", "y"), ((parse_term("x & y"), CONST1),)),
        DefiningPair(("x", "y"), ((parse_term("x | y"), CONST1), (parse_term("x & y"), CONST0))),
        DefiningPair(("x",), ((parse_term("<>x"), CONST1), (parse_term("[]x"), CONST0))),
    ]
    for pair in suite:
        verdict = decide_projective_fp(ws5, pair)
        satisfiable = any(
            all(
                eval_term(two, l, dict(zip(pair.variables, vals)))
                == eval_term(two, r, dict(zip(pair.variables, vals)))
                for l, r in pair.atoms
            )
            for vals in itertools.product(two.elements, repeat=len(pair.variables))
        )
        assert verdict.projective == satisfiable


def test_decide_projective_finite_examples():
    v = decide_projective_finite(b4_prod())
    assert v.projective and all(v.criteria.values()) and v.witness.onto
    v = decide_projective_finite(b4_disc())
    assert not v.projective and not any(v.criteria.values()) and v.witness == 1
    v = decide_projective_finite(c3_simple())
    assert not v.projective
    assert set(v.criteria) == {"hom_onto_two", "element_criterion", "rho", "alpha"}


def test_diagram_beta_holds_exactly_on_two():
    two = two_ws5()
    beta = diagram_beta(two)
    for alg in catalog_fixtures():
        expect = isomorphic(alg, two_element(alg.cls)) is not None
        if alg.cls != two.cls:
            continue
        assert eval_formula(alg, beta) == expect


def test_diagram_alpha_structure_for_two():
    alpha = diagram_alpha(two_ws5())
    assert alpha.prefix[:2] == (("exists", "x"), ("exists", "y"))
    assert alpha.prefix[-1] == ("forall", "z")
    conjuncts = alpha.matrix.args
    # a negated t-equality coming from z0 != z1
    negs = [c for c in conjuncts if isinstance(c, FoNot)]
    assert len(negs) == 1
    # the universal onto-clause is a two-way disjunction of t-equalities
    ors = [c for c in conjuncts if isinstance(c, FoOr)]
    assert len(ors) == 1 and len(ors[0].args) == 2
    # every atom got relativized: both sides mention the discriminator variables x,y
    from finheyt.decision import formula_vars

    for c in conjuncts:
        assert {"x", "y"} <= formula_vars(c)
    # the meet fact t(x,y,z0 & z1) = t(x,y,z0) appears
    from finheyt.terms import discriminator_term

    want = FoAtom(
        discriminator_term(Var("x"), Var("y"), Meet(Var("z0"), Var("z1"))),
        discriminator_term(Var("x"), Var("y"), Var("z0")),
    )
    assert want in conjuncts


def test_eval_alpha_examples():
    assert eval_formula(b4_prod(), diagram_alpha(two_ws5()))
    assert not eval_formula(b4_disc(), diagram_alpha(two_ws5()))
    assert eval_formula(two_ws5(), diagram_alpha(two_ws5()))


def test_eval_formula_matches_naive_evaluator():
    for alg in catalog_fixtures():
        two = two_element(alg.cls)
        alpha = diagram_alpha(two)
        beta = diagram_beta(two)
        assert eval_formula(alg, alpha) == naive_eval(alg, alpha)
        assert eval_formula(alg, beta) == naive_eval(alg, beta)


def test_eval_alpha_agrees_with_principal_quotient_check(catalog_algebras):
    # alpha holds iff some principal congruence collapses the algebra onto 2
    alphas = {}
    for alg in (a for a in catalog_algebras if 1 < a.size <= 6):
        two = two_element(alg.cls)
        if alg.cls not in alphas:
            alphas[alg.cls] = diagram_alpha(two)
        expect = any(
            isomorphic(quotient(alg, principal_congruence(alg, a, b))[0], two) is not None
            for a in alg.elements
            for b in alg.elements
        )
        assert eval_formula(alg, alphas[alg.cls]) == expect, alg.name


def test_eval_alpha_invariant_under_relabeling():
    alg = b4_prod()
    swapped = relabel(alg, (0, 2, 1, 3))
    alpha = diagram_alpha(two_ws5())
    assert eval_formula(alg, alpha) == eval_formula(swapped, alpha)
    alg = b4_disc()
    swapped = relabel(alg, (0, 2, 1, 3))
    assert eval_formula(alg, alpha) == eval_formula(swapped, alpha)


def test_diagram_alpha_requires_box():
    with pytest.raises(ValueError):
        diagram_alpha(two_element(VarietyClass("heyting")))


def test_primitive_report_examples():
    rep = primitive_report([two_ws5(), b4_prod()])
    assert rep.primitive and all(e.rho_holds for e in rep.entries)
    rep = primitive_report([b4_disc()])
    assert not rep.primitive and rep.entries[0].witness == {"x": 1}
    assert primitive_report([]).primitive


def test_primitive_report_rejects_mixed_classes():
    with pytest.raises(ValueError):
        primitive_report([two_ws5(), c3_hri()])


def test_rho_shape():
    q = rho()
    assert len(q.premises) == 1
    assert q.conclusion == (CONST0, CONST1)
    assert q.variables() == ("x",)
