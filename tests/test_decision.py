import dataclasses
import io
import itertools
import keyword
import re
import tokenize
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finheyt import decision, terms
from finheyt.algebra import VarietyClass, relabel
from finheyt.catalog import build_catalog
from finheyt.congruence import principal_congruence, product, quotient
from finheyt.decision import (
    decide_projective_finite,
    decide_projective_fp,
    diagram_alpha,
    diagram_beta,
    element_criterion,
    primitive_report,
    rho,
)
from finheyt.errors import TermEvalError, TheoremViolation
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
    Diamond,
    Dimpl,
    Dualneg,
    FirstOrderFormula,
    FoAnd,
    FoAtom,
    FoNot,
    FoOr,
    Impl,
    Invol,
    Join,
    Meet,
    Neg,
    QuasiCheck,
    Quasiidentity,
    Var,
    check_quasiidentity,
    discriminator_term,
    eval_formula,
    parse_term,
    satisfy_atoms,
    satisfying_assignment,
)
from term_oracle import eval_term, quasiidentity_oracle, satisfy_atoms_oracle
from test_terms import _near_star


def naive_eval(alg, formula, start=0, env=None):
    """Reference evaluator: plain nested quantifier loops over term-lang evaluation.

    With ``start`` and ``env`` it evaluates the quantifiers from depth ``start``
    on under the values ``env`` already gives the outer variables.
    """

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

    return rec(start, env or {})


def naive_witness(alg, formula):
    """Lex-first values of the leading existential variables under which the rest holds."""
    quants = [q for q, _ in formula.prefix]
    lead = quants.index("forall") if "forall" in quants else len(quants)
    names = [v for _, v in formula.prefix[:lead]]
    for values in itertools.product(alg.elements, repeat=lead):
        env = dict(zip(names, values))
        if naive_eval(alg, formula, lead, env):
            return env
    return None


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
    with pytest.raises(ValueError, match="carries no box table"):
        element_criterion(two_element(VarietyClass("heyting")))


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


def test_decide_projective_fp_rejects_heyting():
    # The main theorem needs every compact congruence to be a factor congruence,
    # which fails for Heyting algebras: x | !x = 1 presents 2 x 2, not projective there.
    pair = DefiningPair(("x",), ((parse_term("x | !x"), CONST1),))
    assert decide_projective_fp(VarietyClass("ws5"), pair).projective
    with pytest.raises(ValueError, match="ws5, hri, hdp:N and dht:N, not heyting"):
        decide_projective_fp(VarietyClass("heyting"), pair)


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


def test_decide_projective_finite_raises_when_the_criteria_disagree(monkeypatch):
    # B4prod is projective, so an element criterion that finds a bad element disagrees
    monkeypatch.setattr(decision, "element_criterion", lambda alg: 0)
    with pytest.raises(TheoremViolation, match="projectivity criteria disagree on FiniteAlgebra<B4prod>"):
        decide_projective_finite(b4_prod())


def test_decide_projective_finite_rejects_box_less_algebras():
    with pytest.raises(ValueError, match="ws5, hri, hdp:N and dht:N, not heyting"):
        decide_projective_finite(two_element(VarietyClass("heyting")))
    with pytest.raises(ValueError, match="run derive_operations"):
        decide_projective_finite(dataclasses.replace(c3_hri(), box=None))


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
    from finheyt.terms import formula_vars

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


def _operations(alg):
    """Term constructors over every operation alg carries, Diamond included."""
    unary, binary = [Neg], [Meet, Join, Impl]
    if alg.box is not None:
        unary += [Box, Diamond]
    if alg.invol is not None:
        unary.append(Invol)
    if alg.dualneg is not None:
        unary.append(Dualneg)
    if alg.dimpl is not None:
        binary.append(Dimpl)
    return unary, binary


def _terms_over(alg, names):
    """Terms in alg's operations over the constants and the given variables."""
    unary, binary = _operations(alg)
    return st.recursive(
        st.sampled_from([CONST0, CONST1, *map(Var, names)]),
        lambda kids: st.one_of(
            st.builds(lambda op, a: op(a), st.sampled_from(unary), kids),
            st.builds(lambda op, a, b: op(a, b), st.sampled_from(binary), kids, kids),
        ),
        max_leaves=6,
    )


@st.composite
def _prenex_formulas(draw, alg):
    """Closed prenex formulas over 1-4 variables with mixed quantifiers."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    quants = draw(st.lists(st.sampled_from(["exists", "forall"]),
                           min_size=len(names), max_size=len(names)))
    terms_ = _terms_over(alg, names)
    matrix = st.recursive(
        st.builds(FoAtom, terms_, terms_),
        lambda kids: st.one_of(
            st.builds(FoNot, kids),
            st.lists(kids, max_size=3).map(FoAnd),
            st.lists(kids, max_size=3).map(FoOr),
        ),
        max_leaves=5,
    )
    return FirstOrderFormula(tuple(zip(quants, names)), draw(matrix))


@pytest.fixture(scope="module")
def small_algebras(catalog_algebras):
    return [*catalog_fixtures(), *(a for a in catalog_algebras if a.size <= 5)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_staged_evaluator_matches_naive_on_random_formulas(small_algebras, data):
    alg = data.draw(st.sampled_from(small_algebras), label="algebra")
    formula = data.draw(_prenex_formulas(alg), label="formula")
    want = naive_witness(alg, formula)
    assert satisfying_assignment(alg, formula) == want
    assert eval_formula(alg, formula) == naive_eval(alg, formula) == (want is not None)


def _deep_formula(depth):
    """exists x, y forall z over a check tree depth levels deep: FoNot, FoOr
    and FoAnd alternate around cycled atoms, under one more FoNot."""
    x, y, z = Var("x"), Var("y"), Var("z")
    atoms = [FoAtom(Meet(x, z), z), FoAtom(Join(x, y), y), FoAtom(Box(z), Neg(y)), FoAtom(x, z)]
    f = atoms[0]
    for i in range(depth - 1):
        if i % 3 == 0:
            f = FoNot(f)
        elif i % 3 == 1:
            f = FoOr((atoms[i % 4], f))
        else:
            f = FoAnd((f, atoms[i % 4]))
    return FirstOrderFormula((("exists", "x"), ("exists", "y"), ("forall", "z")), FoNot(f))


def test_deep_check_trees_match_naive():
    # Written out as one nested expression, a tree this deep exceeds the
    # parser's limit on nested parentheses.
    formula = _deep_formula(300)
    answers = set()
    for alg in catalog_fixtures():
        want = naive_witness(alg, formula)
        assert satisfying_assignment(alg, formula) == want, alg.name
        assert eval_formula(alg, formula) == naive_eval(alg, formula) == (want is not None)
        answers.add(want is not None)
    assert answers == {True, False}


def _chain(k):
    """exists v0 ... v(k-1): v(i-1) & vi = vi for each i, true at all zeros."""
    v = [Var(f"v{i}") for i in range(k)]
    matrix = FoAnd(tuple(FoAtom(Meet(v[i - 1], v[i]), v[i]) for i in range(1, k)))
    return FirstOrderFormula(tuple(("exists", x.name) for x in v), matrix)


def test_quantifier_chain_at_the_bound_evaluates():
    found = satisfying_assignment(two_ws5(), _chain(terms.MAX_QUANTIFIERS))
    assert found == {f"v{i}": 0 for i in range(terms.MAX_QUANTIFIERS)}


def test_quantifier_chain_over_the_bound_raises():
    with pytest.raises(TermEvalError, match=str(terms.MAX_QUANTIFIERS)):
        satisfying_assignment(two_ws5(), _chain(terms.MAX_QUANTIFIERS + 1))


_SOURCE_NAMES = {"level", "search", "inner", "n", "range", "found", "memo", "get", "room", "k",
                 "pools", "pool", "candidates", "len"}


def _generated_names(plan):
    """The identifiers of every generated level source of plan, which holds no
    string literal and no identifier but keywords, _SOURCE_NAMES, slot, table
    and temporary numbers, and hoisted rows named by a table and a slot."""
    names = set()
    for src in plan.source:
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            assert tok.type != tokenize.STRING, src
            if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string):
                names.add(tok.string)
    assert all(re.fullmatch(r"[xTc]\d+|R\d+_\d+", s) for s in names - _SOURCE_NAMES), names
    return names


@pytest.mark.parametrize("name", ["__import__('os').system('false')", "a b", "val", "n", "x0"])
def test_hostile_variable_names_evaluate_like_naive(name):
    # Variable names never enter the generated source, so no name can run
    # code there or shadow the names the source uses.
    v, w = Var(name), Var("w")
    matrix = FoOr((FoAtom(Box(v), v), FoNot(FoAtom(Meet(v, w), w))))
    for prefix in ((("exists", name), ("forall", "w")), (("forall", "w"), ("exists", name))):
        formula = FirstOrderFormula(prefix, matrix)
        _generated_names(terms._plan(formula))
        for alg in catalog_fixtures():
            want = naive_witness(alg, formula)
            assert satisfying_assignment(alg, formula) == want, alg.name
            assert eval_formula(alg, formula) == naive_eval(alg, formula)


def test_generated_source_holds_no_formula_text():
    plan = terms._plan(diagram_alpha(two_ws5()))
    assert _generated_names(plan).isdisjoint(plan.names)


@st.composite
def _quasiidentities(draw, alg):
    """Quasiidentities with 0-3 premises over at most 3 variables."""
    terms_ = _terms_over(alg, ["u", "v", "w"])
    equation = st.tuples(terms_, terms_)
    return Quasiidentity(tuple(draw(st.lists(equation, max_size=3))), draw(equation))


@st.composite
def _presentations(draw, alg):
    """Presentations with 0-3 atoms over 0-4 declared variables, not all of them used."""
    names = tuple(f"v{i}" for i in range(draw(st.integers(0, 4))))
    terms_ = _terms_over(alg, names)
    equation = st.tuples(terms_, terms_)
    return DefiningPair(names, tuple(draw(st.lists(equation, max_size=3))))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_check_quasiidentity_matches_oracle_on_random_quasiidentities(small_algebras, data):
    alg = data.draw(st.sampled_from(small_algebras), label="algebra")
    q = data.draw(_quasiidentities(alg), label="quasiidentity")
    holds, witness = quasiidentity_oracle(alg, q)
    assert check_quasiidentity(alg, q) == QuasiCheck(holds, witness)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_satisfy_atoms_matches_oracle_on_random_presentations(small_algebras, data):
    alg = data.draw(st.sampled_from(small_algebras), label="algebra")
    pair = data.draw(_presentations(alg), label="presentation")
    assert satisfy_atoms(alg, pair) == satisfy_atoms_oracle(alg, pair)


_EDGE_QUASIIDENTITIES = [
    Quasiidentity((), (CONST0, CONST1)),                       # no variable, no premise
    Quasiidentity(((CONST0, CONST1),), (CONST0, CONST1)),      # no variable, false premise
    Quasiidentity(((CONST1, CONST1),), (CONST1, CONST1)),      # no variable, holds
    Quasiidentity((), (Var("x"), Var("x"))),                   # no premise, holds
    Quasiidentity((), (Box(Var("x")), Var("x"))),              # no premise, fails on most
]
_EDGE_PRESENTATIONS = [
    DefiningPair((), ()),
    DefiningPair((), ((CONST0, CONST1),)),
    DefiningPair(("x", "y"), ()),
    DefiningPair(("x", "y"), ((Var("y"), Neg(Var("y"))),)),
]


def test_quasiidentity_and_presentation_edge_cases_match_oracle(small_algebras):
    for alg in small_algebras:
        for q in _EDGE_QUASIIDENTITIES:
            holds, witness = quasiidentity_oracle(alg, q)
            assert check_quasiidentity(alg, q) == QuasiCheck(holds, witness), (alg.name, q)
        for pair in _EDGE_PRESENTATIONS:
            assert satisfy_atoms(alg, pair) == satisfy_atoms_oracle(alg, pair), (alg.name, pair)


def test_rho_matches_oracle_on_the_catalogs(nontrivial_algebras):
    for alg in nontrivial_algebras:
        holds, witness = quasiidentity_oracle(alg, rho())
        assert check_quasiidentity(alg, rho()) == QuasiCheck(holds, witness), alg.name


def test_alpha_witness_is_the_lex_first_pair():
    alg = b4_prod()
    alpha = diagram_alpha(two_ws5())
    assert satisfying_assignment(alg, alpha) == naive_witness(alg, alpha)
    assert satisfying_assignment(b4_disc(), alpha) is None


def memo_rooms(monkeypatch) -> list:
    """(room, budget) of each satisfying_assignment call from now on: room[0] is
    the entries it has left to store, so budget - room[0] is the entries stored."""
    rooms, make = [], terms._room

    def counted(q, n):
        room = make(q, n)
        rooms.append((room, room[0]))
        return room

    monkeypatch.setattr(terms, "_room", counted)
    return rooms


def test_memo_budget_keeps_the_answers(monkeypatch):
    # Past the budget a level recomputes instead of looking up; the answers
    # and witnesses stay those of the brute force.
    monkeypatch.setattr(terms, "_MEMO_ENTRIES", 3)
    for alg in (b4_prod(), b4_disc(), b4_hri(), c3_hri()):
        alpha = diagram_alpha(two_element(alg.cls))
        assert satisfying_assignment(alg, alpha) == naive_witness(alg, alpha), alg.name
    for alg in (two_ws5(), c3_simple()):
        holds, witness = quasiidentity_oracle(alg, rho())
        assert check_quasiidentity(alg, rho()) == QuasiCheck(holds, witness), alg.name
    # The 10-variable near star outgrows its budget of 10 * 2**2 entries.
    rooms = memo_rooms(monkeypatch)
    pair = _near_star(10)
    assert satisfy_atoms(two_ws5(), pair) == satisfy_atoms_oracle(two_ws5(), pair)
    [(room, budget)] = rooms
    assert (budget, room[0]) == (40, 0)


def _alpha_with_fresh_copies(m):
    """diagram_alpha(m) with every atom side built anew by discriminator_term."""
    x, y = Var("x"), Var("y")

    def fresh(f):
        if isinstance(f, FoAtom):
            return FoAtom(discriminator_term(x, y, f.lhs), discriminator_term(x, y, f.rhs))
        if isinstance(f, FoNot):
            return FoNot(fresh(f.arg))
        return type(f)(tuple(map(fresh, f.args)))

    beta = diagram_beta(m)
    return FirstOrderFormula((("exists", "x"), ("exists", "y")) + beta.prefix, fresh(beta.matrix))


@pytest.mark.parametrize("cls", ["ws5", "hri", "dht:2"])
def test_shared_discriminator_subterms_compile_to_the_same_source(cls):
    # diagram_alpha builds one [](x<->y) and one ![](x<->y) & x for all its
    # atoms; _plan walks each shared object once and plans it as before.
    two = two_element(VarietyClass.parse(cls))
    shared, fresh = diagram_alpha(two), _alpha_with_fresh_copies(two)
    assert shared == fresh
    first, second = shared.matrix.args[:2]
    assert first.lhs.left.left is second.rhs.left.left and first.lhs.right is second.rhs.right
    assert fresh.matrix.args[0].lhs.right is not fresh.matrix.args[1].rhs.right
    assert terms._plan.__wrapped__(shared).source == terms._plan.__wrapped__(fresh).source


def test_repeated_diamonds_evaluate_like_naive():
    # Each <>v0 is planned through a temporary ![]!v0.  A walk memoised on
    # object ids that let such a temporary die could meet its id again on
    # another term, and planned this formula as false.
    v0 = Var("v0")
    formula = FirstOrderFormula((("exists", "v0"), ("exists", "v1")),
                                FoNot(FoAtom(Meet(Diamond(v0), Diamond(v0)), Neg(CONST1))))
    assert satisfying_assignment(c3_simple(), formula) == {"v0": 1, "v1": 0}
    assert naive_witness(c3_simple(), formula) == {"v0": 1, "v1": 0}


def _closure(search) -> dict:
    """What a generated search reads from its level, by name."""
    return dict(zip(search.__code__.co_freevars, (c.cell_contents for c in search.__closure__)))


@pytest.mark.parametrize("factors", [(b4_disc, c3_simple), (b4_disc, c3_simple, c3_simple)],
                         ids=lambda fs: "x".join(f.__name__ for f in fs))
def test_alpha_pools_the_candidates_of_z1(monkeypatch, factors):
    # z1's leading checks read neither z0 nor anything computed from it but
    # the discriminator of z0, which z0's checks fix, so every call from z0's
    # loop under one z0 key filters the same pool of z1 values.
    plan_of, searches, calls = terms._plan, [], []

    def counted(factory):
        def level(*bound):
            search = factory(*bound)
            searches.append(search)
            return lambda *frontier: calls.append(frontier) or search(*frontier)
        return level

    def counted_plan(formula):
        plan = plan_of(formula)
        z1 = plan.names.index("z1") + 1
        return dataclasses.replace(plan, factories=tuple(
            counted(f) if i == z1 else f for i, f in enumerate(plan.factories)))

    monkeypatch.setattr(terms, "_plan", counted_plan)
    alg = reduce(product, [f() for f in factors])
    alpha = diagram_alpha(two_element(alg.cls))
    found = satisfying_assignment(alg, alpha)
    [search] = searches
    assert 0 < len(_closure(search)["pools"]) < len(calls)
    # naive_witness takes about 1 s at 12 elements and 140 s at 36.
    assert found == (naive_witness(alg, alpha) if alg.size <= 12 else _alpha_closed_form(alg))


def test_alpha_keeps_no_pool_past_the_room(monkeypatch):
    # A pool is kept only while the room exceeds n, the most it can hold;
    # past that z1 filters its candidates lazily, call by call.
    searches, plan_of = [], terms._plan

    def keep(factory):
        return lambda *bound: searches.append(factory(*bound)) or searches[-1]

    monkeypatch.setattr(terms, "_room", lambda q, n: [n])
    monkeypatch.setattr(terms, "_plan", lambda formula: dataclasses.replace(
        plan_of(formula), factories=tuple(map(keep, plan_of(formula).factories))))
    alg = product(b4_disc(), c3_simple())
    alpha = diagram_alpha(two_element(alg.cls))
    assert satisfying_assignment(alg, alpha) == naive_witness(alg, alpha)
    assert [_closure(s)["pools"] for s in searches if "pools" in _closure(s)] == [{}]


def test_memo_budget_keeps_every_alpha_entry_at_36_elements(monkeypatch):
    # alpha's levels and z1's pools are keyed on slots of at most n**2 values,
    # so the budget of q * n**2 entries (5 * 36**2 here) stores them all, floor
    # or not: 124 memo entries, and 80 pools of 404 values, each pool charged
    # its length plus one.
    monkeypatch.setattr(terms, "_MEMO_ENTRIES", 100)
    rooms = memo_rooms(monkeypatch)
    alg = reduce(product, [b4_disc(), c3_simple(), c3_simple()])
    two = two_element(alg.cls)
    found = satisfying_assignment(alg, diagram_alpha(two))
    assert (found is not None) == (homs(alg, two, "any_onto") is not None)
    [(room, budget)] = rooms
    assert (budget, budget - room[0]) == (5 * 36**2, 608)


def _once_per_frontier(factory):
    """factory with each search it builds asserting that no frontier reaches it twice."""
    def level(*bound):
        search, seen = factory(*bound), set()

        def checked(*frontier):
            assert frontier not in seen, frontier
            seen.add(frontier)
            return search(*frontier)

        return checked

    return level


def test_unmemoised_levels_never_see_a_frontier_twice(monkeypatch, nontrivial_algebras):
    # _plan leaves a level unmemoised when its key holds every variable above
    # it, or when it holds the variable and, modulo the atoms checked above,
    # the key of a memoised level just above: alpha's z1 and every other level
    # of the near star.  A memo there would never hit.
    plan_of = terms._plan

    def checked_plan(formula):
        plan = plan_of(formula)
        return dataclasses.replace(plan, factories=tuple(
            f if d == 0 or plan.frontier[d - 1] is not None else _once_per_frontier(f)
            for d, f in enumerate(plan.factories)))

    monkeypatch.setattr(terms, "_plan", checked_plan)
    big = reduce(product, [b4_disc(), c3_simple(), c3_simple()])
    for alg in (*nontrivial_algebras, big):
        alpha = diagram_alpha(two_element(alg.cls))
        assert plan_of(alpha).frontier[3] is None
        satisfying_assignment(alg, alpha)
    pair = _near_star(10)
    assert satisfy_atoms(two_ws5(), pair) == satisfy_atoms_oracle(two_ws5(), pair)
    # Level 3 is keyed on x2 but not on level 2's key x0 & x1, so its key
    # repeats across level 2's keys and it stays memoised.
    t = parse_term("((x0 & x1) & x2) | (x2 & x3) | (x1 & x3)")
    pair = DefiningPair(("x0", "x1", "x2", "x3"), ((t, Neg(t)),))
    assert satisfy_atoms(two_ws5(), pair) is None
    assert plan_of(FirstOrderFormula(tuple(("exists", v) for v in pair.variables),
                                     FoAtom(t, Neg(t)))).frontier[2:] == ((1, 4), (1, 2, 5))


def _alpha_closed_form(alg):
    """alpha's assignment read off the algebra: (x, y) is the lex-first pair whose
    e = [](x <-> y) is nonzero with down-set {0, e}, z0 is 0 and z1 the least z
    with e & z = e; None when no pair qualifies."""
    for x, y in itertools.product(alg.elements, repeat=2):
        e = alg.box[alg.meet[alg.impl[x][y]][alg.impl[y][x]]]
        if e and [z for z in alg.elements if alg.meet[z][e] == z] == [0, e]:
            z1 = next(z for z in alg.elements if alg.meet[e][z] == e)
            return {"x": x, "y": y, "z0": 0, "z1": z1}
    return None


def test_alpha_assignment_has_a_closed_form():
    algebras = [a for name in ("ws5", "hri", "hdp:1", "dht:1", "hdp:2", "dht:2")
                for a in build_catalog(VarietyClass.parse(name), 10).algebras if a.nontrivial]
    assert len(algebras) == 572
    for alg in algebras:
        alpha = diagram_alpha(two_element(alg.cls))
        assert satisfying_assignment(alg, alpha) == _alpha_closed_form(alg), alg.name


@pytest.mark.parametrize("factors", [
    (c3_simple, c3_simple, c3_simple),
    (b4_disc, b4_disc, c3_simple),
    (b4_prod, b4_disc, c3_simple),
    (b4_disc, c3_simple, b4_prod),
], ids=lambda fs: "x".join(f.__name__ for f in fs))
def test_alpha_on_fixture_products_matches_onto_hom_search(factors):
    alg = reduce(product, [f() for f in factors])
    two = two_element(alg.cls)
    found = satisfying_assignment(alg, diagram_alpha(two))
    assert (found is not None) == (homs(alg, two, "any_onto") is not None)
    if found is not None:
        # alpha's (x, y) is the lex-first pair whose principal congruence has
        # two blocks, i.e. whose quotient is 2
        first = next(p for p in itertools.product(alg.elements, repeat=2)
                     if len(principal_congruence(alg, *p).blocks) == 2)
        assert (found["x"], found["y"]) == first
