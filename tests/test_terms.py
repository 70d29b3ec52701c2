import itertools
import re
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finheyt.algebra import VarietyClass
from finheyt.congruence import product
from finheyt.decision import diagram_alpha
from finheyt.errors import TermEvalError, TermParseError
from finheyt.fixtures import (
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_simple,
    catalog_fixtures,
    two_element,
    two_ws5,
)
from finheyt.morphism import subalgebra_closure
from finheyt.terms import (
    CONST0,
    MAX_TERM_DEPTH,
    CONST1,
    Box,
    DefiningPair,
    Diamond,
    FirstOrderFormula,
    FoAtom,
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
    check_quasiidentity,
    parse_term,
    print_term,
    satisfy_atoms,
    _plan,
    term_vars,
)
from term_oracle import eval_term


def test_parse_examples():
    assert parse_term("[]x & []!x") == Meet(Box(Var("x")), Box(Neg(Var("x"))))
    assert parse_term("x -> y -> z") == Impl(Var("x"), Impl(Var("y"), Var("z")))
    assert parse_term("x -< (y | 1)") == Dimpl(Var("x"), Join(Var("y"), CONST1))


def test_parse_precedence_and_prefixes():
    assert parse_term("x & y | z") == Join(Meet(Var("x"), Var("y")), Var("z"))
    assert parse_term("~+x") == Invol(Dualneg(Var("x")))
    assert parse_term("<>[]x") == Diamond(Box(Var("x")))
    assert parse_term("!0 -> 1") == Impl(Neg(CONST0), CONST1)
    assert parse_term("a & b & c") == Meet(Meet(Var("a"), Var("b")), Var("c"))


_X, _Y, _Z = Var("x"), Var("y"), Var("z")


@pytest.mark.parametrize("src, tree", [
    ("x & y & z", Meet(Meet(_X, _Y), _Z)),
    ("x & y | z", Join(Meet(_X, _Y), _Z)),
    ("x & y -> z", Impl(Meet(_X, _Y), _Z)),
    ("x & y -< z", Dimpl(Meet(_X, _Y), _Z)),
    ("x | y & z", Join(_X, Meet(_Y, _Z))),
    ("x | y | z", Join(Join(_X, _Y), _Z)),
    ("x | y -> z", Impl(Join(_X, _Y), _Z)),
    ("x | y -< z", Dimpl(Join(_X, _Y), _Z)),
    ("x -> y & z", Impl(_X, Meet(_Y, _Z))),
    ("x -> y | z", Impl(_X, Join(_Y, _Z))),
    ("x -> y -> z", Impl(_X, Impl(_Y, _Z))),
    ("x -> y -< z", Impl(_X, Dimpl(_Y, _Z))),
    ("x -< y & z", Dimpl(_X, Meet(_Y, _Z))),
    ("x -< y | z", Dimpl(_X, Join(_Y, _Z))),
    ("x -< y -> z", Dimpl(_X, Impl(_Y, _Z))),
    ("x -< y -< z", Dimpl(_X, Dimpl(_Y, _Z))),
    ("!x & y", Meet(Neg(_X), _Y)),
    ("~x -> y", Impl(Invol(_X), _Y)),
    ("<>x | y", Join(Diamond(_X), _Y)),
])
def test_precedence_of_every_pair_of_infix_operators(src, tree):
    # & binds tighter than |, | than -> and -<, which associate to the right
    # with each other; a prefix binds tighter than every infix operator
    assert parse_term(src) == tree
    assert print_term(tree) == src


@pytest.mark.parametrize("tree, text", [
    (Impl(Impl(_X, _Y), _Z), "(x -> y) -> z"),
    (Dimpl(Impl(_X, _Y), _Z), "(x -> y) -< z"),
    (Meet(_X, Meet(_Y, _Z)), "x & (y & z)"),
    (Join(_X, Join(_Y, _Z)), "x | (y | z)"),
    (Meet(Join(_X, _Y), _Z), "(x | y) & z"),
    (Join(Impl(_X, _Y), _Z), "(x -> y) | z"),
    (Meet(_X, Impl(_Y, _Z)), "x & (y -> z)"),
    (Neg(Meet(_X, _Y)), "!(x & y)"),
    (Box(Impl(_X, _Y)), "[](x -> y)"),
    (Diamond(Neg(Join(_X, _Y))), "<>!(x | y)"),
])
def test_print_parenthesises_only_against_precedence(tree, text):
    assert print_term(tree) == text
    assert parse_term(text) == tree


def test_parse_errors_carry_positions():
    with pytest.raises(TermParseError) as e:
        parse_term("x &")
    assert e.value.position == 3
    with pytest.raises(TermParseError):
        parse_term("")
    with pytest.raises(TermParseError):
        parse_term("(x | y")
    with pytest.raises(TermParseError) as e:
        parse_term("x ? y")
    assert e.value.position == 2
    with pytest.raises(TermParseError):
        parse_term("x y")
    with pytest.raises(TermParseError):
        parse_term("2")


def test_parse_ignores_trailing_whitespace():
    # The tokenizer stops at whitespace after the last token, whatever it is.
    for tail in ("  ", "\t", " \n "):
        assert parse_term("x & y" + tail) == Meet(Var("x"), Var("y"))
    with pytest.raises(TermParseError) as e:
        parse_term("x &  ")
    assert e.value.position == 5


def test_parse_bounds_nesting_depth():
    deepest = parse_term("!" * MAX_TERM_DEPTH + "x")
    assert deepest == Neg(parse_term("!" * (MAX_TERM_DEPTH - 1) + "x"))
    assert parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH) == Var("x")
    for src in ("!" * (MAX_TERM_DEPTH + 1) + "x",
                "(" * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1),
                "x" + " -> x" * (MAX_TERM_DEPTH + 1),
                "x" + " | x" * (MAX_TERM_DEPTH + 1),
                "!" * 5000 + "x"):
        with pytest.raises(TermParseError):
            parse_term(src)


# the tokens of the term language, a few near misses, and blanks; a fixed alphabet,
# with non-ASCII letters, digits and blanks, spares hypothesis its unicode table
_TOKENS = st.sampled_from(["x", "y1", "_", "0", "1", "2", "&", "|", "->", "-<", "-", "<",
                           "!", "~", "+", "[]", "[", "<>", "(", ")", " ", "\t"])
_TEXT = st.text(string.printable + "\x00\u00a0\u2028\u3000\u00e9\u00df\u0663\u2227\u2192")


@given(_TEXT | st.lists(_TOKENS, max_size=30).map("".join))
@settings(max_examples=120, deadline=None)
def test_parse_term_returns_a_term_or_raises_parse_error(src):
    try:
        term = parse_term(src)
    except TermParseError:
        return
    assert isinstance(term, Term)


_LEAVES = st.one_of(
    st.sampled_from([CONST0, CONST1]),
    st.sampled_from(["x", "y", "z", "foo", "b_1"]).map(Var),
)


def _terms():
    unary = [Neg, Invol, Dualneg, Box, Diamond]
    binary = [Meet, Join, Impl, Dimpl]
    return st.recursive(
        _LEAVES,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(unary), kids).map(lambda p: p[0](p[1])),
            st.tuples(st.sampled_from(binary), kids, kids).map(lambda p: p[0](p[1], p[2])),
        ),
        max_leaves=25,
    )


@given(_terms())
@settings(max_examples=300)
def test_print_parse_roundtrip(term):
    assert parse_term(print_term(term)) == term


def test_eval_examples():
    assert eval_term(c3_simple(), parse_term("[]x"), {"x": 1}) == 0
    assert eval_term(two_ws5(), parse_term("<>x"), {"x": 1}) == 1
    assert eval_term(b4_prod(), parse_term("!x"), {"x": 1}) == 2
    assert eval_term(c3_hri(), parse_term("~x"), {"x": 0}) == 2
    assert eval_term(c3_hdp(), parse_term("+x"), {"x": 1}) == 2


def test_eval_errors():
    with pytest.raises(TermEvalError):
        eval_term(two_ws5(), parse_term("~x"), {"x": 0})
    with pytest.raises(TermEvalError):
        eval_term(two_ws5(), parse_term("x"), {})


@given(st.integers(0, 2), st.integers(0, 2))
def test_eval_respects_subalgebras(a, b):
    # closure of any carrier is closed under every term operation of the class
    alg = c3_hri()
    carrier = subalgebra_closure(alg, (a,))
    t = parse_term("~(x & y) -> []y")
    if b in carrier:
        assert eval_term(alg, t, {"x": a, "y": b}) in carrier


RHO = Quasiidentity(((Meet(Neg(Box(Var("x"))), Neg(Box(Neg(Var("x"))))), CONST1),),
                    (CONST0, CONST1))


def test_quasiidentity_rho_examples():
    from finheyt.fixtures import b4_disc

    assert check_quasiidentity(two_ws5(), RHO).holds
    failed = check_quasiidentity(b4_disc(), RHO)
    assert not failed.holds and failed.witness == {"x": 1}
    assert check_quasiidentity(b4_prod(), RHO).holds


def test_quasiidentity_witness_is_lex_first():
    from finheyt.fixtures import b4_disc

    chk = check_quasiidentity(b4_disc(), RHO)
    # elements 0 and 1 scanned in order; 0 does not satisfy the premise
    assert chk.witness == {"x": 1}


def test_quasiidentities_persist_under_products():
    # Persistence is one-directional: holding in both factors forces holding in
    # the product (equivalently a failure in the product traces to a factor).
    two, c3 = two_ws5(), c3_simple()
    from finheyt.fixtures import b4_disc, b4_prod

    pairs = [(two, two), (two, c3), (c3, c3), (two, b4_disc()), (c3, b4_disc()),
             (b4_prod(), two), (b4_disc(), b4_disc())]
    for a, b in pairs:
        prod_holds = check_quasiidentity(product(a, b), RHO).holds
        if check_quasiidentity(a, RHO).holds and check_quasiidentity(b, RHO).holds:
            assert prod_holds
        if not prod_holds:
            assert not (check_quasiidentity(a, RHO).holds and check_quasiidentity(b, RHO).holds)


def test_rho_in_product_does_not_reflect_to_factors():
    # Pinned counterexample: rho holds in 2 x C3simple (the first coordinate of
    # any witness would need box a = box !a = 0 in the two-element algebra)
    # although it fails in the factor C3simple.
    prod = product(two_ws5(), c3_simple())
    assert check_quasiidentity(prod, RHO).holds
    assert not check_quasiidentity(c3_simple(), RHO).holds


def test_missing_operation_raises_whatever_the_premises():
    # x = !x holds under no assignment, so the conclusion is never compared;
    # the missing ~ table is still an error.
    x = Var("x")
    q = Quasiidentity(((x, Neg(x)),), (Invol(x), x))
    with pytest.raises(TermEvalError):
        check_quasiidentity(two_ws5(), q)
    with pytest.raises(TermEvalError):
        satisfy_atoms(two_ws5(), DefiningPair(("x",), q.premises + (q.conclusion,)))


@pytest.mark.parametrize("lhs, symbol", [("<>x", "<>"), ("[]x", "[]")])
def test_satisfy_atoms_missing_box_names_the_operator_written(lhs, symbol):
    # <> is evaluated as ![]!, but the message names the operator the atom uses.
    pair = DefiningPair(("x",), ((parse_term(lhs), Var("x")),))
    with pytest.raises(TermEvalError, match=f"operation {re.escape(symbol)} unavailable"):
        satisfy_atoms(two_element(VarietyClass("heyting")), pair)


def _wide_plan(body: str):
    """The plan of exists x0..x19: body = !(body), as satisfy_atoms builds it."""
    t = parse_term(body)
    prefix = tuple(("exists", f"x{i}") for i in range(20))
    return _plan(FirstOrderFormula(prefix, FoAtom(t, Neg(t))))


def test_plan_does_not_memoise_a_level_that_sees_every_variable_above_it():
    # Each (x_i & x19) is computed at the last level and reads every x_i, so
    # every frontier holds all the variables above it and no key can repeat.
    star = _wide_plan(" | ".join(f"(x{i} & x19)" for i in range(19)))
    assert star.frontier == (None,) * 20


def test_plan_memoises_a_chain_on_its_running_meet():
    # Level d reads only x0 & ... & x(d-1) from above.  Levels 0 and 1 see
    # every variable above them (none, and x0 itself), so only they are left
    # unmemoised.
    chain = _wide_plan(" & ".join(f"x{i}" for i in range(20)))
    assert chain.frontier[:2] == (None, None)
    running = 0  # the slot of x0 & ... & x(d-1); slot d holds x_d
    for d in range(2, 20):
        running = chain.slots.index(("meet", running, d - 1))
        assert chain.frontier[d] == (running,)


def _near_star(k: int) -> DefiningPair:
    """The star with (x0 & xl) widened to (x0 & x1 & xl), xl the last of k
    variables: x0 is read only through x0 & x1, so every other level from 2
    on is memoised, on keys that rarely repeat."""
    last = f"x{k - 1}"
    body = " | ".join([f"(x0 & x1 & {last})"] + [f"(x{i} & {last})" for i in range(1, k - 1)])
    t = parse_term(body)
    return DefiningPair(tuple(f"x{i}" for i in range(k)), ((t, Neg(t)),))


def test_plan_memoises_the_near_star_from_level_2():
    pair = _near_star(20)
    plan = _plan(FirstOrderFormula(tuple(("exists", v) for v in pair.variables),
                                   FoAtom(*pair.atoms[0])))
    assert plan.frontier[:2] == (None, None)
    # Level d + 1 is keyed on level d's key and variable, so its memo could
    # hit only where level d's has: every other level is memoised.
    assert all(len(plan.frontier[d]) == d for d in range(2, 20, 2))
    assert all(plan.frontier[d] is None for d in range(3, 20, 2))


def test_memo_budget_bounds_memory_on_the_near_star():
    # The memos of the 16-variable near star hold 16,383 keys of up to 14
    # slots, within the budget of _MEMO_ENTRIES: 3.1 MB at the peak under
    # CPython 3.11, compiling the plan included.
    tracemalloc.start()
    try:
        assert satisfy_atoms(two_ws5(), _near_star(16)) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_plan_memoises_alpha_below_x_and_y():
    # Below y, alpha reads [](x<->y) and the other subterms that determine the
    # discriminator, never x or y themselves, so (x, y) pairs share memo hits.
    plan = _plan(diagram_alpha(two_ws5()))
    assert plan.names[:2] == ("x", "y")
    assert plan.frontier[:2] == (None, None)
    # z1's key holds z0's variable and, under the atom checked at z0, z0's key.
    assert plan.frontier[3] is None
    for key in plan.frontier[2::2]:
        assert key and not set(key) & {0, 1}


def test_satisfy_atoms_examples():
    two = two_ws5()
    assert satisfy_atoms(two, DefiningPair(("x",), ((parse_term("[]x"), Var("x")),))) == {"x": 0}
    assert satisfy_atoms(
        two, DefiningPair(("x",), ((parse_term("![]x & ![]!x"), CONST1),))
    ) is None
    env = satisfy_atoms(
        c3_simple(),
        DefiningPair(("x",), ((Neg(Var("x")), CONST0), (Box(Var("x")), CONST0))),
    )
    assert env == {"x": 1}


def test_satisfy_atoms_empty_presentation():
    assert satisfy_atoms(two_ws5(), DefiningPair((), ())) == {}


def test_satisfy_atoms_matches_bruteforce_on_fixtures():
    pairs = [
        DefiningPair(("x", "y"), ((parse_term("x & y"), CONST1),)),
        DefiningPair(("x", "y"), ((parse_term("x | y"), CONST1), (parse_term("x & y"), CONST0))),
        DefiningPair(("x",), ((parse_term("[]x"), CONST0), (parse_term("x"), CONST1))),
    ]
    for alg in catalog_fixtures():
        for pair in pairs:
            got = satisfy_atoms(alg, pair)
            expect = None
            for values in itertools.product(alg.elements, repeat=len(pair.variables)):
                env = dict(zip(pair.variables, values))
                if all(eval_term(alg, l, env) == eval_term(alg, r, env) for l, r in pair.atoms):
                    expect = env
                    break
            assert got == expect


def test_defining_pair_rejects_undeclared_variables():
    with pytest.raises(ValueError):
        DefiningPair(("x",), ((Var("x"), Var("y")),))
    with pytest.raises(ValueError, match="formula not closed"):
        FirstOrderFormula((("exists", "x"),), FoAtom(Var("x"), Var("y")))


@pytest.mark.parametrize("use", [
    print_term,
    lambda t: FirstOrderFormula((("exists", "x"),), FoAtom(Var("x"), t)),
    lambda t: DefiningPair(("x",), ((Var("x"), t),)),
], ids=["print_term", "FirstOrderFormula", "DefiningPair"])
@pytest.mark.parametrize("non_term", [5, "y", Term()], ids=["int", "str", "bare Term"])
def test_a_non_term_is_rejected_with_type_error(use, non_term):
    with pytest.raises(TypeError, match="not a term"):
        use(non_term)


def test_term_vars_first_occurrence_order():
    assert term_vars(parse_term("y & x -> y")) == ("y", "x")
