"""Acceptance suite: one test per criterion, exhaustive at desk scale.

Each test prints a single `[acceptance N] PASS/FAIL` line (visible with -s)
and enforces the stated runtime budget.  The catalogs cover the decorated
discriminator classes up to size 8, and up to size 10 for the theorem checks
of criteria 1, 2, 6 and 8; the slow tier (`pytest -m slow`) runs these and
criteria 3, 7 and 10 to 12.  Size-1 entries are skipped wherever an operation
requires a nontrivial algebra.
"""

import itertools
import time

import pytest

from finheyt import congruence as cg
from finheyt import decision as dc
from finheyt import morphism as mr
from finheyt import terms as tm
from finheyt.algebra import VarietyClass, element_profile, discriminator_eval
from finheyt.catalog import build_catalog, enum_distributive_lattices
from finheyt.errors import TheoremViolation
from finheyt.fixtures import two_element
from finheyt.terms import CONST0, CONST1, DefiningPair, parse_term
from retract_oracle import retract_via_factor_pair
from term_oracle import eval_term


@pytest.fixture(scope="module", params=[pytest.param((8, 10), id=pytest.HIDDEN_PARAM),
                                        pytest.param((12, 12), id="12", marks=pytest.mark.slow)])
def sizes(request):
    """(n, m): the catalogs go to n, and to m for the theorem checks of criteria 1, 2, 6, 8."""
    return request.param


@pytest.fixture(scope="module")
def theorem_algebras(catalogs, sizes):
    """Every nontrivial catalog algebra of every acceptance class, sizes 2..m."""
    return [a for cls in catalogs for a in build_catalog(cls, sizes[1]).algebras if a.nontrivial]


def _report(num, name, failures, elapsed, budget=None):
    over = budget is not None and elapsed > budget
    status = "FAIL" if failures or over else "PASS"
    limit = f", budget {budget:.0f}s" if budget else ""
    print(f"[acceptance {num:2d}] {status} {name} ({elapsed:.1f}s{limit})")
    assert not failures, failures[:5]
    assert not over, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_four_way_equivalence(theorem_algebras):
    t0 = time.perf_counter()
    failures = []
    for alg in theorem_algebras:
        try:
            dc.decide_projective_finite(alg)
        except TheoremViolation as e:
            failures.append((alg.name, str(e)))
    _report(1, f"four-criterion equivalence on {len(theorem_algebras)} algebras",
            failures, time.perf_counter() - t0, budget=120)


def test_criterion_02_factor_congruences(theorem_algebras):
    t0 = time.perf_counter()
    failures = []

    def verdict(alg, theta):
        pair = cg.factor_complement(alg, theta)
        if pair is None:
            return "no complement"
        ok = (
            pair.theta.meet(pair.theta_prime).is_identity
            and pair.theta.join(pair.theta_prime).is_total
            and pair.theta.permutes_with(pair.theta_prime)
            and pair.iso.onto
            and pair.iso.injective
        )
        return None if ok else "complement not verified"

    for alg in theorem_algebras:
        verdicts = {}  # one complement, verified once, per distinct principal congruence
        for a in alg.elements:
            for b in alg.elements:
                theta = cg.principal_congruence(alg, a, b)
                if theta.blocks not in verdicts:
                    verdicts[theta.blocks] = verdict(alg, theta)
                if verdicts[theta.blocks] is not None:
                    failures.append((alg.name, a, b, verdicts[theta.blocks]))
    _report(2, "principal congruences have verified factor complements",
            failures, time.perf_counter() - t0, budget=60)


def test_criterion_03_simple_decomposition(sizes):
    t0 = time.perf_counter()
    failures = []
    ws5 = [a for a in build_catalog(VarietyClass("ws5"), sizes[0]).algebras if a.nontrivial]
    for alg in ws5:
        prof = element_profile(alg)  # cross-checks simplicity vs open count internally
        if prof.simple != (len(prof.open) == 2):
            failures.append((alg.name, "simplicity mismatch"))
        factors = cg.decompose_simples(alg)  # verifies the product is isomorphic back
        for f in factors:
            fprof = element_profile(f)
            if not fprof.simple or len(fprof.open) != 2:
                failures.append((alg.name, "non-simple factor"))
    _report(3, f"simple decomposition of {len(ws5)} ws5 algebras",
            failures, time.perf_counter() - t0)


def test_criterion_04_retract_theorem(catalogs):
    t0 = time.perf_counter()
    failures = []
    pairs = 0
    for cls, cat in catalogs.items():
        smalls = [a for a in cat.algebras if a.size <= 6]
        for b in smalls:
            for c in smalls:
                if b.size * c.size > 12:
                    continue
                pairs += 1
                p = cg.product(b, c)
                kernel = frozenset(b.top * c.size + y for y in c.elements)
                theta = cg.to_congruence(p, kernel)
                fp = cg.factor_complement(p, theta)
                try:
                    applicable, via = retract_via_factor_pair(p, b, fp)
                except TheoremViolation as e:
                    failures.append((b.name, c.name, str(e)))
                    continue
                witness = mr.is_retract(p, b)
                if not applicable or (via is None) != (witness is None):
                    failures.append((b.name, c.name, "retract search vs product construction"))
                via_hom = mr.homs(b, c, "any") is not None
                if (witness is not None) != via_hom:
                    failures.append((b.name, c.name, "retract search vs hom existence"))
                mh_full = b.nontrivial and mr.homs(b, two_element(b.cls), "any_onto") is not None
                if mh_full and c.nontrivial and witness is None:
                    failures.append((b.name, c.name, "mh-full algebra not a retract"))
    _report(4, f"retract theorem on {pairs} catalog pairs",
            failures, time.perf_counter() - t0, budget=120)


def test_criterion_05_filter_generation(catalog_algebras):
    t0 = time.perf_counter()
    failures = []

    def oracle(alg, seed):
        f = set(seed) | {alg.top}
        changed = True
        while changed:
            changed = False
            for a in list(f):
                news = set(alg.upset[a])
                news.update(alg.meet[a][b] for b in f)
                news.add(alg.box[a])
                fresh = news - f
                if fresh:
                    f |= fresh
                    changed = True
        return frozenset(f)

    smalls = [a for a in catalog_algebras if a.size <= 6]
    for alg in smalls:
        for k in range(1, alg.size + 1):
            for seed in itertools.combinations(alg.elements, k):
                if cg.generated_congfilter(alg, seed) != oracle(alg, seed):
                    failures.append((alg.name, seed))
        for f in cg.all_congruence_filters(alg):
            b = cg.principal_generator(alg, f)  # raises if the generator fails to verify
            if b not in f:
                failures.append((alg.name, sorted(f), "generator outside filter"))
    _report(5, f"filter generation vs closure oracle on {len(smalls)} algebras",
            failures, time.perf_counter() - t0)


def test_criterion_06_boolean_projection(theorem_algebras):
    t0 = time.perf_counter()
    failures = []
    for alg in theorem_algebras:
        bp, _ = cg.boolean_projection(alg)
        if not bp.boolean_h_reduct:
            failures.append((alg.name, "projection not Boolean"))
        for f in cg.all_congruence_filters(alg):
            q, _ = cg.quotient(alg, cg.to_congruence(alg, f))
            if q.boolean_h_reduct and mr.homs(bp, q, "any_onto") is None:
                failures.append((alg.name, sorted(f), "Boolean quotient misses factorization"))
    _report(6, "Boolean projections and their universal property",
            failures, time.perf_counter() - t0)


def test_criterion_07_operation_collapses(catalogs, sizes):
    t0 = time.perf_counter()
    failures = []
    seen = 0
    for alg in (a for cls in catalogs for a in build_catalog(cls, sizes[0]).algebras):
        if not alg.boolean_h_reduct:
            continue
        if alg.invol is not None:
            seen += 1
            if any(alg.invol[a] != alg.neg[a] for a in alg.elements):
                failures.append((alg.name, "invol differs from neg"))
        if alg.dualneg is not None:
            seen += 1
            if any(alg.dualneg[a] != alg.neg[a] for a in alg.elements):
                failures.append((alg.name, "dualneg differs from neg"))
        if alg.dimpl is not None:
            seen += 1
            bad = [
                (a, b)
                for a in alg.elements
                for b in alg.elements
                if alg.dimpl[a][b] != alg.neg[alg.impl[a][b]]
            ]
            if bad:
                failures.append((alg.name, "dimpl differs from neg(impl)", bad[:3]))
    assert seen > 0
    _report(7, f"operation collapses on {seen} Boolean-reduct algebras",
            failures, time.perf_counter() - t0)


def test_criterion_08_discriminator_property(theorem_algebras):
    t0 = time.perf_counter()
    failures = []
    simples = 0
    for alg in theorem_algebras:
        if not element_profile(alg).simple:
            continue
        simples += 1
        for a, b, c in itertools.product(alg.elements, repeat=3):
            expect = c if a == b else a
            if discriminator_eval(alg, a, b, c) != expect:
                failures.append((alg.name, a, b, c))
    _report(8, f"discriminator term on {simples} simple algebras, all triples",
            failures, time.perf_counter() - t0)


def _presentation_suite():
    ws5, hri = VarietyClass("ws5"), VarietyClass("hri")
    hdp, dht = VarietyClass("hdp", 1), VarietyClass("dht", 1)

    def pres(vars_, *atoms):
        return DefiningPair(tuple(vars_), tuple((parse_term(l), parse_term(r)) for l, r in atoms))

    return [
        (ws5, pres("x", ("[]x", "x"))),
        (ws5, pres("x", ("![]x & ![]!x", "1"))),
        (ws5, pres("", )),
        (ws5, pres("xy", ("x | y", "1"), ("x & y", "0"))),
        (ws5, pres("x", ("<>x", "1"), ("[]x", "0"))),
        (ws5, pres("xyz", ("(x -> y) & (y -> z) & !(x -> z)", "1"))),
        (ws5, pres("x", ("[]x", "<>x"))),
        (hri, pres("x", ("~x", "!x"))),
        (hri, pres("x", ("~x", "x"))),
        (hdp, pres("x", ("+x", "!x"))),
        (hdp, pres("xy", ("+x", "y"), ("x | y", "1"), ("x & y", "0"))),
        (dht, pres("xy", ("x -< y", "x & !y"))),
        (dht, pres("x", ("1 -< x", "1"), ("x", "1"))),
    ]


def test_criterion_09_presentation_decision_matches_bruteforce():
    t0 = time.perf_counter()
    failures = []
    suite = _presentation_suite()
    assert len(suite) >= 10
    for cls, pair in suite:
        two = two_element(cls)
        satisfiable = any(
            all(
                eval_term(two, l, dict(zip(pair.variables, vals)))
                == eval_term(two, r, dict(zip(pair.variables, vals)))
                for l, r in pair.atoms
            )
            for vals in itertools.product(two.elements, repeat=len(pair.variables))
        )
        verdict = dc.decide_projective_fp(cls, pair)
        if verdict.projective != satisfiable:
            failures.append((str(cls), pair, satisfiable))
        if verdict.projective and verdict.assignment is None:
            failures.append((str(cls), pair, "missing certificate"))
    _report(9, f"presentation decisions vs brute force on {len(suite)} presentations",
            failures, time.perf_counter() - t0, budget=1)


def test_criterion_10_enumeration_counts(sizes):
    t0 = time.perf_counter()
    n = sizes[0]
    want = [1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151][:n]  # OEIS A006982
    got = [len(enum_distributive_lattices(k)) for k in range(1, n + 1)]
    failures = [] if got == want else [got]
    _report(10, f"Heyting catalog counts {','.join(map(str, want))} for n=1..{n}",
            failures, time.perf_counter() - t0, budget=60)


def test_criterion_11_diagram_formula_soundness(catalog_algebras):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    betas = {}
    for alg in (a for a in catalog_algebras if a.size <= 6):
        two = two_element(alg.cls)
        if alg.cls not in betas:
            betas[alg.cls] = dc.diagram_beta(two)
        expect = mr.isomorphic(alg, two) is not None
        checked += 1
        if dc.eval_formula(alg, betas[alg.cls]) != expect:
            failures.append((alg.name,))
    _report(11, f"un-relativized diagram sentence on {checked} algebras of size <= 6",
            failures, time.perf_counter() - t0)
