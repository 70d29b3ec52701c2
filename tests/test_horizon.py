"""The slow tier, which `pytest -m slow` selects: the command line on the catalogs
to 12 and on products of 64 to 288 elements, each command run in process within
its budget in seconds, and the lattice enumeration to 16."""

import json
import time
from collections import Counter
from dataclasses import replace
from functools import reduce

import pytest

from finheyt import cli, io
from finheyt.catalog import _posets_with_downsets, build_catalog
from finheyt.congruence import product
from finheyt.fixtures import b4_disc, b4_prod, c3_simple, two_ws5

pytestmark = pytest.mark.slow

def run(capsys, budget, *argv):
    """(exit code, stdout) of cli.main on argv, which must take at most budget seconds."""
    t0 = time.perf_counter()
    code = cli.main([str(a) for a in argv])
    assert time.perf_counter() - t0 <= budget, f"{argv} took over {budget} s"
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> file of each product (a broken one has meet[5][3] = 0) and the star."""
    b4prod, b4disc, c3 = b4_prod(), b4_disc(), c3_simple()
    algebras = {
        "b4prod2": product(b4prod, b4prod),
        "b4prod3": reduce(product, [b4prod] * 3),
        "b4prod4": reduce(product, [b4prod] * 4),
        "b4disc4": reduce(product, [b4disc] * 4),
        "b4disc3_c3simple": reduce(product, [b4disc] * 3 + [c3]),
        "b4disc_b4prod2": reduce(product, [b4disc, b4prod, b4prod]),
        "p288": reduce(product, [two_ws5(), b4prod, b4prod, c3, c3]),
    }
    assert algebras["p288"].size == 288 and algebras["p288"].meet[5][3] == 3
    for name in ("b4prod4", "p288"):
        meet = [list(row) for row in algebras[name].meet]
        meet[5][3] = 0
        algebras[f"{name}_broken"] = replace(algebras[name], meet=meet)
    root = tmp_path_factory.mktemp("products")
    for name, alg in algebras.items():
        io.write_algebra(root / f"{name}.json", alg)
    t = " | ".join(f"(x{i} & x19)" for i in range(19))  # t = !t has no solution in 2
    (root / "star.json").write_text(json.dumps({
        "vars": [f"x{i}" for i in range(20)], "atoms": [{"lhs": t, "rhs": f"!({t})"}]}))
    return {name: root / f"{name}.json" for name in [*algebras, "star"]}


@pytest.mark.parametrize("cls, total, at_12", [
    ("hri", 54, 19), ("ws5", 359, 159), ("hdp:1", 331, 145), ("dht:2", 342, 151),
])
def test_catalog_to_12(tmp_path, capsys, cls, total, at_12):
    # built cold: ws5 reads the enumeration's automorphism group of each lattice, hri
    # its dual automorphisms as well, hdp and dht its poset of join-irreducibles
    build_catalog.cache_clear()
    _posets_with_downsets.cache_clear()
    code, out = run(capsys, 60, "catalog", "--class", cls, "--max-size", "12",
                    "--out", tmp_path, "--json")
    record = json.loads(out)
    assert code == 0 and (record["total"], record["counts"]["12"]) == (total, at_12), record


def test_lattice_enumeration_to_16():
    # MAX_LATTICE_SIZE caps the catalogs at 12, not the enumeration; the counts of 13
    # to 16 are the OEIS A006982 terms (Erne, Heitzig and Reinhold, 2002)
    _posets_with_downsets.cache_clear()
    t0 = time.perf_counter()
    assert [len(_posets_with_downsets(n)) for n in range(13, 17)] == [269, 494, 891, 1639]
    assert time.perf_counter() - t0 <= 60


COMMANDS = [  # (budget, command, exit code, check of the output read as JSON)
    # alpha's memo budget grows with the algebra (under a fixed cap of 16,384 entries
    # this took 64 s); neither simple factor maps onto 2, so the product does not
    (20, "projective --class ws5 b4disc3_c3simple", 1, None),
    # the hom search combines each pair of reached elements once; B4prod² is a
    # retract of B4prod⁴, with the least section of the first onto map
    (30, "retract --json b4prod4 b4prod2", 0, lambda r: r["injection"] == [
        0, 16, 32, 48, 64, 80, 96, 112, 143, 159, 175, 191, 207, 223, 239, 255]),
    # an onto map between algebras of one size is an isomorphism, and these are not
    # isomorphic: at once (the hom search took 18 s)
    (10, "retract b4prod3 b4disc_b4prod2", 1, None),
    # B4prod³ = 2⁶ has 6 homs onto 2, one per atom; a hom into 2⁴ is 4 of them: 6⁴
    (30, "homs --count b4prod3 b4prod2", 0, lambda r: r == 1296),
    # 256 x 256 closure masks give the generators; B4prod⁴ = 2⁸ maps onto 2 by
    # x -> [b <= x] for an open atom b, whose up-set holds 128 of the 256 elements
    (20, "projective --class ws5 --json b4prod4", 0,
     lambda r: r["witness"][0] == 0 and sum(r["witness"]) == 128),
    # each atom's congruence is checked, and the projections multiply back
    (30, "decompose --json b4disc4", 0, lambda r: r["sizes"] == [4, 4, 4, 4]),
    # the violations come in the order of the plain triple loop, which the figures
    # pin; above 256 elements the sides of each identity are tuples, not bytes
    (30, "validate --json b4prod4_broken", 1, lambda r: len(r["violations"]) == 1780
     and r["violations"][0] == {"axiom": "meet-associative", "witness": [1, 5, 3]}),
    (60, "validate p288", 0, None),
    (60, "validate --json p288_broken", 1, lambda r: len(r["violations"]) == 4407
     and Counter(v["axiom"] for v in r["violations"]) == {
         "meet-associative": 4119, "distributive": 190, "residuation": 96, "meet-commutative": 2}
     and r["violations"][0] == {"axiom": "meet-commutative", "witness": [3, 5]}),
    # the star's search runs the deepest chain of generated levels, 21
    (60, "projective --class ws5 --presentation star", 1, None),
]


@pytest.mark.parametrize("budget, command, code, check", COMMANDS, ids=[c[1] for c in COMMANDS])
def test_command(files, capsys, budget, command, code, check):
    got, out = run(capsys, budget, *(files.get(word, word) for word in command.split()))
    assert got == code
    assert check is None or check(json.loads(out)), out[:500]
