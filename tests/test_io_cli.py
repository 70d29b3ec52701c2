import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finheyt import algebra, cli, decision, io
from finheyt.algebra import BINARY, TABLES, FiniteAlgebra, VarietyClass, validate
from finheyt.catalog import build_catalog
from finheyt.congruence import product
from finheyt.errors import InvalidAlgebraError, MalformedAlgebraError, TermParseError
from finheyt.fixtures import (
    b4_disc,
    b4_hri,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_identity_box,
    c3_simple,
    catalog_fixtures,
    two_ws5,
)
from finheyt.terms import (
    CONST0,
    CONST1,
    MAX_PRESENTATION_VARS,
    MAX_QUANTIFIERS,
    DefiningPair,
    Var,
    discriminator_term,
    print_term,
)
from term_oracle import eval_term


@pytest.fixture()
def files(tmp_path):
    out = {}
    for alg in (*catalog_fixtures(), c3_identity_box()):
        path = tmp_path / f"{alg.name}.json"
        io.write_algebra(path, alg)
        out[alg.name] = path
    return out


def test_algebra_roundtrip_bit_exact(tmp_path):
    for alg in catalog_fixtures():
        path = tmp_path / "alg.json"
        io.write_algebra(path, alg)
        back = io.read_algebra(path)
        assert back == alg
        assert back.name == alg.name
        io.write_algebra(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_text() == path.read_text()


def test_catalog_entries_revalidate_after_roundtrip(tmp_path):
    cat = build_catalog(VarietyClass("hdp", 1), 5)
    for alg in cat.algebras:
        path = tmp_path / f"{alg.name}.json"
        io.write_algebra(path, alg)
        assert validate(io.read_algebra(path)).valid


def _dht2_member():
    return next(a for a in build_catalog(VarietyClass("dht", 2), 3).algebras if a.nontrivial)


@pytest.mark.parametrize("make, extra", [
    (two_ws5, ["box"]),
    (c3_hri, ["box", "invol"]),
    (c3_hdp, ["box", "dualneg"]),
    (_dht2_member, ["box", "dualneg", "dimpl"]),
], ids=["ws5", "hri", "hdp", "dht"])
def test_write_uses_canonical_key_order(tmp_path, make, extra):
    path = tmp_path / "alg.json"
    io.write_algebra(path, make())
    keys = list(json.loads(path.read_text()))
    assert keys == ["name", "class", "size", "meet", "join", "impl", *extra]


def test_read_structural_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedAlgebraError) as e:
        io.read_algebra(bad)
    assert "line 1" in str(e.value)

    data = io.algebra_to_dict(two_ws5())
    data["meet"][0][1] = 7
    out = tmp_path / "range.json"
    out.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError):
        io.read_algebra(out)

    del data["meet"]
    out.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError) as e:
        io.read_algebra(out)
    assert "meet" in str(e.value)


@pytest.mark.parametrize("checked_first", [True, False])
def test_read_reports_axiom_violations(files, checked_first):
    # each read, cached or not, keeps the check it asks for
    for check in (checked_first, not checked_first) * 2:
        if check:
            with pytest.raises(InvalidAlgebraError, match="open-elements-boolean"):
                io.read_algebra(files["C3idbox"])
        else:
            assert io.read_algebra(files["C3idbox"], check=False).box == (0, 1, 2)


def test_a_repeated_read_returns_the_cached_algebra(files, tmp_path):
    assert io._parsed.cache_info().currsize == 0  # emptied before each test
    first = io.read_algebra(files["B4prod"])
    hits = io._parsed.cache_info().hits
    assert io.read_algebra(files["B4prod"]) is first
    assert io._parsed.cache_info().hits == hits + 1
    # An unchecked read leaves out a derived table the file lacks, and the
    # checked read of the same text fills it in.
    data = io.algebra_to_dict(c3_hri())
    del data["box"]
    path = tmp_path / "no_box.json"
    path.write_text(json.dumps(data))
    assert io.read_algebra(path, check=False).box is None
    assert io.read_algebra(path) == c3_hri()


def test_the_cache_holds_32_files_read_checked(tmp_path):
    # Each checked read keeps its own entry and the unchecked one it completes.
    paths = [tmp_path / f"two{i}.json" for i in range(32)]
    for i, path in enumerate(paths):
        io.write_algebra(path, two_ws5().rename(f"two{i}"))
    first = [io.read_algebra(path) for path in paths]
    assert all(io.read_algebra(path) is alg for path, alg in zip(paths, first))


@pytest.mark.parametrize("validate_first", [True, False])
def test_a_complete_file_runs_its_axioms_once(files, monkeypatch, validate_first):
    # The checked read completes the cached unchecked one, which already
    # carries every table, and reuses the report validate computed, or the
    # other way round.
    calls, axioms, path = [], algebra._axioms, files["B4prod"]
    monkeypatch.setattr(algebra, "_axioms", lambda alg: calls.append(alg) or axioms(alg))
    if validate_first:
        assert validate(io.read_algebra(path, check=False)).valid
    checked = io.read_algebra(path)
    assert validate(io.read_algebra(path, check=False)).valid
    assert checked is io.read_algebra(path, check=False)
    assert len(calls) == 1


def test_a_rewritten_file_is_read_anew(files):
    path = files["B4prod"]
    assert io.read_algebra(path) == b4_prod()
    stat = path.stat()
    io.write_algebra(path, b4_disc())
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # the same path and mtime
    back = io.read_algebra(path)
    assert back == b4_disc() and back.name == "B4disc"


def test_a_malformed_file_raises_on_every_read_naming_its_own_path(tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        path.write_text('{"name": "x"}')
    for path in paths * 2:
        with pytest.raises(MalformedAlgebraError) as e:
            io.read_algebra(path)
        assert str(e.value) == f"{path}: missing key 'class'"


def test_read_presentation_and_quasiidentity(tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"vars": ["x", "y"], "atoms": [{"lhs": "x & y", "rhs": "1"}]}))
    pair = io.read_presentation(pres)
    assert pair.variables == ("x", "y")
    assert print_term(pair.atoms[0][0]) == "x & y"


# -- CLI ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_cli_matches_golden_transcript():
    """Exit code, stdout and stderr of every subcommand, human and --json, as
    recorded in tests/data/cli_golden.json by scripts/cli_golden.py."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("cli_golden", root / "scripts" / "cli_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.golden_text() == (root / "tests" / "data" / "cli_golden.json").read_text()


def test_cli_validate(files, capsys):
    code, out, _ = run_cli(capsys, "validate", files["TwoWS5"])
    assert code == 0 and "valid" in out
    code, out, _ = run_cli(capsys, "validate", files["C3idbox"], "--json")
    assert code == 1
    record = json.loads(out)
    assert record["violations"][0]["axiom"] == "open-elements-boolean"


def test_cli_validate_structural_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2")
    code, _, err = run_cli(capsys, "validate", bad)
    assert code == 2 and "error" in err


def test_cli_profile(files, capsys):
    code, out, _ = run_cli(capsys, "profile", files["B4disc"], "--json")
    assert code == 0
    record = json.loads(out)
    assert record["open"] == [0, 3] and record["simple"] is True


def test_cli_homs(files, capsys):
    code, out, _ = run_cli(capsys, "homs", files["B4prod"], files["TwoWS5"], "--count")
    assert code == 0 and out == "2"
    code, out, _ = run_cli(capsys, "homs", files["B4disc"], files["TwoWS5"], "--onto")
    assert code == 1 and out == "none"
    code, out, _ = run_cli(capsys, "homs", files["B4prod"], files["TwoWS5"], "--all", "--json")
    assert code == 0
    assert json.loads(out)["maps"] == [[0, 0, 1, 1], [0, 1, 0, 1]]
    code, out, _ = run_cli(capsys, "homs", files["B4prod"], files["B4prod"],
                           "--all", "--cap", "1")
    assert code == 0 and "truncated" in out


def test_cli_homs_onto_cap_counts_onto_maps(files, tmp_path, capsys):
    # the cap bounds the onto maps kept, not the maps searched before the onto filter
    prod = tmp_path / "prod.json"
    io.write_algebra(prod, product(b4_prod(), two_ws5()))
    code, out, _ = run_cli(capsys, "homs", prod, files["B4prod"], "--onto", "--count", "--json")
    assert code == 0 and json.loads(out) == {"command": "homs", "count": 6, "truncated": False}
    code, out, _ = run_cli(capsys, "homs", prod, files["B4prod"], "--onto", "--count",
                           "--cap", "1", "--json")
    assert code == 0 and json.loads(out) == {"command": "homs", "count": 1, "truncated": True}
    code, out, _ = run_cli(capsys, "homs", prod, files["B4prod"], "--onto", "--all",
                           "--cap", "1", "--json")
    record = json.loads(out)
    assert code == 0 and len(record["maps"]) == 1 and record["truncated"]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cli_homs_cap_below_one_exits_2(files, capsys, cap):
    code, out, err = run_cli(capsys, "homs", files["B4prod"], files["B4prod"],
                             "--count", "--cap", cap)
    assert code == 2 and out == ""
    assert "cap must be at least 1" in err and "Traceback" not in err


def test_cli_parser_is_built_once_and_reused_after_errors(files, capsys):
    assert cli.build_parser() is cli.build_parser()
    valid = ["homs", files["B4prod"], files["TwoWS5"], "--count", "--json"]
    alone = subprocess.run(
        [sys.executable, "-m", "finheyt.cli", *map(str, valid)],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
    )
    assert alone.returncode == 0 and json.loads(alone.stdout) == {
        "command": "homs", "count": 2, "truncated": False}
    assert run_cli(capsys, "homs", files["B4prod"], files["B4prod"], "--count", "--cap", "0")[0] == 2
    with pytest.raises(SystemExit) as rejected:
        run_cli(capsys, "quotient", files["B4prod"])  # --filter is required
    assert rejected.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *valid) == (0, alone.stdout.strip(), "")


@pytest.mark.parametrize("cap", ["0", "1"])
def test_cli_homs_cap_without_count_or_all_exits_2(files, capsys, cap):
    code, out, err = run_cli(capsys, "homs", files["B4prod"], files["B4prod"], "--cap", cap)
    assert code == 2 and out == ""
    assert "--cap applies only with --count or --all" in err and "Traceback" not in err


def test_cli_quotient(files, capsys):
    code, out, _ = run_cli(capsys, "quotient", files["B4prod"], "--filter", "1,3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["projection"] == [0, 1, 0, 1]
    assert record["algebra"]["size"] == 2
    code, _, err = run_cli(capsys, "quotient", files["B4prod"], "--filter", "0,3")
    assert code == 2 and "not a congruence filter" in err
    # the whole chain is the congruence filter of 0: one block
    code, out, _ = run_cli(capsys, "quotient", "--json", files["C3simple"], "--filter", "0,1,2")
    assert code == 0 and json.loads(out)["blocks"] == [[0, 1, 2]]
    # {1, 2} is an h-filter but not box-closed, {0, 2} not an h-filter: exit 2
    for carrier in ("1,2", "0,2"):
        assert run_cli(capsys, "quotient", files["C3simple"], "--filter", carrier)[0] == 2


@pytest.mark.parametrize("carrier", ["3,99", "3,-1"])
def test_cli_quotient_rejects_elements_outside_the_universe(files, capsys, carrier):
    code, out, err = run_cli(capsys, "quotient", files["B4prod"], "--filter", carrier)
    assert code == 2 and out == ""
    assert "outside 0..3" in err and "Traceback" not in err


def test_cli_decompose(files, capsys):
    code, out, _ = run_cli(capsys, "decompose", files["B4prod"], "--json")
    assert code == 0 and json.loads(out)["sizes"] == [2, 2]


def test_cli_decompose_calls_heyting_factors_indecomposable(files, tmp_path, capsys):
    # The Heyting chain of three is directly indecomposable but not simple: its
    # filter {1, 2} is a congruence filter.  With a box the factors are simple.
    chain = next(a for a in build_catalog(VarietyClass("heyting"), 3).algebras if a.size == 3)
    path = tmp_path / "chain.json"
    io.write_algebra(path, chain)
    assert run_cli(capsys, "decompose", path) == (0, "1 indecomposable factor(s), sizes [3]", "")
    code, out, _ = run_cli(capsys, "profile", path)
    assert code == 0 and "simple=False" in out
    code, out, _ = run_cli(capsys, "decompose", files["B4prod"])
    assert code == 0 and out == "2 simple factor(s), sizes [2, 2]"


def test_cli_projective(files, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "projective", "--class", "ws5", files["B4prod"])
    assert code == 0 and "True" in out
    code, out, _ = run_cli(capsys, "projective", "--class", "ws5", files["B4disc"])
    assert code == 1
    code, _, err = run_cli(capsys, "projective", "--class", "hri", files["B4prod"])
    assert code == 2  # class mismatch

    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"vars": ["x"], "atoms": [{"lhs": "[]x", "rhs": "x"}]}))
    code, out, _ = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres,
                           "--json")
    assert code == 0 and json.loads(out)["assignment"] == {"x": 0}
    code, _, err = run_cli(capsys, "projective", "--class", "ws5")
    assert code == 2


def _onto_two_above_the_top(alg, two, mode):
    # onto 2, but x -> [x = top] is not x -> [b <= x] for either open atom b of B4prod
    return types.SimpleNamespace(map=tuple(int(x == alg.top) for x in alg.elements))


@pytest.mark.parametrize("target, name, patch", [
    (decision.morphism, "homs", _onto_two_above_the_top),
    (FiniteAlgebra, "open_set", property(lambda alg: frozenset({0, alg.top}))),
], ids=["witness-not-an-open-atom", "no-open-atom"])
def test_cli_projective_exits_3_when_the_onto_homs_to_two_miss_the_open_atoms(
        files, capsys, monkeypatch, target, name, patch):
    monkeypatch.setattr(target, name, patch)
    code, out, err = run_cli(capsys, "projective", "--class", "ws5", files["B4prod"], "--json")
    assert (code, out) == (3, "")
    assert "theorem violation: the onto homs to 2 of" in err


def test_cli_rho_alpha(files, capsys):
    assert run_cli(capsys, "rho", files["B4prod"])[0] == 0
    code, out, _ = run_cli(capsys, "rho", files["B4disc"], "--json")
    assert code == 1 and json.loads(out)["witness"] == {"x": 1}
    assert run_cli(capsys, "alpha", files["B4prod"])[0] == 0
    assert run_cli(capsys, "alpha", files["B4disc"])[0] == 1


def test_cli_alpha_witness(files, capsys):
    code, out, _ = run_cli(capsys, "alpha", files["B4prod"], "--json")
    assert code == 0 and json.loads(out) == {"command": "alpha", "holds": True, "witness": [0, 1],
                                             "assignment": {"x": 0, "y": 1, "z0": 0, "z1": 2}}
    code, out, _ = run_cli(capsys, "alpha", files["B4disc"], "--json")
    assert code == 1 and json.loads(out) == {"command": "alpha", "holds": False, "witness": None,
                                             "assignment": None}


def test_cli_alpha_assignment_holds_the_images_of_0_and_1(files, capsys):
    code, out, _ = run_cli(capsys, "alpha", files["B4prod"], "--json")
    found = json.loads(out)["assignment"]
    alg = io.read_algebra(files["B4prod"])
    env = {"x": found["x"], "y": found["y"]}
    images = [eval_term(alg, discriminator_term(Var("x"), Var("y"), c), env)
              for c in (CONST0, CONST1)]
    assert code == 0 and [found["z0"], found["z1"]] == images


def _set(path, value):
    def edit(data):
        *keys, last = path
        for k in keys:
            data = data[k]
        data[last] = value
    return edit


def _trivial():
    return {"class": {"kind": "ws5"}, "size": 1, "meet": [[0]], "join": [[0]], "impl": [[0]],
            "box": [0]}


@pytest.mark.parametrize("base, edit", [
    (two_ws5, _set(["meet"], [1, 2])),
    (two_ws5, _set(["box"], 5)),
    (_trivial, _set(["size"], True)),
    (two_ws5, _set(["meet", 0, 0], False)),
    (_trivial, _set(["box", 0], False)),
    (c3_hdp, _set(["class", "level"], "1")),
    (_trivial, _set(["size"], 0)),
    (two_ws5, _set(["invol"], [1, 0])),
], ids=["row-not-a-list", "table-not-a-list", "boolean-size", "boolean-cell",
        "boolean-unary-cell", "string-level", "size-zero", "foreign-table"])
@pytest.mark.parametrize("command", ["validate", "profile"])
def test_cli_malformed_algebra_exits_2(tmp_path, capsys, base, edit, command):
    data = base() if base is _trivial else io.algebra_to_dict(base())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError):
        io.read_algebra(path)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_cli_projective_at_a_level_far_above_the_size_answers_promptly(tmp_path, capsys):
    """hdp:10**9 decides on the two-element algebra as hdp:1 does, without
    iterating boxdot 10**9 times."""
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"vars": ["x", "y"], "atoms": [
        {"lhs": "x | y", "rhs": "1"}, {"lhs": "x & y", "rhs": "0"}]}))
    t0 = time.perf_counter()
    huge = run_cli(capsys, "projective", "--class", "hdp:1000000000", "--presentation", pres,
                   "--json")
    assert time.perf_counter() - t0 < 10
    assert huge[0] == 0
    assert huge == run_cli(capsys, "projective", "--class", "hdp:1", "--presentation", pres,
                           "--json")


def test_cli_projective_malformed_presentation_exits_2(tmp_path, capsys):
    for data in (5, {"vars": ["x"], "atoms": [3]}):
        pres = tmp_path / "bad.json"
        pres.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)
        assert code == 2 and "expected an object" in err


def test_cli_projective_deeply_nested_presentation_exits_2(tmp_path, capsys):
    for lhs in ("!" * 5000 + "x", "(" * 5000 + "x" + ")" * 5000, "x" + " & x" * 5000):
        pres = tmp_path / "deep.json"
        pres.write_text(json.dumps({"vars": ["x"], "atoms": [{"lhs": lhs, "rhs": "x"}]}))
        code, _, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)
        assert code == 2 and ("nests deeper" in err or "higher than" in err)


def test_cli_projective_presentation_with_too_many_variables_exits_2(tmp_path, capsys):
    names = [f"x{i}" for i in range(MAX_PRESENTATION_VARS + 1)]
    conj = " & ".join(names)
    pres = tmp_path / "wide.json"
    pres.write_text(json.dumps({"vars": names, "atoms": [{"lhs": conj, "rhs": f"!({conj})"}]}))
    code, out, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)
    assert code == 2 and out == "" and "21 variables" in err and "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({"vars": [[1]], "atoms": []}, "not a string"),
    ({"vars": ["x", "x"], "atoms": [{"lhs": "x", "rhs": "x"}]}, "declared twice"),
], ids=["non-string-variable", "duplicate-variable"])
def test_cli_projective_ill_typed_presentation_exits_2(tmp_path, capsys, data, message):
    pres = tmp_path / "bad.json"
    pres.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError):
        io.read_presentation(pres)
    code, out, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)
    assert code == 2 and out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("atoms", [
    [{"lhs": "x", "rhs": "!x"}, {"lhs": "~x", "rhs": "x"}],
    [{"lhs": "~x", "rhs": "x"}, {"lhs": "x", "rhs": "!x"}],
], ids=["unsatisfiable-atom-first", "ill-typed-atom-first"])
def test_cli_projective_ill_typed_atom_exits_2_in_any_order(tmp_path, capsys, atoms):
    # x = !x fails under every assignment, so an evaluator that checks atoms in
    # order would never reach ~x, which ws5 lacks.
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"vars": ["x"], "atoms": atoms}))
    code, out, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)
    assert code == 2 and out == "" and "operation ~ unavailable" in err and "Traceback" not in err


def test_cli_projective_heyting_presentation_exits_2(tmp_path, capsys):
    # x | !x = 1 presents 2 x 2, projective in ws5 but not among Heyting algebras,
    # where compact congruences need not be factor congruences.
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"vars": ["x"], "atoms": [{"lhs": "x | !x", "rhs": "1"}]}))
    assert run_cli(capsys, "projective", "--class", "ws5", "--presentation", pres)[0] == 0
    code, out, err = run_cli(capsys, "projective", "--class", "heyting", "--presentation", pres)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "decided for the classes ws5, hri, hdp:N and dht:N, not heyting" in err


@pytest.mark.parametrize("command", ["validate", "profile"])
def test_cli_non_string_algebra_name_exits_2(tmp_path, capsys, command):
    data = io.algebra_to_dict(two_ws5())
    data["name"] = ["TwoWS5"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError):
        io.read_algebra(path)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2 and out == "" and "'name' has wrong type" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["validate"], ["profile"], ["decompose"], ["projective", "--class", "ws5", "--presentation"],
])
def test_cli_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, *command, path)
    assert code == 2 and out == "" and "nests too deeply" in err and "Traceback" not in err


def test_cli_retract(files, capsys):
    code, out, _ = run_cli(capsys, "retract", files["B4prod"], files["TwoWS5"], "--json")
    assert code == 0
    record = json.loads(out)
    assert record["is_retract"] and len(record["injection"]) == 2
    assert run_cli(capsys, "retract", files["B4disc"], files["TwoWS5"])[0] == 1
    assert run_cli(capsys, "retract", files["TwoWS5"], files["B4disc"])[0] == 2


def test_cli_boolproj(files, capsys):
    code, out, _ = run_cli(capsys, "boolproj", files["C3simple"], "--json")
    assert code == 0 and json.loads(out)["algebra"]["size"] == 1


def test_cli_primitive(files, capsys):
    assert run_cli(capsys, "primitive", files["TwoWS5"], files["B4prod"])[0] == 0
    code, out, _ = run_cli(capsys, "primitive", files["B4disc"])
    assert code == 1 and "rho fails" in out


def test_cli_primitive_without_files_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["primitive"])
    assert e.value.code == 2
    assert "required: files" in capsys.readouterr().err
    assert decision.primitive_report([]).primitive  # vacuous over no algebras


def test_cli_catalog(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog", "--class", "ws5", "--max-size", "4",
                           "--out", tmp_path / "cat", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["total"] == 6
    written = sorted(p.name for p in (tmp_path / "cat").glob("*.json"))
    assert len(written) == 6
    for p in (tmp_path / "cat").glob("*.json"):
        assert validate(io.read_algebra(p)).valid


def test_cli_projective_on_a_heyting_algebra_names_the_decided_classes(tmp_path, capsys):
    assert run_cli(capsys, "catalog", "--class", "heyting", "--max-size", "3",
                   "--out", tmp_path)[0] == 0
    code, out, err = run_cli(capsys, "projective", "--class", "heyting",
                             tmp_path / "heyting_n3_00.json")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "decided for the classes ws5, hri, hdp:N and dht:N, not heyting" in err


@pytest.mark.parametrize("size", ["0", "-1", "13"])
def test_cli_catalog_max_size_out_of_range_exits_2(tmp_path, capsys, size):
    code, out, err = run_cli(capsys, "catalog", "--class", "ws5", "--max-size", size,
                             "--out", tmp_path / "cat")
    assert code == 2 and out == ""
    assert "max size must be within 1..12" in err
    assert not (tmp_path / "cat").exists()


def test_cli_hri_file_without_box_gets_derived(tmp_path, capsys):
    raw = c3_hri()
    data = io.algebra_to_dict(raw)
    del data["box"]
    path = tmp_path / "hri.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "profile", path, "--json")
    assert code == 0 and json.loads(out)["open"] == [0, 2]


def test_cli_size_6_decorations_are_written_and_read_back(tmp_path, capsys):
    # the box and (dht) dualneg the catalog derives are written and read back, and a
    # dht file without dualneg is completed on reading and answers as the whole file
    for cls, name in (("dht:2", "dht_2_n6_00"), ("hdp:1", "hdp_1_n6_00"), ("hri", "hri_n6_03")):
        assert run_cli(capsys, "catalog", "--class", cls, "--max-size", "6", "--out", tmp_path)[0] == 0
        for command in ("validate", "decompose", "boolproj"):
            assert run_cli(capsys, command, tmp_path / f"{name}.json", "--json")[0] == 0, command
    whole, bare = tmp_path / "dht_2_n6_00.json", tmp_path / "no_dualneg.json"
    data = json.loads(whole.read_text())
    del data["dualneg"]
    bare.write_text(json.dumps(data))
    for command in (["projective", "--class", "dht:2"], ["alpha"]):
        assert run_cli(capsys, *command, bare) == run_cli(capsys, *command, whole), command


def _stripped_variants():
    """(algebra, dropped): each algebra with every nonempty set of its optional
    derived tables removed, box for hri and hdp, box and dualneg for dht."""
    algebras = [c3_hri(), c3_hdp(), b4_hri()]
    for cls in (VarietyClass("hri"), VarietyClass("hdp", 1), VarietyClass("dht", 2)):
        algebras += build_catalog(cls, 4).algebras
    for alg in algebras:
        derived = ("box", "dualneg") if alg.cls.kind == "dht" else ("box",)
        for k in range(1, len(derived) + 1):
            for dropped in itertools.combinations(derived, k):
                yield pytest.param(alg, dropped, id=f"{alg.name}-no-{'-'.join(dropped)}")


@pytest.mark.parametrize("alg, dropped", _stripped_variants())
def test_cli_stripped_derived_tables_change_no_answer(tmp_path, capsys, alg, dropped):
    """Every command but validate reads a file complete, so a file without its
    derived tables answers as the complete file does, also against it."""
    full, stripped = tmp_path / "full.json", tmp_path / "stripped.json"
    io.write_algebra(full, alg)
    data = io.algebra_to_dict(alg)
    for name in dropped:
        del data[name]
    stripped.write_text(json.dumps(data))

    def answer(*argv):
        return run_cli(capsys, *argv, "--json")[:2]

    for command in (["profile"], ["projective", "--class", str(alg.cls)], ["rho"], ["alpha"],
                    ["decompose"], ["boolproj"]):
        assert answer(*command, stripped) == answer(*command, full), command
    for command in (["homs", "--count"], ["retract"]):
        want = answer(*command, full, full)
        assert answer(*command, stripped, full) == want, command
        assert answer(*command, full, stripped) == want, command


def _without_derived(make):
    """The file of make() without its derived tables, box and (dht) dualneg."""
    def data():
        out = io.algebra_to_dict(make())
        out.pop("box")
        out.pop("dualneg", None)
        return out
    return data


def _drop_rows(data):
    for row in data["dimpl"]:
        row.pop()


@pytest.mark.parametrize("base, edit, message", [
    (_without_derived(c3_hri), _set(["invol"], [2, 99, 0]), "invol[1] = 99 out of range"),
    (_without_derived(c3_hri), _set(["invol"], [2, 1]), "invol: expected 3 entries, got 2"),
    (_without_derived(c3_hri), lambda d: d.pop("invol"), "requires table invol"),
    (_without_derived(_dht2_member), lambda d: d["dimpl"].pop(), "dimpl: expected 2 rows"),
    (_without_derived(_dht2_member), _drop_rows, "dimpl[0]: expected 2 entries"),
], ids=["hri-invol-out-of-range", "hri-invol-short", "hri-invol-absent", "dht-dimpl-row-missing",
        "dht-dimpl-rows-short"])
@pytest.mark.parametrize("command", ["profile", "projective"])
def test_cli_malformed_incomplete_algebra_exits_2(tmp_path, capsys, base, edit, message,
                                                  command):
    """Structure is checked before any derived table is computed from it."""
    data = base()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedAlgebraError):
        io.read_algebra(path)
    cls = data["class"]["kind"] + (f":{data['class']['level']}" if "level" in data["class"] else "")
    argv = [command, path] if command == "profile" else [command, "--class", cls, path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err
    assert message in err


# -- the exit-code contract on mutated files ------------------------------------

# what a mutation writes in place of an entry: ill-typed values, huge ints, and
# term-like strings for the presentations' lhs and rhs; a fixed alphabet spares
# hypothesis its one-off unicode table
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(alphabet='a "\\{}:,\x00\u00e9', max_size=6),
    st.lists(st.integers(-1, 4), max_size=3),
    st.integers(2**63, 2**100), st.integers(-2**100, -2**63),
    st.text(alphabet="xyz01|&!~+()[]<>-", max_size=12),
)
_CONTRACT_ALGEBRAS = {"ws5": two_ws5, "hri": c3_hri, "hdp:1": c3_hdp, "dht:2": _dht2_member}
_PRESENTATION = {"vars": ["x", "y"], "atoms": [{"lhs": "x | y", "rhs": "1"},
                                               {"lhs": "[]x & y", "rhs": "0"}]}


def _entries(value, path=()):
    """The path to every entry of a JSON value, below the top."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, entry in items:
        yield (*path, key)
        if isinstance(entry, (dict, list)):
            yield from _entries(entry, (*path, key))


@st.composite
def _mutated_inputs(draw):
    """(argv, files): a command over a file, "A", whose JSON had one to three
    entries removed or replaced by junk, and the file it came from, "G"."""
    if draw(st.booleans()):
        cls = draw(st.sampled_from(sorted(_CONTRACT_ALGEBRAS)))
        data = io.algebra_to_dict(_CONTRACT_ALGEBRAS[cls]())
        argv = draw(st.sampled_from([
            ["validate", "A"], ["profile", "A"], ["decompose", "A"], ["rho", "A"],
            ["alpha", "A"], ["boolproj", "A"], ["primitive", "A", "G"],
            ["quotient", "--filter", str(data["size"] - 1), "A"],
            ["projective", "--class", cls, "A"], ["homs", "--onto", "A", "G"],
            ["homs", "--count", "G", "A"], ["retract", "A", "G"],
        ]))
    else:
        cls = draw(st.sampled_from(["ws5", "hri", "hdp:1", "dht:2", "hdp:1000000000"]))
        data = json.loads(json.dumps(_PRESENTATION))
        argv = ["projective", "--class", cls, "--presentation", "A"]
    files = {"G": json.dumps(data)}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_entries(data))
        if not paths:
            break
        tops = [p for p in paths if len(p) == 1 or p[0] == "class"]  # keys, class, size
        *where, key = draw(st.sampled_from(tops) | st.sampled_from(paths))
        parent = data
        for k in where:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    files["A"] = json.dumps(data)
    return argv, files


def _hri_without_box(**edits):
    return json.dumps({k: v for k, v in {**io.algebra_to_dict(c3_hri()), **edits}.items()
                       if k != "box"})


def _wide_presentation(k):
    names = [f"v{i}" for i in range(k)]
    return json.dumps({"vars": names, "atoms": [{"lhs": " & ".join(names), "rhs": "1"}]})


@given(case=_mutated_inputs())
@example(case=(["validate", "A"], {"A": "[" * 100_000 + "]" * 100_000}))
@example(case=(["projective", "--class", "ws5", "--presentation", "A"],
               {"A": _wide_presentation(MAX_PRESENTATION_VARS + 1)}))
@example(case=(["projective", "--class", "ws5", "--presentation", "A"],
               {"A": _wide_presentation(MAX_QUANTIFIERS + 1)}))
@example(case=(["projective", "--class", "ws5", "--presentation", "A"],
               {"A": json.dumps({"vars": ["x"], "atoms": [{"lhs": "x", "rhs": "!x"},
                                                          {"lhs": "~x", "rhs": "x"}]})}))
@example(case=(["projective", "--class", "hdp:1000000000", "--presentation", "A"],
               {"A": json.dumps(_PRESENTATION)}))
@example(case=(["quotient", "--filter", "3,99", "A"],
               {"A": json.dumps(io.algebra_to_dict(b4_prod()))}))
@example(case=(["profile", "A"], {"A": _hri_without_box(invol=[2, 99, 0])}))
@example(case=(["projective", "--class", "hri", "A"], {"A": _hri_without_box(invol=[2, 1])}))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_code_contract_on_mutated_files(tmp_path, capsys, case):
    """Every command ends in 0, 1 or 2 on any mutation of a valid algebra or
    presentation file, and an error is a message, never a traceback."""
    argv, files = case
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run_cli(capsys, *(tmp_path / a if a in files else a for a in argv))
    assert code in (0, 1, 2), (argv, files["A"][:300], err)
    assert "Traceback" not in err


# -- algebra_from_dict on any JSON value -----------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)
_ROW = st.lists(st.integers(-1, 3), max_size=3)


@st.composite
def _algebra_like(draw):
    """The keys of an algebra file with values of the right types, up to two of them
    then replaced by any JSON value or removed."""
    classes = [{"kind": k} for k in ("heyting", "ws5", "hri", "modal")]
    classes += [{"kind": "dht", "level": level} for level in (-1, 1, True)]
    data = draw(st.fixed_dictionaries(
        {"class": st.sampled_from(classes), "size": st.integers(-1, 3),
         **{name: st.lists(_ROW, max_size=3) for name in TABLES[:3]}},
        optional={"name": st.text("ab", max_size=2),
                  **{name: st.lists(_ROW, max_size=3) if name in BINARY else _ROW
                     for name in TABLES[3:]}}))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_JSON)
    return data


@given(_algebra_like() | _JSON)
@settings(max_examples=60, deadline=None)
def test_algebra_from_dict_returns_an_algebra_or_raises_malformed(data):
    try:
        alg = io.algebra_from_dict(data)
    except MalformedAlgebraError:
        return
    assert isinstance(alg, FiniteAlgebra)


# -- read_presentation on any JSON value -----------------------------------------

@st.composite
def _presentation_like(draw):
    """_PRESENTATION with up to three entries removed or replaced by any JSON value."""
    data = json.loads(json.dumps(_PRESENTATION))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_entries(data))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = data
        for k in where:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JSON | _JUNK)
    return data


@given(_presentation_like() | _JSON)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_presentation_returns_a_pair_or_raises_a_reported_error(tmp_path, capsys, data):
    """read_presentation gives a DefiningPair or raises MalformedAlgebraError,
    TermParseError or the ValueError for an undeclared variable, and the CLI
    exits 0, 1 or 2 on the file, without a traceback."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    try:
        assert isinstance(io.read_presentation(path), DefiningPair)
    except (MalformedAlgebraError, TermParseError):
        pass
    except ValueError as e:
        assert str(e).startswith("atom uses undeclared variables"), e
    code, _, err = run_cli(capsys, "projective", "--class", "ws5", "--presentation", path)
    assert code in (0, 1, 2), (data, err)
    assert "Traceback" not in err
