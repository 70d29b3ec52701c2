import json

import pytest

from finheyt import cli, io
from finheyt.algebra import VarietyClass, validate
from finheyt.catalog import build_catalog
from finheyt.congruence import product
from finheyt.errors import InvalidAlgebraError, MalformedAlgebraError
from finheyt.fixtures import (
    b4_disc,
    b4_prod,
    c3_hdp,
    c3_hri,
    c3_identity_box,
    c3_simple,
    catalog_fixtures,
    two_ws5,
)
from finheyt.terms import print_term


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


def test_write_uses_canonical_key_order(tmp_path):
    path = tmp_path / "two.json"
    io.write_algebra(path, two_ws5())
    keys = list(json.loads(path.read_text()))
    assert keys == ["name", "class", "size", "meet", "join", "impl", "box"]


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


def test_read_reports_axiom_violations(files):
    with pytest.raises(InvalidAlgebraError) as e:
        io.read_algebra(files["C3idbox"])
    assert "open-elements-boolean" in str(e.value)
    raw = io.read_algebra(files["C3idbox"], check=False)
    assert raw.box == (0, 1, 2)


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


def test_cli_quotient(files, capsys):
    code, out, _ = run_cli(capsys, "quotient", files["B4prod"], "--filter", "1,3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["projection"] == [0, 1, 0, 1]
    assert record["algebra"]["size"] == 2
    code, _, err = run_cli(capsys, "quotient", files["B4prod"], "--filter", "0,3")
    assert code == 2 and "not a congruence filter" in err


def test_cli_decompose(files, capsys):
    code, out, _ = run_cli(capsys, "decompose", files["B4prod"], "--json")
    assert code == 0 and json.loads(out)["sizes"] == [2, 2]


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


def test_cli_rho_alpha(files, capsys):
    assert run_cli(capsys, "rho", files["B4prod"])[0] == 0
    code, out, _ = run_cli(capsys, "rho", files["B4disc"], "--json")
    assert code == 1 and json.loads(out)["witness"] == {"x": 1}
    assert run_cli(capsys, "alpha", files["B4prod"])[0] == 0
    assert run_cli(capsys, "alpha", files["B4disc"])[0] == 1


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


def test_cli_hri_file_without_box_gets_derived(tmp_path, capsys):
    raw = c3_hri()
    data = io.algebra_to_dict(raw)
    del data["box"]
    path = tmp_path / "hri.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "profile", path, "--json")
    assert code == 0 and json.loads(out)["open"] == [0, 2]
