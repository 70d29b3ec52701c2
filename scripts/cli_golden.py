#!/usr/bin/env python3
"""Golden transcript of the command line: exit code, stdout and stderr.

It writes the seven catalog fixtures, ``C3idbox`` and three products of 9 to
12 elements to a temporary directory, builds the size-4 catalogs of ``ws5``,
``hri``, ``dht:2`` and ``heyting`` there with ``finheyt catalog``, and runs
every subcommand on them through ``finheyt.cli.main`` in this process, each in
human and ``--json`` form: the one-file commands on every file, ``homs`` and
``retract`` on every same-class pair of fixtures and products, ``primitive``
per class, a few presentations, and the error cases (``--cap 0``, a filter
outside the universe, a file that is not JSON, a missing file,
``--max-size 13``, a class mismatch).  The temporary directory is written as
``<tmp>``.  ``tests/data/cli_golden.json`` records the output, and the tier-1
test ``test_cli_matches_golden_transcript`` compares a fresh run with it byte
for byte.

Usage:
  PYTHONPATH=src python scripts/cli_golden.py > tests/data/cli_golden.json
"""

import contextlib
import io as stdio
import json
import tempfile
from pathlib import Path

from finheyt import cli, io
from finheyt.congruence import product
from finheyt.fixtures import b4_disc, b4_prod, c3_hri, c3_identity_box, c3_simple, catalog_fixtures

PLACEHOLDER = "<tmp>"
CATALOGS = ("ws5", "hri", "dht:2", "heyting")
ONE_FILE = ("validate", "profile", "decompose", "rho", "alpha", "boolproj")
HOMS_MODES = ([], ["--onto"], ["--count"], ["--all"], ["--onto", "--all"])
PRESENTATIONS = {
    "split": {"vars": ["x", "y"], "atoms": [{"lhs": "x | y", "rhs": "1"},
                                            {"lhs": "x & y", "rhs": "0"}]},
    "open": {"vars": ["x"], "atoms": [{"lhs": "[]x", "rhs": "x"}]},
    "contradiction": {"vars": ["x"], "atoms": [{"lhs": "x", "rhs": "!x"}]},
}


def _algebras():
    products = [
        product(b4_disc(), c3_simple()).rename("B4disc.C3simple"),
        product(c3_hri(), c3_hri()).rename("C3-HRI.C3-HRI"),
        product(b4_prod(), c3_simple()).rename("B4prod.C3simple"),
    ]
    return [*catalog_fixtures(), c3_identity_box(), *products]


def _invocations(tmp: Path):
    """Every argv, without --json.  The catalogs are built first; the files they
    write are listed only after those commands have run."""
    for cls in CATALOGS:
        yield ["catalog", "--class", cls, "--max-size", "4", "--out", tmp / cls.replace(":", "_")]
    files, by_class = [], {}
    for alg in _algebras():
        path = tmp / f"{alg.name}.json"
        io.write_algebra(path, alg)
        files.append((str(alg.cls), path))
        if alg.name != "C3idbox":
            by_class.setdefault(str(alg.cls), []).append(path)
    for cls in CATALOGS:
        files += [(cls, p) for p in sorted((tmp / cls.replace(":", "_")).glob("*.json"))]
    for cls, path in files:
        for command in ONE_FILE:
            yield [command, path]
        yield ["projective", "--class", cls, path]
        yield ["quotient", path, "--filter", str(io.read_algebra(path, check=False).top)]
    for cls, paths in by_class.items():
        for a in paths:
            for b in paths:
                for mode in HOMS_MODES:
                    yield ["homs", a, b, *mode]
                yield ["retract", a, b]
        yield ["primitive", *paths]
    for name, data in PRESENTATIONS.items():
        pres = tmp / f"{name}.pres.json"
        pres.write_text(json.dumps(data))
        for cls in ("ws5", "hri", "hdp:1", "dht:2"):
            yield ["projective", "--class", cls, "--presentation", pres]
    (tmp / "bad.json").write_text("{not json")
    b4, two = tmp / "B4prod.json", tmp / "TwoWS5.json"
    yield ["homs", b4, b4, "--count", "--cap", "0"]
    yield ["homs", b4, two, "--cap", "1"]
    yield ["homs", two, tmp / "C3-HRI.json"]
    yield ["quotient", b4, "--filter", "3,99"]
    yield ["quotient", b4, "--filter", "0,3"]
    yield ["validate", tmp / "bad.json"]
    yield ["validate", tmp / "missing.json"]
    yield ["catalog", "--class", "ws5", "--max-size", "13", "--out", tmp / "big"]
    yield ["projective", "--class", "hri", b4]
    yield ["projective", "--class", "ws5"]
    yield ["retract", two, tmp / "B4disc.json"]


def _run(tmp: Path, argv) -> dict:
    argv = [str(a) for a in argv]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": [a.replace(str(tmp), PLACEHOLDER) for a in argv],
        "exit": code,
        "stdout": out.getvalue().replace(str(tmp), PLACEHOLDER),
        "stderr": err.getvalue().replace(str(tmp), PLACEHOLDER),
    }


def golden_text() -> str:
    runs = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in _invocations(tmp):
            runs.append(_run(tmp, argv))
            runs.append(_run(tmp, [*argv, "--json"]))
    return json.dumps(runs, indent=1) + "\n"


if __name__ == "__main__":
    print(golden_text(), end="")
