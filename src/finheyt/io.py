"""Flat-file formats for algebras and presentations (JSON)."""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import FiniteAlgebra, VarietyClass, require_valid
from .errors import MalformedAlgebraError
from .terms import DefiningPair, parse_term


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    """Canonical key order; optional tables appear only when present."""
    cls: dict = {"kind": alg.cls.kind}
    if alg.cls.level is not None:
        cls["level"] = alg.cls.level
    out = {
        "name": alg.name,
        "class": cls,
        "size": alg.size,
        "meet": [list(r) for r in alg.meet],
        "join": [list(r) for r in alg.join],
        "impl": [list(r) for r in alg.impl],
    }
    if alg.box is not None:
        out["box"] = list(alg.box)
    if alg.invol is not None:
        out["invol"] = list(alg.invol)
    if alg.dualneg is not None:
        out["dualneg"] = list(alg.dualneg)
    if alg.dimpl is not None:
        out["dimpl"] = [list(r) for r in alg.dimpl]
    return out


def _expect(data: dict, key: str, kind, where: str):
    if key not in data:
        raise MalformedAlgebraError(f"{where}: missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise MalformedAlgebraError(f"{where}: key {key!r} has wrong type {type(value).__name__}")
    return value


def algebra_from_dict(data: dict, where: str = "algebra") -> FiniteAlgebra:
    if not isinstance(data, dict):
        raise MalformedAlgebraError(f"{where}: expected an object")
    cls_obj = _expect(data, "class", dict, where)
    kind = _expect(cls_obj, "kind", str, f"{where}.class")
    level = cls_obj.get("level")
    try:
        cls = VarietyClass(kind, level)
    except ValueError as e:
        raise MalformedAlgebraError(f"{where}.class: {e}") from None
    size = _expect(data, "size", int, where)
    alg = FiniteAlgebra(
        size=size,
        cls=cls,
        meet=_expect(data, "meet", list, where),
        join=_expect(data, "join", list, where),
        impl=_expect(data, "impl", list, where),
        box=data.get("box"),
        invol=data.get("invol"),
        dualneg=data.get("dualneg"),
        dimpl=data.get("dimpl"),
        name=str(data.get("name", "")),
    )
    return alg


def read_algebra(path, check: bool = True) -> FiniteAlgebra:
    """Load an algebra file; structural defects raise MalformedAlgebraError,
    axiom violations raise InvalidAlgebraError (suppressed with check=False)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise MalformedAlgebraError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    alg = algebra_from_dict(data, where=str(path))
    if check:
        require_valid(alg)
    return alg


def write_algebra(path, alg: FiniteAlgebra) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(alg), indent=1) + "\n")


def _equation_from_dict(data: dict, where: str) -> tuple:
    lhs = _expect(data, "lhs", str, where)
    rhs = _expect(data, "rhs", str, where)
    return parse_term(lhs), parse_term(rhs)


def read_presentation(path) -> DefiningPair:
    """{"vars": [names], "atoms": [{"lhs": term, "rhs": term}, ...]}"""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise MalformedAlgebraError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    names = _expect(data, "vars", list, str(path))
    atoms = _expect(data, "atoms", list, str(path))
    return DefiningPair(
        tuple(str(v) for v in names),
        tuple(_equation_from_dict(a, f"{path}.atoms[{i}]") for i, a in enumerate(atoms)),
    )
