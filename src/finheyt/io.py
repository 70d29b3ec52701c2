"""Flat-file formats for algebras and presentations (JSON).

read_algebra reads the file on every call, but parses, completes and validates
each (text, path string, check) once per process, in a cache of at most 64
entries.  Each entry holds the text and the algebra, so at most 64 times the file
size plus the tables.  No exception is cached.  A checked read completes the
unchecked one and keeps both entries, so the cache holds 32 files read checked;
a file that carries every derived table is parsed once, and its axioms, whose
report the algebra keeps, run once.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .algebra import BINARY, TABLES, FiniteAlgebra, VarietyClass, derive_operations
from .errors import MalformedAlgebraError
from .terms import DefiningPair, parse_term


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    """Canonical key order; optional tables appear only when present."""
    cls: dict = {"kind": alg.cls.kind}
    if alg.cls.level is not None:
        cls["level"] = alg.cls.level
    out = {"name": alg.name, "class": cls, "size": alg.size}
    for name, t in alg.tables().items():
        out[name] = [list(r) for r in t] if name in BINARY else list(t)
    return out


def _expect(data: dict, key: str, kind, where: str):
    """data[key], which must have the given type; a JSON true or false is no int."""
    if not isinstance(data, dict):
        raise MalformedAlgebraError(f"{where}: expected an object")
    if key not in data:
        raise MalformedAlgebraError(f"{where}: missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedAlgebraError(f"{where}: key {key!r} has wrong type {type(value).__name__}")
    return value


def _table(data: dict, key: str, binary: bool, where: str, required: bool = False):
    """A list of integers (unary) or of such lists (binary); None when optional and
    absent or null."""
    if not required and data.get(key) is None:
        return None
    value = _expect(data, key, list, where)
    rows = value if binary else [value]
    if not all(isinstance(row, list) for row in rows):
        raise MalformedAlgebraError(f"{where}: table {key!r} must be a list of lists")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:  # a bool is no int here
        for row in rows:
            for cell in row:
                if not isinstance(cell, int) or isinstance(cell, bool):
                    raise MalformedAlgebraError(f"{where}: table {key!r} holds {cell!r}, "
                                                "not an integer")
    return value


def algebra_from_dict(data: dict, where: str = "algebra") -> FiniteAlgebra:
    cls_obj = _expect(data, "class", dict, where)
    kind = _expect(cls_obj, "kind", str, f"{where}.class")
    level = None
    if cls_obj.get("level") is not None:
        level = _expect(cls_obj, "level", int, f"{where}.class")
    try:
        cls = VarietyClass(kind, level)
    except ValueError as e:
        raise MalformedAlgebraError(f"{where}.class: {e}") from None
    size = _expect(data, "size", int, where)
    # Every algebra carries the Heyting tables, TABLES[:3]; the rest are optional.
    tables = {key: _table(data, key, key in BINARY, where, required=key in TABLES[:3])
              for key in TABLES}
    name = _expect(data, "name", str, where) if "name" in data else ""
    return FiniteAlgebra(size, cls, **tables, name=name)


def _load_json(text: str, where: str):
    """The JSON value in text read from the file where; bad syntax and over-deep
    nesting raise MalformedAlgebraError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedAlgebraError(f"{where}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise MalformedAlgebraError(f"{where}: JSON nests too deeply") from None


@lru_cache(maxsize=64)
def _parsed(text: str, where: str, check: bool) -> FiniteAlgebra:
    """read_algebra's work on the text of the file where; see the module docstring.
    A checked read completes the unchecked one, whose axiom report it reuses."""
    if check:
        return derive_operations(_parsed(text, where, False))
    return algebra_from_dict(_load_json(text, where), where=where)


def read_algebra(path, check: bool = True) -> FiniteAlgebra:
    """Load an algebra file; structural defects raise MalformedAlgebraError.

    With check, the algebra comes back complete: derive_operations fills the
    derived tables the file leaves out (box; dualneg for dht), and an axiom
    violation, such as a present derived table that disagrees, raises
    InvalidAlgebraError.  With check=False the file's tables come back as they are.

    The file is read on every call and the rest runs once per (text, path string,
    check), in a cache of 64 entries: a repeated read returns the same frozen
    algebra, a rewritten file is parsed anew and a bad file raises on every read.
    """
    path = Path(path)
    return _parsed(path.read_text(), str(path), check)


def write_algebra(path, alg: FiniteAlgebra) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(alg), indent=1) + "\n")


def _equation_from_dict(data: dict, where: str) -> tuple:
    lhs = _expect(data, "lhs", str, where)
    rhs = _expect(data, "rhs", str, where)
    return parse_term(lhs), parse_term(rhs)


def read_presentation(path) -> DefiningPair:
    """{"vars": [names], "atoms": [{"lhs": term, "rhs": term}, ...]}"""
    path = Path(path)
    data = _load_json(path.read_text(), str(path))
    names = _expect(data, "vars", list, str(path))
    atoms = _expect(data, "atoms", list, str(path))
    seen: set = set()
    for v in names:
        if not isinstance(v, str):
            raise MalformedAlgebraError(f"{path}: variable {v!r} is not a string")
        if v in seen:
            raise MalformedAlgebraError(f"{path}: variable {v!r} is declared twice")
        seen.add(v)
    return DefiningPair(
        tuple(names),
        tuple(_equation_from_dict(a, f"{path}.atoms[{i}]") for i, a in enumerate(atoms)),
    )
