"""Terms over the signature: parsing, printing, evaluation, quasiidentity checking.

Concrete syntax (lowest to highest precedence):
    ->  -<        right-associative
    |
    &
    !  ~  +  []  <>   prefix
    0  1  identifiers  ( ... )
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .algebra import FiniteAlgebra
from .errors import TermEvalError, TermParseError


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    value: int  # 0 or 1


CONST0 = Const(0)
CONST1 = Const(1)


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Impl(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Dimpl(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Invol(Term):
    arg: Term


@dataclass(frozen=True)
class Dualneg(Term):
    arg: Term


@dataclass(frozen=True)
class Box(Term):
    arg: Term


@dataclass(frozen=True)
class Diamond(Term):
    arg: Term


_BINARY = {Meet: "&", Join: "|", Impl: "->", Dimpl: "-<"}
_PREFIX = {Neg: "!", Invol: "~", Dualneg: "+", Box: "[]", Diamond: "<>"}

_TOKEN_RE = re.compile(r"\s*(->|-<|\[\]|<>|[|&!~+()01]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(src: str):
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or not m.group(1):
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise TermParseError(f"unknown token {stripped[0]!r}", at)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    out.append((None, len(src)))
    return out


MAX_TERM_DEPTH = 100
"""parse_term accepts at most this many nested prefix operators, parentheses
and right operands of implications, and a term tree at most this high; deeper
input raises TermParseError instead of exhausting the interpreter's stack here
or in the recursive functions that later walk the term."""

MAX_PRESENTATION_VARS = 20
"""decision.decide_projective_fp tries all 2^k assignments of a presentation's
k variables in the two-element algebra.  At k = 20, with one atom over all the
variables, that takes about 30 s on one core under CPython 3.11; a presentation
with more variables raises ValueError."""


def _height(t: Term) -> int:
    best, stack = 0, [(t, 0)]
    while stack:
        t, h = stack.pop()
        best = max(best, h)
        if type(t) in _PREFIX:
            stack.append((t.arg, h + 1))
        elif type(t) in _BINARY:
            stack += [(t.left, h + 1), (t.right, h + 1)]
    return best


def parse_term(src: str) -> Term:
    """Parse a term string; raises TermParseError with the offending position."""
    if not src.strip():
        raise TermParseError("empty term", 0)
    tokens = _tokenize(src)
    idx = 0
    depth = 0

    def nested(parse, pos):
        nonlocal depth
        depth += 1
        if depth > MAX_TERM_DEPTH:
            raise TermParseError(f"term nests deeper than {MAX_TERM_DEPTH} levels", pos)
        t = parse()
        depth -= 1
        return t

    def peek():
        return tokens[idx][0]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_impl():
        left = parse_join()
        if peek() in ("->", "-<"):
            op, pos = take()
            right = nested(parse_impl, pos)
            return Impl(left, right) if op == "->" else Dimpl(left, right)
        return left

    def parse_join():
        t = parse_meet()
        while peek() == "|":
            take()
            t = Join(t, parse_meet())
        return t

    def parse_meet():
        t = parse_prefix()
        while peek() == "&":
            take()
            t = Meet(t, parse_prefix())
        return t

    def parse_prefix():
        tok, pos = tokens[idx]
        for cls, sym in _PREFIX.items():
            if tok == sym:
                take()
                return cls(nested(parse_prefix, pos))
        return parse_atom()

    def parse_atom():
        tok, pos = take()
        if tok == "0":
            return CONST0
        if tok == "1":
            return CONST1
        if tok == "(":
            inner = nested(parse_impl, pos)
            close, cpos = take()
            if close != ")":
                raise TermParseError("expected ')'", cpos)
            return inner
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return Var(tok)
        raise TermParseError(f"unexpected {'end of input' if tok is None else repr(tok)}", pos)

    term = parse_impl()
    tok, pos = tokens[idx]
    if tok is not None:
        raise TermParseError(f"trailing input {tok!r}", pos)
    if _height(term) > MAX_TERM_DEPTH:
        raise TermParseError(f"term tree higher than {MAX_TERM_DEPTH} levels", 0)
    return term


def print_term(t: Term) -> str:
    """Canonical printer; parse_term(print_term(t)) == t."""

    def go(t, prec):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            return str(t.value)
        cls = type(t)
        if cls in _PREFIX:
            return _wrap(f"{_PREFIX[cls]}{go(t.arg, 4)}", 4, prec)
        if cls in (Impl, Dimpl):
            s = f"{go(t.left, 2)} {_BINARY[cls]} {go(t.right, 1)}"
            return _wrap(s, 1, prec)
        if cls is Join:
            return _wrap(f"{go(t.left, 2)} | {go(t.right, 3)}", 2, prec)
        if cls is Meet:
            return _wrap(f"{go(t.left, 3)} & {go(t.right, 4)}", 3, prec)
        raise TypeError(f"not a term: {t!r}")

    def _wrap(s, mine, outer):
        return f"({s})" if mine < outer else s

    return go(t, 1)


def term_vars(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence."""
    seen: dict = {}

    def walk(t):
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        elif isinstance(t, Const):
            pass
        elif isinstance(t, (Neg, Invol, Dualneg, Box, Diamond)):
            walk(t.arg)
        else:
            walk(t.left)
            walk(t.right)

    walk(t)
    return tuple(seen)


def eval_term(alg: FiniteAlgebra, t: Term, env: dict) -> int:
    """Bottom-up table evaluation of t under env (variable name -> element index)."""

    def need(table, opname):
        if table is None:
            raise TermEvalError(f"operation {opname} unavailable for class {alg.cls}")
        return table

    def go(t):
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise TermEvalError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            return 0 if t.value == 0 else alg.top
        if isinstance(t, Meet):
            return alg.meet[go(t.left)][go(t.right)]
        if isinstance(t, Join):
            return alg.join[go(t.left)][go(t.right)]
        if isinstance(t, Impl):
            return alg.impl[go(t.left)][go(t.right)]
        if isinstance(t, Dimpl):
            return need(alg.dimpl, "-<")[go(t.left)][go(t.right)]
        if isinstance(t, Neg):
            return alg.neg[go(t.arg)]
        if isinstance(t, Invol):
            return need(alg.invol, "~")[go(t.arg)]
        if isinstance(t, Dualneg):
            return need(alg.dualneg, "+")[go(t.arg)]
        if isinstance(t, Box):
            return need(alg.box, "[]")[go(t.arg)]
        if isinstance(t, Diamond):
            box = need(alg.box, "<>")
            return alg.neg[box[alg.neg[go(t.arg)]]]
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def iff_term(a: Term, b: Term) -> Term:
    return Meet(Impl(a, b), Impl(b, a))


def discriminator_term(x: Term, y: Term, z: Term) -> Term:
    """The fixed switching term t(x,y,z) = ([](x<->y) & z) | (![](x<->y) & x)."""
    e = Box(iff_term(x, y))
    return Join(Meet(e, z), Meet(Neg(e), x))


@dataclass(frozen=True)
class DefiningPair:
    """Presentation (X, atoms): ordered variables plus equations s = t over them."""

    variables: tuple[str, ...]
    atoms: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "atoms", tuple((l, r) for l, r in self.atoms))
        declared = set(self.variables)
        for l, r in self.atoms:
            loose = (set(term_vars(l)) | set(term_vars(r))) - declared
            if loose:
                raise ValueError(f"atom uses undeclared variables {sorted(loose)}")


@dataclass(frozen=True)
class Quasiidentity:
    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple((l, r) for l, r in self.premises))
        object.__setattr__(self, "conclusion", tuple(self.conclusion))

    def variables(self) -> tuple[str, ...]:
        seen: dict = {}
        for l, r in (*self.premises, self.conclusion):
            for v in (*term_vars(l), *term_vars(r)):
                seen.setdefault(v, None)
        return tuple(seen)


@dataclass(frozen=True)
class QuasiCheck:
    holds: bool
    witness: dict | None = None


def check_quasiidentity(alg: FiniteAlgebra, q: Quasiidentity) -> QuasiCheck:
    """Exhaustively test q on a nontrivial algebra; witness is the lex-first failing env.

    Assignments are enumerated by mixed-radix counting over element indices,
    variables in first-occurrence order.
    """
    names = q.variables()
    for values in itertools.product(alg.elements, repeat=len(names)):
        env = dict(zip(names, values))
        if all(eval_term(alg, l, env) == eval_term(alg, r, env) for l, r in q.premises):
            cl, cr = q.conclusion
            if eval_term(alg, cl, env) != eval_term(alg, cr, env):
                return QuasiCheck(False, env)
    return QuasiCheck(True)


def satisfy_atoms(alg: FiniteAlgebra, pair: DefiningPair) -> dict | None:
    """Lexicographically first assignment of pair.variables satisfying every atom, or None."""
    for values in itertools.product(alg.elements, repeat=len(pair.variables)):
        env = dict(zip(pair.variables, values))
        if all(eval_term(alg, l, env) == eval_term(alg, r, env) for l, r in pair.atoms):
            return env
    return None
