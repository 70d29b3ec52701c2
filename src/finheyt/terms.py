"""Terms over the signature and first-order formulas over them: parsing,
printing, the staged formula evaluator, quasiidentities and presentations.

Each operation class declares its ``symbol``, the FiniteAlgebra ``table`` it
reads and its ``prec``; the tokenizer, the parser, the printer, the evaluator
and ``decision``'s diagrams read them there.  Concrete syntax, by ``prec``
(lowest first):
    1  ->  -<               right-associative
    2  |                    left-associative
    3  &                    left-associative
    4  !  ~  +  []  <>      prefix
       0  1  identifiers  ( ... )
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

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
class Unary(Term):
    """A prefix operation, binding tighter than every infix one."""

    arg: Term
    prec = 4


@dataclass(frozen=True)
class Binary(Term):
    """An infix operation; those of prec 1 associate to the right, the others
    to the left."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Meet(Binary):
    symbol, table, prec = "&", "meet", 3


@dataclass(frozen=True)
class Join(Binary):
    symbol, table, prec = "|", "join", 2


@dataclass(frozen=True)
class Impl(Binary):
    symbol, table, prec = "->", "impl", 1


@dataclass(frozen=True)
class Dimpl(Binary):
    symbol, table, prec = "-<", "dimpl", 1


@dataclass(frozen=True)
class Neg(Unary):
    symbol, table = "!", "neg"


@dataclass(frozen=True)
class Invol(Unary):
    symbol, table = "~", "invol"


@dataclass(frozen=True)
class Dualneg(Unary):
    symbol, table = "+", "dualneg"


@dataclass(frozen=True)
class Box(Unary):
    symbol, table = "[]", "box"


@dataclass(frozen=True)
class Diamond(Unary):
    symbol, table = "<>", "box"  # read as ![]!


_PREFIX_OF = {c.symbol: c for c in Unary.__subclasses__()}
_INFIX_OF = {c.symbol: c for c in Binary.__subclasses__()}
_TOKEN_RE = re.compile(r"\s*(%s|[()01]|[A-Za-z_][A-Za-z0-9_]*)" % "|".join(
    map(re.escape, sorted(_PREFIX_OF | _INFIX_OF, key=len, reverse=True))))  # longest first


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

MAX_QUANTIFIERS = 256
"""satisfying_assignment accepts a prefix of at most this many quantifiers.  Each
level's search calls the next, one frame per level, so about 1,000 levels
exhaust CPython's default stack of 1,000 frames; the bound keeps three quarters
of it for the callers.  Longer prefixes raise TermEvalError."""

MAX_PRESENTATION_VARS = 20
"""decision.decide_projective_fp searches the 2^k assignments of a presentation's
k variables in the two-element algebra on the staged plan (see ``_plan``).  At
k = 20 under CPython 3.11 on 2 cores, x0 & ... & x19 = !(x0 & ... & x19) takes
under 0.01 s, the star (x0 & x19) | ... | (x18 & x19) = !(...) 0.8-1.0 s, and
the widened star (x0 & x1 & x19) | (x1 & x19) | ... | (x18 & x19) = !(...)
0.8-1.0 s at 20 MB of peak RSS.  More variables raise ValueError."""


def _height(t: Term) -> int:
    best, stack = 0, [(t, 0)]
    while stack:
        t, h = stack.pop()
        best = max(best, h)
        if isinstance(t, Unary):
            stack.append((t.arg, h + 1))
        elif isinstance(t, Binary):
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

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_infix(floor=1):
        """The longest term from here whose infix operators all have prec >= floor;
        a right operand of prec 1 is nested, the others loop."""
        t = parse_prefix()
        while (op := _INFIX_OF.get(tokens[idx][0])) and op.prec >= floor:
            pos = take()[1]
            t = op(t, nested(parse_infix, pos) if op.prec == 1 else parse_infix(op.prec + 1))
        return t

    def parse_prefix():
        tok, pos = tokens[idx]
        if tok in _PREFIX_OF:
            take()
            return _PREFIX_OF[tok](nested(parse_prefix, pos))
        return parse_atom()

    def parse_atom():
        tok, pos = take()
        if tok == "0":
            return CONST0
        if tok == "1":
            return CONST1
        if tok == "(":
            inner = nested(parse_infix, pos)
            close, cpos = take()
            if close != ")":
                raise TermParseError("expected ')'", cpos)
            return inner
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return Var(tok)
        raise TermParseError(f"unexpected {'end of input' if tok is None else repr(tok)}", pos)

    term = parse_infix()
    tok, pos = tokens[idx]
    if tok is not None:
        raise TermParseError(f"trailing input {tok!r}", pos)
    if _height(term) > MAX_TERM_DEPTH:
        raise TermParseError(f"term tree higher than {MAX_TERM_DEPTH} levels", 0)
    return term


def print_term(t: Term) -> str:
    """Canonical printer; parse_term(print_term(t)) == t.  An operand is
    parenthesised when its operator binds more loosely than its place allows:
    below prec + 1 on the side an operator does not associate to."""

    def go(t, floor):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            return str(t.value)
        if isinstance(t, Unary):
            s = t.symbol + go(t.arg, t.prec)
        elif isinstance(t, Binary):
            right = t.prec == 1
            s = f"{go(t.left, t.prec + right)} {t.symbol} {go(t.right, t.prec + (not right))}"
        else:
            raise TypeError(f"not a term: {t!r}")
        return f"({s})" if t.prec < floor else s

    return go(t, 1)


def term_vars(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence."""
    seen: dict = {}

    def walk(t):
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        elif isinstance(t, Const):
            pass
        elif isinstance(t, Unary):
            walk(t.arg)
        elif isinstance(t, Binary):
            walk(t.left)
            walk(t.right)
        else:
            raise TypeError(f"not a term: {t!r}")

    walk(t)
    return tuple(seen)


def discriminator_term(x: Term, y: Term, z: Term) -> Term:
    """The fixed switching term t(x,y,z) = ([](x<->y) & z) | (![](x<->y) & x)."""
    e = Box(Meet(Impl(x, y), Impl(y, x)))
    return Join(Meet(e, z), Meet(Neg(e), x))


@dataclass(frozen=True)
class DefiningPair:
    """Presentation (X, atoms): ordered variables plus equations s = t over them."""

    variables: tuple[str, ...]
    atoms: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "atoms", tuple((l, r) for l, r in self.atoms))
        loose = set(chain.from_iterable(map(term_vars, chain(*self.atoms)))) - set(self.variables)
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
        sides = chain(*self.premises, self.conclusion)
        return tuple(dict.fromkeys(chain.from_iterable(map(term_vars, sides))))


@dataclass(frozen=True)
class QuasiCheck:
    holds: bool
    witness: dict | None = None


# -- first-order formulas ----------------------------------------------------

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class FoAtom(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FoNot(Formula):
    arg: Formula


@dataclass(frozen=True)
class FoAnd(Formula):
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FoOr(Formula):
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FirstOrderFormula:
    """Prenex formula: quantifier prefix over a boolean combination of term equalities."""

    prefix: tuple[tuple[str, str], ...]
    matrix: Formula

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple((q, v) for q, v in self.prefix))
        bound = {v for _, v in self.prefix}
        free = formula_vars(self.matrix) - bound
        if free:
            raise ValueError(f"formula not closed; free variables {sorted(free)}")

    def __hash__(self):  # cached: formulas key the plan cache and hash a whole term tree
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.prefix, self.matrix)))
        return self._hash


def formula_vars(f: Formula) -> set:
    if isinstance(f, FoAtom):
        return set(term_vars(f.lhs)) | set(term_vars(f.rhs))
    if isinstance(f, FoNot):
        return formula_vars(f.arg)
    return set().union(*(formula_vars(g) for g in f.args)) if f.args else set()


# -- staged evaluation -------------------------------------------------------
#
# A formula is compiled once, independently of any algebra, into a plan:
#   - every distinct subterm of the matrix gets one value slot (common
#     subexpressions are shared across conjuncts) and is computed at the
#     shallowest quantifier depth where all its variables are bound;
#   - the matrix is split into its conjuncts, and each conjunct is checked at
#     the depth of its last variable; a slot is computed just before the first
#     check at its depth that reads it, so a failing check skips the rest of
#     that depth's table lookups;
#   - each depth becomes one generated Python function: the loop over its
#     variable with every table lookup and check written out inline, taking
#     its frontier, the slots set above it and read at it or deeper, as
#     arguments and passing the next depth its frontier; the source is built
#     from slot numbers, table positions and fixed keywords only, never from a
#     variable name or other text of the formula;
#   - the subtree below depth d is a pure function of its frontier, so the
#     caller looks it up in a memo keyed on the frontier's variable slots,
#     unless no key can repeat there or a repeat cannot reach it (``_plan``).
# The quantifiers keep their brute-force semantics: prefix order, every
# quantifier ranging over the whole universe.

_MEMO_ENTRIES = 1 << 14
"""The floor of the memo entries one satisfying_assignment call stores over all
levels; the budget is the larger of it and q * n**2 for q quantifiers over n
elements, polynomial in the input.  Rarely repeating keys would keep about one
per outer assignment (78 MB for the widened star in MAX_PRESENTATION_VARS).
alpha's levels are keyed on slots of at most n**2 values: it stores 124 entries
at 36 elements and 994 at 256, under budgets of 16,384 and 327,680."""


@dataclass(frozen=True)
class _Plan:
    """Algebra-independent schedule of a prenex formula, compiled per depth.

    Slots hold ("var", depth), ("const", 0 | 1) or (table, argument slots...);
    slot d holds the variable of depth d.  ``tables`` names the tables the
    formula reads, table i passed to the generated code as Ti.  ``source[0]``
    defines the function run once per call and ``source[d + 1]`` the search
    over the variable of depth d; ``factories`` holds each compiled
    ``level(inner, n, room, T0, T1, ...)``, which returns that search bound to
    the next search, the universe size and the memo room (see ``_room``).  The
    search of depth d takes its frontier as arguments in slot order, and
    returns None when its subformula fails, else the values of the existential
    variables bound from there up to the first universal one.  ``frontier[d]``
    is the memo key of depth d's search, its frontier without the constants,
    or None where it is not memoised.  ``symbols`` maps each table to the
    operator first written for it.
    """

    names: tuple[str, ...]
    slots: tuple[tuple, ...]
    tables: tuple[str, ...]
    source: tuple[str, ...]
    factories: tuple
    frontier: tuple[tuple[int, ...] | None, ...]
    symbols: dict


def _conjuncts(f: Formula):
    if isinstance(f, FoAnd):
        for g in f.args:
            yield from _conjuncts(g)
    else:
        yield f


@lru_cache(maxsize=32)
def _plan(formula: FirstOrderFormula) -> _Plan:
    names = tuple(v for _, v in formula.prefix)
    depth_of = {v: d for d, v in enumerate(names)}
    slots: list[tuple] = []
    slot_depth: list[int] = []
    slot_of: dict = {}
    symbols: dict = {}

    def intern(key, depth):
        if key not in slot_of:
            slot_of[key] = len(slots)
            slots.append(key)
            slot_depth.append(depth)
        return slot_of[key]

    def term(t: Term) -> int:
        if isinstance(t, Var):
            return slot_of[("var", depth_of[t.name])]
        if isinstance(t, Const):
            return intern(("const", t.value), -1)
        symbols.setdefault(t.table, t.symbol)
        if isinstance(t, Diamond):
            return term(Neg(Box(Neg(t.arg))))
        args = tuple(map(term, (t.arg,) if isinstance(t, Unary) else (t.left, t.right)))
        return intern((t.table, *args), max(slot_depth[a] for a in args))

    def check(f: Formula):
        """(check, depth of its last variable, slots it reads); a check is
        ("atom", l, r), ("not", check), ("and", checks) or ("or", checks)."""
        if isinstance(f, FoAtom):
            a, b = term(f.lhs), term(f.rhs)
            return ("atom", a, b), max(slot_depth[a], slot_depth[b]), {a, b}
        if isinstance(f, FoNot):
            tree, depth, reads = check(f.arg)
            return ("not", tree), depth, reads
        parts = [check(g) for g in f.args]
        kind = "and" if isinstance(f, FoAnd) else "or"
        return ((kind, tuple(p[0] for p in parts)), max((p[1] for p in parts), default=-1),
                set().union(*(p[2] for p in parts)))

    for d in range(len(names)):
        intern(("var", d), d)
    checks = [check(c) for c in _conjuncts(formula.matrix)]

    done = {s for s, key in enumerate(slots) if key[0] in ("var", "const")}

    def compute(s: int, out: list, read: set) -> None:
        """Schedule slot s after its unscheduled arguments (all at s's depth)."""
        if s in done:
            return
        done.add(s)
        for a in slots[s][1:]:
            compute(a, out, read)
            read.add(a)
        out.append(("op", s))

    levels, reads = [], []
    for d in range(-1, len(names)):
        steps, read = [], set()
        for tree, depth, used in checks:
            if depth == d:
                for s in sorted(used):
                    compute(s, steps, read)
                read |= used
                steps.append(("check", tree))
        for s in range(len(slots)):
            if slot_depth[s] == d:
                compute(s, steps, read)
        levels.append(steps)
        reads.append(read)
    # A frontier holding every variable bound above it is a key that cannot
    # repeat.  Below a memoised d - 1, one holding d - 1's variable and, modulo
    # the atoms checked above d, d - 1's key repeats only where d - 1 has hit.
    params, keys, below = [()], [], set()
    for d in reversed(range(len(names))):
        below |= reads[d + 1]
        params.insert(1, tuple(sorted(s for s in below if slot_depth[s] < d)))
        key = {s for s in params[1] if slot_depth[s] >= 0}
        keys.insert(0, None if key >= set(range(d)) else tuple(sorted(key)))
    same = {s: {s} for s in range(len(slots))}  # classes of the atoms checked above d
    frontier: list = []
    for d, key in enumerate(keys):
        for tree, depth, _ in checks:
            if depth == d - 1 and tree[0] == "atom":
                merged = same[tree[1]] | same[tree[2]]
                same.update(dict.fromkeys(merged, merged))
        if key is not None and d and frontier[d - 1] is not None:
            held = set().union(*(same[s] for s in key))
            key = None if held >= {*frontier[d - 1], d - 1} else key
        frontier.append(key)
    tables = tuple(dict.fromkeys(key[0] for key in slots if key[0] not in ("var", "const")))
    source, factories = [], []
    for i, steps in enumerate(levels):
        exists = i > 0 and formula.prefix[i - 1][0] == "exists"
        inner = (params[i + 1], frontier[i]) if i < len(names) else None
        src = _level_source(i - 1, exists, steps, slots, tables, params[i], inner)
        namespace: dict = {}
        exec(src, namespace)
        source.append(src)
        factories.append(namespace["level"])
    return _Plan(
        names=names,
        slots=tuple(slots),
        tables=tables,
        source=tuple(source),
        factories=tuple(factories),
        frontier=tuple(frontier),
        symbols=symbols,
    )


def _level_source(d: int, exists: bool, steps, slots, tables, params, inner) -> str:
    """Python source of the factory of depth d's search, or of the level run
    once per call for d = -1, which sets the constants.  The search takes the
    slots params as arguments; inner is the next depth's (params, memo key),
    or None at the last depth.  Slot s is the local xs, table i the argument
    Ti, and row Ti[xs] of an argument xs the local Ri_s bound before the loop;
    the only other names are fixed keywords and temporaries ci, so no text of
    the formula enters the source.  Compound checks are flattened into one
    statement per node, so that no check tree nests expressions or blocks."""
    body = [f"x{s} = {'n - 1' if key[1] else 0}" for s, key in enumerate(slots)
            if d < 0 and key[0] == "const"]
    rows: dict = {}
    fail = "continue" if exists else "return None"
    temps = count()

    def expr(tree, negated=False):
        """An expression true when tree holds (fails, if negated): a comparison,
        or an and/or over operands with a temporary for each compound one."""
        while tree[0] == "not":
            tree, negated = tree[1], not negated
        kind, *args = tree
        if kind == "atom":
            return f"x{args[0]} {'!=' if negated else '=='} x{args[1]}"
        out = f" {kind} ".join(map(operand, args[0])) or str(kind == "and")
        return f"not ({out})" if negated else out

    def operand(tree):
        node = tree
        while node[0] == "not":
            node = node[1]
        if node[0] == "atom":
            return expr(tree)
        name = f"c{next(temps)}"
        body.append(f"{name} = {expr(tree)}")
        return name

    for kind, x in steps:
        if kind == "op":
            table, *args = slots[x]
            t = f"T{tables.index(table)}"
            if len(args) == 2 and args[0] in params:
                rows[f"R{t[1:]}_{args[0]}"] = f"{t}[x{args[0]}]"
                t, args = f"R{t[1:]}_{args[0]}", args[1:]
            body.append(f"x{x} = {t}" + "".join(f"[x{a}]" for a in args))
        else:
            body.append(f"if {expr(x, negated=True)}: {fail}")
    call = []
    if inner is not None:
        args, key = ", ".join(f"x{s}" for s in inner[0]), inner[1]
        call = [f"found = inner({args})"] if key is None else [
            f"k = ({', '.join(f'x{s}' for s in key)}{',' * (len(key) == 1)})",
            "found = memo.get(k, memo)", "if found is memo:", f"    found = inner({args})",
            "    if room[0]:", "        room[0] -= 1", "        memo[k] = found"]
    if d < 0:
        loop = body + call + ["return ()" if inner is None else "return found"]
    else:
        if inner is None:
            tail = [f"return (x{d},)"] if exists else []
        elif exists:
            tail = call + ["if found is not None:", f"    return (x{d}, *found)"]
        else:
            tail = call + ["if found is None:", "    return None"]
        loop = [f"{r} = {row}" for r, row in rows.items()] + [f"for x{d} in range(n):"]
        loop += ["    " + line for line in body + tail or ["pass"]]
        loop.append("return None" if exists else "return ()")
    memo = "    memo = {}\n" if inner is not None and inner[1] is not None else ""
    return (f"def level(inner, n, room{''.join(f', T{i}' for i in range(len(tables)))}):\n"
            f"{memo}    def search({', '.join(f'x{s}' for s in params)}):\n"
            + "".join(f"        {line}\n" for line in loop) + "    return search\n")


def _room(q: int, n: int) -> list:
    """The memo entries one call over q quantifiers and n elements may store,
    as the one-element list that its levels share and count down."""
    return [max(_MEMO_ENTRIES, q * n ** 2)]


def satisfying_assignment(alg: FiniteAlgebra, formula: FirstOrderFormula) -> dict | None:
    """Lexicographically first assignment of the formula's leading existential
    variables under which the rest holds, or None when the formula is false.

    Brute force over the whole universe for every quantifier, evaluated by the
    staged plan of the formula (see ``_plan``); memoised subtrees return the
    same values a fresh search would, so the assignment is the lex-first one.
    Every table the formula reads is bound before the search starts, so a
    missing operation raises TermEvalError whatever the values.  Past
    max(_MEMO_ENTRIES, q * n**2) stored entries, for q quantifiers over n
    elements, the memos stop storing and levels recompute.
    A prefix longer than MAX_QUANTIFIERS raises TermEvalError.
    """
    if len(formula.prefix) > MAX_QUANTIFIERS:
        raise TermEvalError(f"formula has {len(formula.prefix)} quantifiers; "
                            f"at most {MAX_QUANTIFIERS} are evaluated")
    plan = _plan(formula)
    tables = [getattr(alg, name) for name in plan.tables]
    for name, table in zip(plan.tables, tables):
        if table is None:
            raise TermEvalError(f"operation {plan.symbols[name]} unavailable for class {alg.cls}")
    inner, room = None, _room(len(plan.names), alg.size)
    for factory in reversed(plan.factories):
        inner = factory(inner, alg.size, room, *tables)
    values = inner()
    return None if values is None else dict(zip(plan.names, values))


def eval_formula(alg: FiniteAlgebra, formula: FirstOrderFormula) -> bool:
    """Truth of a closed prenex formula in alg (see ``satisfying_assignment``)."""
    return satisfying_assignment(alg, formula) is not None


# -- quasiidentities and presentations ----------------------------------------

@lru_cache(maxsize=32)
def _failure_formula(q: Quasiidentity) -> FirstOrderFormula:
    """exists q's variables: every premise and not the conclusion."""
    matrix = FoAnd((*(FoAtom(l, r) for l, r in q.premises), FoNot(FoAtom(*q.conclusion))))
    return FirstOrderFormula(tuple(("exists", v) for v in q.variables()), matrix)


def check_quasiidentity(alg: FiniteAlgebra, q: Quasiidentity) -> QuasiCheck:
    """Exhaustively test q on a nontrivial algebra; witness is the lex-first failing env.

    Assignments are ordered by mixed-radix counting over element indices,
    variables in first-occurrence order.
    """
    env = satisfying_assignment(alg, _failure_formula(q))
    return QuasiCheck(True) if env is None else QuasiCheck(False, env)


def satisfy_atoms(alg: FiniteAlgebra, pair: DefiningPair) -> dict | None:
    """Lexicographically first assignment of pair.variables satisfying every atom, or None."""
    prefix = tuple(("exists", v) for v in pair.variables)
    matrix = FoAnd(tuple(FoAtom(l, r) for l, r in pair.atoms))
    return satisfying_assignment(alg, FirstOrderFormula(prefix, matrix))
