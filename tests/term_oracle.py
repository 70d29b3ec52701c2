"""Brute-force term evaluation: the oracle the staged evaluator in
``finheyt.terms`` is checked against.

``eval_term`` walks the term tree for one environment; the two searches below
try every assignment in ``itertools.product`` order, which is the order the
production witnesses must follow.
"""

import itertools

from finheyt.errors import TermEvalError
from finheyt.terms import (
    Box,
    Const,
    Diamond,
    Dimpl,
    Dualneg,
    Impl,
    Invol,
    Join,
    Meet,
    Neg,
    Var,
)


def eval_term(alg, t, env):
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


def _holds(alg, pairs, env):
    return all(eval_term(alg, l, env) == eval_term(alg, r, env) for l, r in pairs)


def quasiidentity_oracle(alg, q):
    """(holds, lex-first failing environment or None) by trying every assignment."""
    names = q.variables()
    for values in itertools.product(alg.elements, repeat=len(names)):
        env = dict(zip(names, values))
        if _holds(alg, q.premises, env) and not _holds(alg, (q.conclusion,), env):
            return False, env
    return True, None


def satisfy_atoms_oracle(alg, pair):
    """Lex-first assignment of pair.variables satisfying every atom, or None."""
    for values in itertools.product(alg.elements, repeat=len(pair.variables)):
        env = dict(zip(pair.variables, values))
        if _holds(alg, pair.atoms, env):
            return env
    return None
