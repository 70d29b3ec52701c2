#!/usr/bin/env python3
"""Census of the small-algebra catalogs: counts, simplicity, projectivity, levels.

Usage: python scripts/catalog_census.py [--max-size N] [--classes ws5,hri,hdp:1,...]

Every nontrivial algebra is decided by the four projectivity criteria, which
must agree, and every distinct principal congruence of it gets its factor
complement, whose meet, join, permutability and product checks must hold; a
failed check raises TheoremViolation.  The congruences column counts the
distinct principal congruences of the algebras of each size.  They are swept
over the open elements o, as theta(o, top): theta(a, b) is the congruence of the
up-set of the open element [](a <-> b), and each open o is [](o <-> top).
"""

import argparse
import time

from finheyt.algebra import VarietyClass, element_profile, inferred_level
from finheyt.catalog import build_catalog
from finheyt.congruence import factor_complement, principal_congruence
from finheyt.decision import decide_projective_finite
from finheyt.errors import TheoremViolation

DEFAULT_CLASSES = "ws5,hri,hdp:1,dht:1,hdp:2,dht:2"


def complemented(alg) -> int:
    """The number of distinct principal congruences of alg, one per open element,
    each given its factor complement; TheoremViolation if one has none."""
    thetas = {principal_congruence(alg, o, alg.top) for o in sorted(alg.open_set)}
    for theta in thetas:
        if factor_complement(alg, theta) is None:
            raise TheoremViolation(f"{theta.blocks} of {alg!r} has no factor complement")
    return len(thetas)


def census(cls: VarietyClass, max_size: int) -> None:
    t0 = time.perf_counter()
    cat = build_catalog(cls, max_size)
    built = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows = []
    for n in range(1, max_size + 1):
        algs = cat.of_size(n)
        simple = projective = 0
        for a in algs:
            if not a.nontrivial:
                continue
            prof = element_profile(a)
            simple += prof.simple
            projective += decide_projective_finite(a).projective
        rows.append((n, len(algs), simple, projective))
    decided = time.perf_counter() - t0
    t0 = time.perf_counter()
    congruences = [sum(complemented(a) for a in cat.of_size(n) if a.nontrivial)
                   for n in range(1, max_size + 1)]
    swept = time.perf_counter() - t0
    print(f"\n{cls}  (built in {built:.2f}s, decided in {decided:.2f}s, "
          f"complemented in {swept:.2f}s)")
    print("  size  algebras  simple  projective  congruences")
    for (n, total, simple, projective), k in zip(rows, congruences):
        print(f"  {n:4d}  {total:8d}  {simple:6d}  {projective:10d}  {k:11d}")
    if cls.kind in ("hdp", "dht"):
        levels = {}
        for a in cat.algebras:
            level = inferred_level(a)
            levels[level] = levels.get(level, 0) + 1
        print(f"  inferred boxdot levels: {dict(sorted(levels.items()))}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=8)
    parser.add_argument("--classes", default=DEFAULT_CLASSES)
    args = parser.parse_args()
    for name in args.classes.split(","):
        census(VarietyClass.parse(name.strip()), args.max_size)


if __name__ == "__main__":
    main()
