"""One repetition of a benchmark workload, run by run.py in a fresh interpreter.

A fresh interpreter per repetition keeps finheyt's unbounded ``lru_cache``s
(``build_catalog``, ``canonical_relabeling``, ``two_element``,
``generating_set``, ``_posets_by_downset_count``) from carrying warm entries
from one repetition into the next, without reaching into private functions.

The process builds its inputs (setup), runs every operation once in the order
given by ``--order-seed`` (the timed phase), then checks each output against
the hand-written theory answers and the answers recorded at the seed commit in
``expected.json``.  A speed probe (``speed.py``) runs for the life of the
process; every time reported is on its clock and scaled to the nominal machine
speed, and the raw setup and timed-phase seconds are reported beside them.  Its
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io as stdio
import json
import math
import os
import random
import resource
import statistics
import sys
from functools import reduce
from pathlib import Path

from speed import Probe

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("ws5", "hri", "dht:2")
SIZES = {"catalog": {"full": 12, "small": 6}, "census": {"full": 10, "small": 6}}

# Factors of the `products` inputs, (class, source, size): fixtures plus small
# catalog members.
FACTORS = {
    "c3": ("ws5", "c3_simple", 3),
    "b4d": ("ws5", "b4_disc", 4),
    "b4p": ("ws5", "b4_prod", 4),
    "c3h": ("hri", "c3_hri", 3),
    "b4h": ("hri", "b4_hri", 4),
    "c4h": ("hri", "hri_n4_01", 4),
    "d3": ("dht:2", "dht_2_n3_00", 3),
    "d4p": ("dht:2", "dht_2_n4_00", 4),
    "d4s": ("dht:2", "dht_2_n4_01", 4),
}
# 9 to 36 elements, every class.  Larger inputs whose quotients must
# canonicalise a Boolean product of 16 or more elements do not finish at the
# seed commit and stay out until they do.  A family's products share quotients
# through finheyt's caches, so each family runs as one group in script order:
# the seed shuffles the groups only, which keeps the cost of each operation
# independent of the seed.
FAMILIES = (
    ("c3.c3",), ("c3h.c3h", "c3h.c3h.c3h"), ("d3.d3", "d3.d3.d3"),
    ("b4d.c3", "b4d.c3.c3"), ("b4p.c3",), ("b4h.c3h",), ("c4h.c3h",), ("d4p.d3",), ("d4s.d3",),
)
SMALL_PRODUCT = 12  # the self-test keeps the 9- and 12-element products only
HOMS = (
    ("--count", "b4d.c3", "c3.c3"),
    ("--all", "c3.c3", "b4d.c3"),
    ("--count", "d4p.d3", "d3.d3"),
    ("--all", "b4h.c3h", "c3h.c3h"),
)
RETRACTS = (("c3h.c3h.c3h", "c3h.c3h"), ("b4p.c3", "c3.c3"))
PRIMITIVES = (("c3.c3", "b4p.c3", "b4d.c3"), ("d4p.d3", "d3.d3"))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def product_size(name: str) -> int:
    return math.prod(FACTORS[f][2] for f in name.split("."))


def product_class(name: str) -> str:
    return FACTORS[name.split(".")[0]][0]


class Op:
    """One timed operation.

    ``run`` returns an observation; ``theory`` returns a problem (or None) where
    theory fixes the answer; ``key`` reduces the observation to the value
    compared with the answer recorded at the seed commit.
    """

    def __init__(self, op_id: str, run, theory=None, key=None):
        self.id, self.run, self.theory = op_id, run, theory
        self.key = key or (lambda obs: obs)


def matches(got, want) -> bool:
    """Equal, or for a per-size dict equal on the sizes built (the self-test builds fewer)."""
    if isinstance(got, dict) and isinstance(want, dict):
        return bool(got) and all(want.get(k) == v for k, v in got.items())
    return got == want


# -- catalog ------------------------------------------------------------------

def catalog_ops(args, expected):
    from finheyt import VarietyClass
    from finheyt.algebra import serial_key
    from finheyt.catalog import build_catalog, enum_distributive_lattices

    cls = VarietyClass.parse(args.item)
    max_size = SIZES["catalog"][args.size]

    def run():
        cat = build_catalog(cls, max_size)
        return {
            str(n): {
                "count": len(cat.of_size(n)),
                "sha": digest([(a.name, serial_key(a)) for a in cat.of_size(n)]),
            }
            for n in range(1, max_size + 1)
        }

    def theory(obs):
        counts = expected["theory"]["lattice_counts"]  # OEIS A006982
        for n in range(1, max_size + 1):
            got = len(enum_distributive_lattices(n))
            if got != counts[n - 1]:
                return f"{got} distributive lattices of size {n}, expected {counts[n - 1]}"
        return None

    return lambda: None, [[Op(f"catalog {args.item}", run, theory)]]


# -- census -------------------------------------------------------------------

def census_ops(args, expected):
    from finheyt import VarietyClass
    from finheyt.algebra import element_profile
    from finheyt.catalog import build_catalog
    from finheyt.decision import decide_projective_finite

    max_size = SIZES["census"][args.size]
    groups = []

    def setup():
        for name in CLASSES:
            for alg in build_catalog(VarietyClass.parse(name), max_size).algebras:
                if alg.nontrivial:
                    groups.append([make_op(alg)])

    def make_op(alg):
        def run():
            simple = element_profile(alg).simple
            projective = decide_projective_finite(alg).projective
            return ("S" if simple else "-") + ("P" if projective else "-")

        def theory(obs):
            # A homomorphism onto 2 from a simple algebra is injective, so a
            # simple algebra is projective exactly when it has two elements.
            if obs[0] == "S" and (obs[1] == "P") != (alg.size == 2):
                return f"simple {alg.name} of size {alg.size} has verdict {obs}"
            return None

        return Op(alg.name, run, theory)

    return setup, groups


# -- products -----------------------------------------------------------------

def products_ops(args, expected):
    from finheyt import VarietyClass
    from finheyt import cli
    from finheyt import congruence as cg
    from finheyt import fixtures, io
    from finheyt.catalog import build_catalog

    facts = expected["theory"]["factors"]
    families = [[p for p in family if args.size == "full" or product_size(p) <= SMALL_PRODUCT]
                for family in FAMILIES]
    names = [p for family in families for p in family]
    have = set(names)
    algebras = {}

    def setup():
        factors = {}
        for key, (cls, source, size) in FACTORS.items():
            if hasattr(fixtures, source):
                factors[key] = getattr(fixtures, source)()
            else:
                members = build_catalog(VarietyClass.parse(cls), size).algebras
                factors[key] = next(a for a in members if a.name == source)
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        os.chdir(workdir)
        for name in names:
            alg = reduce(cg.product, [factors[f] for f in name.split(".")]).rename(name)
            io.write_algebra(f"{name}.json", alg)
            algebras[name] = alg

    def command(argv):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--json"])
        text = out.getvalue().strip()
        return {"exit": code, "record": json.loads(text) if text else None}

    def cli_op(op_id, argv, theory=None):
        def check(obs):
            return theory(obs["exit"], obs["record"]) if theory else None

        def key(obs):
            return {"exit": obs["exit"], "sha": digest(json.dumps(obs["record"], sort_keys=True))}

        return Op(op_id, lambda: command(argv), check, key)

    def factor_facts(name, key):
        return [facts[f][key] for f in name.split(".")]

    def expect_projective(name):
        verdict = any(factor_facts(name, "projective"))  # projective iff a factor is

        def check(code, record):
            if record is None or record["projective"] != verdict or code != (0 if verdict else 1):
                return f"projective {record and record['projective']} exit {code}, expected {verdict}"
            return None

        return check

    def expect_sizes(name):
        sizes = sorted(s for f in factor_facts(name, "simple_sizes") for s in f)

        def check(code, record):
            if code != 0 or record is None or sorted(record["sizes"]) != sizes:
                return f"simple factors {record and record['sizes']}, expected {sizes}"
            return None

        return check

    def expect_boolproj(name):
        size = math.prod(factor_facts(name, "boolproj_size"))

        def check(code, record):
            if code != 0 or record is None or record["algebra"]["size"] != size:
                return f"Boolean projection {record and record['algebra']['size']}, expected {size}"
            return None

        return check

    def expect_identity_quotient(name):
        n = product_size(name)

        def check(code, record):  # the filter {top} gives the identity congruence
            if code != 0 or record is None or len(record["blocks"]) != n \
                    or record["algebra"]["size"] != n:
                return f"quotient by the top filter is not the identity on {n} elements"
            return None

        return check

    def expect_valid(code, record):
        return None if code == 0 and record and record["valid"] else "product is not valid"

    def sweep_op(name):
        op_id = f"sweep {name}"

        def run():
            alg = algebras[name]
            complements, bad = {}, 0
            for a in alg.elements:
                for b in alg.elements:
                    theta = cg.principal_congruence(alg, a, b)
                    if theta.blocks not in complements:
                        complements[theta.blocks] = cg.factor_complement(alg, theta)
                    pair = complements[theta.blocks]
                    ok = pair is not None and (
                        pair.theta.meet(pair.theta_prime).is_identity
                        and pair.theta.join(pair.theta_prime).is_total
                        and pair.theta.permutes_with(pair.theta_prime)
                        and pair.iso.onto
                        and pair.iso.injective
                    )
                    bad += not ok
            pairs = sorted((k, p.theta_prime.blocks if p else None) for k, p in complements.items())
            return {"unverified": bad, "pairs": pairs}

        def theory(obs):
            # Principal congruences of a discriminator algebra are factor congruences.
            if obs["unverified"]:
                return f"{obs['unverified']} principal congruences without a verified complement"
            return None

        return Op(op_id, run, theory, lambda obs: {"sha": digest(obs["pairs"])})

    def script(name):
        f = f"{name}.json"
        ops = [
            cli_op(f"validate {name}", ["validate", f], expect_valid),
            cli_op(f"profile {name}", ["profile", f]),
            cli_op(f"projective {name}", ["projective", "--class", product_class(name), f],
                   expect_projective(name)),
            cli_op(f"rho {name}", ["rho", f]),
            cli_op(f"boolproj {name}", ["boolproj", f], expect_boolproj(name)),
            cli_op(f"decompose {name}", ["decompose", f], expect_sizes(name)),
        ]
        if product_size(name) <= 12:
            top = str(product_size(name) - 1)
            ops.append(cli_op(f"quotient {name}", ["quotient", f, "--filter", top],
                              expect_identity_quotient(name)))
            ops.append(sweep_op(name))
        return ops

    groups = [[op for name in family for op in script(name)] for family in families]
    for mode, a, b in HOMS:
        if {a, b} <= have:
            groups.append([cli_op(f"homs {mode} {a} {b}",
                                  ["homs", f"{a}.json", f"{b}.json", mode])])
    for p, b in RETRACTS:
        if {p, b} <= have:
            groups.append([cli_op(f"retract {p} {b}", ["retract", f"{p}.json", f"{b}.json"])])
    for members in PRIMITIVES:
        if set(members) <= have:
            groups.append([cli_op(f"primitive {' '.join(members)}",
                                  ["primitive", *(f"{g}.json" for g in members)])])
    return setup, groups


WORKLOADS = {"catalog": catalog_ops, "census": census_ops, "products": products_ops}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--item", help="catalog: the class to build")
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--trace-out", help="trace the run and write its spans here")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter reading of the parent just before it started us")
    parser.add_argument("--expected", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", action="store_true",
                        help="observe without comparing against recorded answers")
    args = parser.parse_args()
    probe = Probe()
    probe.start()

    import finheyt
    import finheyt.cli  # noqa: F401  (imports every finheyt module before patching)

    src = (ROOT / "src").resolve()
    if Path(finheyt.__file__).resolve().parent.parent != src:
        print(f"finheyt imported from {finheyt.__file__}, not from {src}", file=sys.stderr)
        return 2

    expected = json.loads(Path(args.expected).read_text())
    tracer = None
    if args.trace_out:
        from spans import OP_SPAN, Tracer

        tracer = Tracer(probe.clock)
        tracer.install()

    setup, groups = WORKLOADS[args.workload](args, expected)
    setup()
    random.Random(args.order_seed).shuffle(groups)
    ops = [op for group in groups for op in group]
    if tracer is not None:
        tracer.start_phase("timed")

    times, observed, raised = [], {}, {}
    first = probe.clock()
    for op in ops:
        # Collect before each operation, untimed: an operation then never pays
        # for the garbage of the ones before it, so its cost does not depend on
        # the order the seed chose.
        gc.collect()
        start = probe.clock()
        try:
            if tracer is not None:
                obs = tracer.record(OP_SPAN, op.run)
            else:
                obs = op.run()
        except Exception as e:  # a raising operation is a failed one, never a skip
            obs = None
            raised[op.id] = f"{type(e).__name__}: {e}"
        times.append([op.id, start, probe.clock()])
        observed[op.id] = obs
    probe.stop()
    if tracer is not None:
        tracer.start_phase("check")

    recorded = expected.get("recorded", {}).get(args.workload, {})
    failures, keys = [], {}
    for op in ops:
        problem = raised.get(op.id)
        if problem is None:
            try:
                problem = op.theory(observed[op.id]) if op.theory else None
                keys[op.id] = op.key(observed[op.id])
            except Exception as e:
                problem = f"check raised {type(e).__name__}: {e}"
        if problem is None and not args.record:
            want = recorded.get(op.id)
            if not matches(keys[op.id], want):
                problem = f"{keys[op.id]} differs from the recorded {want}"
        if problem:
            failures.append([op.id, problem])

    result = {
        "setup_s": probe.scaled(args.spawned_at, first),
        "setup_raw_s": first - args.spawned_at,
        "wall_s": sum(probe.scaled(start, end) for _, start, end in times),
        "wall_raw_s": sum(end - start for _, start, end in times),
        "ops": [[op_id, probe.scaled(start, end)] for op_id, start, end in times],
        "ref_ms": statistics.median(probe.refs) * 1e3,
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.record:
        result["observed"] = keys
    if tracer is not None:
        result["trace"] = {
            "setup": tracer.summary("setup", probe.scaled),
            "timed": tracer.summary("timed", probe.scaled),
            "missing": tracer.missing,
        }
        Path(args.trace_out).write_text(json.dumps({
            "workload": args.workload, "item": args.item, "missing": tracer.missing,
            "spans": {phase: spans for phase, spans in tracer.phases.items()},
        }))
    print(json.dumps(result, default=list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
