"""Command-line surface.

Each ``_cmd_*`` returns ``(exit_code, record, human)``: the ``--json`` record and
the human line built from the same values.  ``main`` alone prints, once the
command has returned.  Exit codes: 0 success / decided true, 1 decided false,
2 error, 3 internal theorem violation (equivalent criteria disagreed); on 2 and
3 stdout stays empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import congruence, decision, io, morphism, terms
from .algebra import VarietyClass, element_profile, validate
from .catalog import MAX_LATTICE_SIZE, build_catalog
from .errors import FinheytError, TheoremViolation
from .fixtures import two_element


def _cmd_validate(args):
    alg = io.read_algebra(args.file, check=False)
    report = validate(alg)
    record = {
        "command": "validate",
        "file": str(args.file),
        "valid": report.valid,
        "violations": [{"axiom": n, "witness": list(w)} for n, w in report.violations],
    }
    lines = [f"{args.file}: {'valid' if report.valid else 'INVALID'}"]
    lines += [f"  {n} at {w}" for n, w in report.violations]
    return (0 if report.valid else 1), record, "\n".join(lines)


def _cmd_profile(args):
    alg = io.read_algebra(args.file)
    prof = element_profile(alg)
    record = {
        "command": "profile",
        "algebra": alg.name,
        "open": sorted(prof.open) if prof.open is not None else None,
        "dense": sorted(prof.dense),
        "regular": sorted(prof.regular),
        "boolean_h_reduct": prof.boolean_h_reduct,
        "simple": prof.simple,
    }
    fields = [f"{k}={'n/a' if v is None else v}" for k, v in record.items()
              if k not in ("command", "algebra")]
    return 0, record, f"{alg.name or args.file}: " + " ".join(fields)


def _cmd_homs(args):
    if args.cap is not None and not (args.count or args.all):
        raise FinheytError("--cap applies only with --count or --all")
    a, b = io.read_algebra(args.fileA), io.read_algebra(args.fileB)
    onto = "_onto" if args.onto else ""
    if not (args.count or args.all):
        hom = morphism.homs(a, b, "any" + onto)
        record = {"command": "homs", "map": list(hom.map) if hom else None}
        return (0 if hom else 1), record, str(record["map"]) if hom else "none"
    res = morphism.homs(a, b, "all" + onto, cap=args.cap)
    code = 0 if res.homs else 1
    if args.count:
        record = {"command": "homs", "count": len(res.homs), "truncated": res.truncated}
        return code, record, f"{record['count']}{' (truncated)' if res.truncated else ''}"
    record = {
        "command": "homs",
        "maps": [list(h.map) for h in res.homs],
        "truncated": res.truncated,
    }
    lines = [str(m) for m in record["maps"]]
    if res.truncated:
        lines.append("(truncated: enumeration capped)")
    return code, record, "\n".join(lines) if lines else "none"


def _cmd_quotient(args):
    alg = io.read_algebra(args.file)
    carrier = frozenset(int(t) for t in args.filter.split(","))
    theta = congruence.to_congruence(alg, carrier)
    out, proj = congruence.quotient(alg, theta)
    record = {
        "command": "quotient",
        "blocks": [list(b) for b in theta.blocks],
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"{alg.name}/filter")),
    }
    human = (f"blocks: {record['blocks']}\nprojection: {record['projection']}\n"
             + json.dumps(record["algebra"]))
    return 0, record, human


def _cmd_decompose(args):
    alg = io.read_algebra(args.file)
    factors = congruence.decompose_simples(alg)
    record = {
        "command": "decompose",
        "sizes": [f.size for f in factors],
        "factors": [io.algebra_to_dict(f.rename(f"factor_{i}")) for i, f in enumerate(factors)],
    }
    kind = "indecomposable" if alg.box is None else "simple"
    return 0, record, f"{len(factors)} {kind} factor(s), sizes {record['sizes']}"


def _cmd_projective(args):
    cls = VarietyClass.parse(args.cls)
    if (args.algebra is None) == (args.presentation is None):
        raise FinheytError("give exactly one of <algebra-file> or --presentation")
    if args.presentation:
        pair = io.read_presentation(args.presentation)
        verdict = decision.decide_projective_fp(cls, pair)
        record = {
            "command": "projective",
            "projective": verdict.projective,
            "assignment": verdict.assignment,
            "note": verdict.note,
        }
        human = f"projective: {verdict.projective} ({verdict.note})"
        return (0 if verdict.projective else 1), record, human
    alg = io.read_algebra(args.algebra)
    if alg.cls != cls:
        raise FinheytError(f"file class {alg.cls} does not match --class {cls}")
    verdict = decision.decide_projective_finite(alg)
    witness = verdict.witness
    record = {
        "command": "projective",
        "projective": verdict.projective,
        "criteria": verdict.criteria,
        "witness": list(witness.map) if isinstance(witness, morphism.Homomorphism) else witness,
        "note": verdict.note,
    }
    human = f"projective: {verdict.projective} criteria: {verdict.criteria}"
    return (0 if verdict.projective else 1), record, human


def _cmd_rho(args):
    alg = io.read_algebra(args.file)
    chk = terms.check_quasiidentity(alg, decision.rho())
    record = {"command": "rho", "holds": chk.holds, "witness": chk.witness}
    human = f"rho holds: {chk.holds}" + (f" witness {chk.witness}" if chk.witness else "")
    return (0 if chk.holds else 1), record, human


def _cmd_alpha(args):
    alg = io.read_algebra(args.file)
    formula = decision.diagram_alpha(two_element(alg.cls))
    found = terms.satisfying_assignment(alg, formula)
    witness = None if found is None else [found["x"], found["y"]]
    record = {"command": "alpha", "holds": found is not None, "witness": witness,
              "assignment": found}
    human = f"alpha holds: {found is not None}" + (f" witness (x, y) = {tuple(witness)}"
                                                     if witness else "")
    return (0 if witness else 1), record, human


def _cmd_retract(args):
    p, b = io.read_algebra(args.fileP), io.read_algebra(args.fileB)
    witness = morphism.is_retract(p, b)
    record = {
        "command": "retract",
        "is_retract": witness is not None,
        "retraction": list(witness.retraction.map) if witness else None,
        "injection": list(witness.injection.map) if witness else None,
    }
    human = f"retract: {witness is not None}"
    if witness:
        human += f"\nretraction: {record['retraction']}\ninjection: {record['injection']}"
    return (0 if witness else 1), record, human


def _cmd_boolproj(args):
    alg = io.read_algebra(args.file)
    out, proj = congruence.boolean_projection(alg)
    record = {
        "command": "boolproj",
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"boolproj({alg.name})")),
    }
    return 0, record, f"boolean projection size {out.size}, projection {record['projection']}"


def _cmd_primitive(args):
    algebras = [io.read_algebra(f) for f in args.files]
    report = decision.primitive_report(algebras)
    record = {
        "command": "primitive",
        "primitive": report.primitive,
        "entries": [
            {"algebra": e.algebra.name, "rho_holds": e.rho_holds, "witness": e.witness}
            for e in report.entries
        ],
    }
    lines = [f"primitive: {report.primitive}"]
    lines += [f"  {e['algebra'] or '?'}: rho {'holds' if e['rho_holds'] else 'fails'}"
              + (f" witness {e['witness']}" if e["witness"] else "") for e in record["entries"]]
    return (0 if report.primitive else 1), record, "\n".join(lines)


def _cmd_catalog(args):
    cls = VarietyClass.parse(args.cls)
    cat = build_catalog(cls, args.max_size)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for alg in cat.algebras:
        io.write_algebra(outdir / f"{alg.name}.json", alg)
    record = {
        "command": "catalog",
        "class": str(cls),
        "max_size": args.max_size,
        "counts": {n: len(cat.of_size(n)) for n in range(1, args.max_size + 1)},
        "total": len(cat.algebras),
        "out": str(outdir),
    }
    return 0, record, f"wrote {record['total']} algebras to {outdir} (by size: {record['counts']})"


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call of main."""
    parser = argparse.ArgumentParser(
        prog="finheyt",
        description="workbench for finite Heyting-based discriminator algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *files):
        p = sub.add_parser(name, parents=[common])
        for file in files:
            p.add_argument(file)
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "file")
    add("profile", _cmd_profile, "file")

    p = add("homs", _cmd_homs, "fileA", "fileB")
    p.add_argument("--onto", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--all", action="store_true")
    p.add_argument("--cap", type=int, default=None)

    p = add("quotient", _cmd_quotient, "file")
    p.add_argument("--filter", required=True, help="comma-separated filter elements")

    add("decompose", _cmd_decompose, "file")

    p = add("projective", _cmd_projective)
    p.add_argument("--class", dest="cls", required=True, help="ws5|hri|hdp:N|dht:N")
    p.add_argument("algebra", nargs="?")
    p.add_argument("--presentation")

    add("rho", _cmd_rho, "file")
    add("alpha", _cmd_alpha, "file")
    add("retract", _cmd_retract, "fileP", "fileB")
    add("boolproj", _cmd_boolproj, "file")

    p = add("primitive", _cmd_primitive)
    p.add_argument("files", nargs="+")

    p = add("catalog", _cmd_catalog)
    p.add_argument("--class", dest="cls", required=True,
                   help="heyting|ws5|hri|hdp:N|dht:N")
    p.add_argument("--max-size", type=int, required=True,
                   help=f"largest universe (<= {MAX_LATTICE_SIZE})")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, record, human = args.fn(args)
        print(json.dumps(record) if args.json else human)
        return code
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 3
    except (FinheytError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
