"""Command-line surface.

Exit codes: 0 success / decided true, 1 decided false, 2 error,
3 internal theorem violation (equivalent criteria disagreed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import congruence, decision, io, morphism, terms
from .algebra import (
    VarietyClass,
    derive_operations,
    element_profile,
    validate,
)
from .catalog import MAX_LATTICE_SIZE, build_catalog
from .errors import FinheytError, TheoremViolation
from .fixtures import two_element


def _emit(args, human: str, record: dict) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(human)


def _load(path, derive: bool = True):
    alg = io.read_algebra(path)
    if derive and alg.cls.kind != "heyting" and alg.box is None:
        alg = derive_operations(alg)
    return alg


def _cmd_validate(args) -> int:
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
    _emit(args, "\n".join(lines), record)
    return 0 if report.valid else 1


def _cmd_profile(args) -> int:
    alg = _load(args.file)
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
    human = (
        f"{alg.name or args.file}: open={sorted(prof.open) if prof.open is not None else 'n/a'} "
        f"dense={sorted(prof.dense)} regular={sorted(prof.regular)} "
        f"boolean_h_reduct={prof.boolean_h_reduct} simple={prof.simple}"
    )
    _emit(args, human, record)
    return 0


def _cmd_homs(args) -> int:
    a, b = _load(args.fileA), _load(args.fileB)
    onto = "_onto" if args.onto else ""
    if args.count or args.all:
        res = morphism.homs(a, b, "all" + onto, cap=args.cap)
        maps = res.homs
        if args.count:
            record = {"command": "homs", "count": len(maps), "truncated": res.truncated}
            _emit(args, f"{len(maps)}{' (truncated)' if res.truncated else ''}", record)
        else:
            record = {
                "command": "homs",
                "maps": [list(h.map) for h in maps],
                "truncated": res.truncated,
            }
            lines = [str(list(h.map)) for h in maps]
            if res.truncated:
                lines.append("(truncated: enumeration capped)")
            _emit(args, "\n".join(lines) if lines else "none", record)
        return 0 if maps else 1
    hom = morphism.homs(a, b, "any" + onto)
    record = {"command": "homs", "map": list(hom.map) if hom else None}
    _emit(args, str(list(hom.map)) if hom else "none", record)
    return 0 if hom else 1


def _cmd_quotient(args) -> int:
    alg = _load(args.file)
    carrier = frozenset(int(t) for t in args.filter.split(","))
    theta = congruence.to_congruence(alg, carrier)
    out, proj = congruence.quotient(alg, theta)
    record = {
        "command": "quotient",
        "blocks": [list(b) for b in theta.blocks],
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"{alg.name}/filter")),
    }
    human = (
        f"blocks: {[list(b) for b in theta.blocks]}\nprojection: {list(proj.map)}\n"
        + json.dumps(io.algebra_to_dict(out.rename(f"{alg.name}/filter")))
    )
    _emit(args, human, record)
    return 0


def _cmd_decompose(args) -> int:
    alg = _load(args.file)
    factors = congruence.decompose_simples(alg)
    record = {
        "command": "decompose",
        "sizes": [f.size for f in factors],
        "factors": [io.algebra_to_dict(f.rename(f"factor_{i}")) for i, f in enumerate(factors)],
    }
    _emit(args, f"{len(factors)} simple factor(s), sizes {[f.size for f in factors]}", record)
    return 0


def _cmd_projective(args) -> int:
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
        _emit(args, f"projective: {verdict.projective} ({verdict.note})", record)
        return 0 if verdict.projective else 1
    alg = _load(args.algebra)
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
    _emit(args, f"projective: {verdict.projective} criteria: {verdict.criteria}", record)
    return 0 if verdict.projective else 1


def _cmd_rho(args) -> int:
    alg = _load(args.file)
    chk = terms.check_quasiidentity(alg, decision.rho())
    record = {"command": "rho", "holds": chk.holds, "witness": chk.witness}
    _emit(args, f"rho holds: {chk.holds}" + (f" witness {chk.witness}" if chk.witness else ""), record)
    return 0 if chk.holds else 1


def _cmd_alpha(args) -> int:
    alg = _load(args.file)
    formula = decision.diagram_alpha(two_element(alg.cls))
    value = decision.eval_formula(alg, formula)
    record = {"command": "alpha", "holds": value}
    _emit(args, f"alpha holds: {value}", record)
    return 0 if value else 1


def _cmd_retract(args) -> int:
    p, b = _load(args.fileP), _load(args.fileB)
    witness = morphism.is_retract(p, b)
    record = {
        "command": "retract",
        "is_retract": witness is not None,
        "retraction": list(witness.retraction.map) if witness else None,
        "injection": list(witness.injection.map) if witness else None,
    }
    human = (
        f"retract: {witness is not None}"
        + (f"\nretraction: {list(witness.retraction.map)}\ninjection: {list(witness.injection.map)}"
           if witness else "")
    )
    _emit(args, human, record)
    return 0 if witness else 1


def _cmd_boolproj(args) -> int:
    alg = _load(args.file)
    out, proj = congruence.boolean_projection(alg)
    record = {
        "command": "boolproj",
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"boolproj({alg.name})")),
    }
    _emit(args, f"boolean projection size {out.size}, projection {list(proj.map)}", record)
    return 0


def _cmd_primitive(args) -> int:
    algebras = [_load(f) for f in args.files]
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
    lines += [f"  {e.algebra.name or '?'}: rho {'holds' if e.rho_holds else 'fails'}"
              + (f" witness {e.witness}" if e.witness else "") for e in report.entries]
    _emit(args, "\n".join(lines), record)
    return 0 if report.primitive else 1


def _cmd_catalog(args) -> int:
    cls = VarietyClass.parse(args.cls)
    cat = build_catalog(cls, args.max_size)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for alg in cat.algebras:
        io.write_algebra(outdir / f"{alg.name}.json", alg)
    by_size = {n: len(cat.of_size(n)) for n in range(1, args.max_size + 1)}
    record = {
        "command": "catalog",
        "class": str(cls),
        "max_size": args.max_size,
        "counts": by_size,
        "total": len(cat.algebras),
        "out": str(outdir),
    }
    _emit(args, f"wrote {len(cat.algebras)} algebras to {outdir} (by size: {by_size})", record)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finheyt",
        description="workbench for finite Heyting-based discriminator algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("profile", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("homs", parents=[common])
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--onto", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--all", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=_cmd_homs)

    p = sub.add_parser("quotient", parents=[common])
    p.add_argument("file")
    p.add_argument("--filter", required=True, help="comma-separated filter elements")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("projective", parents=[common])
    p.add_argument("--class", dest="cls", required=True, help="ws5|hri|hdp:N|dht:N")
    p.add_argument("algebra", nargs="?")
    p.add_argument("--presentation")
    p.set_defaults(fn=_cmd_projective)

    p = sub.add_parser("rho", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("alpha", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("retract", parents=[common])
    p.add_argument("fileP")
    p.add_argument("fileB")
    p.set_defaults(fn=_cmd_retract)

    p = sub.add_parser("boolproj", parents=[common])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_boolproj)

    p = sub.add_parser("primitive", parents=[common])
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_primitive)

    p = sub.add_parser("catalog", parents=[common])
    p.add_argument("--class", dest="cls", required=True,
                   help="heyting|ws5|hri|hdp:N|dht:N")
    p.add_argument("--max-size", type=int, required=True,
                   help=f"largest universe (<= {MAX_LATTICE_SIZE})")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 3
    except (FinheytError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
