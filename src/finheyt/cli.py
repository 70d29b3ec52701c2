"""Command-line surface.

Each ``_cmd_*`` returns ``(verdict, fields, human)``: the decision (``True`` for
the commands that always succeed), the ``--json`` fields and the human line
built from the same values.  ``main`` alone prints, once the command has
returned: the record is ``{"command": <subcommand>, **fields}``.  Exit codes,
all set in ``main``: 0 success / decided true, 1 decided false, 2 error, 3
internal theorem violation (equivalent criteria disagreed); on 2 and 3 stdout
stays empty.
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
    fields = {
        "file": str(args.file),
        "valid": report.valid,
        "violations": [{"axiom": n, "witness": list(w)} for n, w in report.violations],
    }
    lines = [f"{args.file}: {'valid' if report.valid else 'INVALID'}"]
    lines += [f"  {n} at {w}" for n, w in report.violations]
    return report.valid, fields, "\n".join(lines)


def _cmd_profile(args):
    alg = io.read_algebra(args.file)
    prof = element_profile(alg)
    fields = {
        "algebra": alg.name,
        "open": sorted(prof.open) if prof.open is not None else None,
        "dense": sorted(prof.dense),
        "regular": sorted(prof.regular),
        "boolean_h_reduct": prof.boolean_h_reduct,
        "simple": prof.simple,
    }
    shown = [f"{k}={'n/a' if v is None else v}" for k, v in fields.items() if k != "algebra"]
    return True, fields, f"{alg.name or args.file}: " + " ".join(shown)


def _cmd_homs(args):
    if args.cap is not None and not (args.count or args.all):
        raise FinheytError("--cap applies only with --count or --all")
    a, b = io.read_algebra(args.fileA), io.read_algebra(args.fileB)
    onto = "_onto" if args.onto else ""
    if not (args.count or args.all):
        hom = morphism.homs(a, b, "any" + onto)
        fields = {"map": list(hom.map) if hom else None}
        return hom is not None, fields, str(fields["map"]) if hom else "none"
    res = morphism.homs(a, b, "all" + onto, cap=args.cap)
    if args.count:
        fields = {"count": len(res.homs), "truncated": res.truncated}
        return bool(res.homs), fields, f"{len(res.homs)}{' (truncated)' if res.truncated else ''}"
    fields = {"maps": [list(h.map) for h in res.homs], "truncated": res.truncated}
    lines = [str(m) for m in fields["maps"]]
    if res.truncated:
        lines.append("(truncated: enumeration capped)")
    return bool(res.homs), fields, "\n".join(lines) if lines else "none"


def _cmd_quotient(args):
    alg = io.read_algebra(args.file)
    carrier = frozenset(int(t) for t in args.filter.split(","))
    theta = congruence.to_congruence(alg, carrier)
    out, proj = congruence.quotient(alg, theta)
    fields = {
        "blocks": [list(b) for b in theta.blocks],
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"{alg.name}/filter")),
    }
    human = (f"blocks: {fields['blocks']}\nprojection: {fields['projection']}\n"
             + json.dumps(fields["algebra"]))
    return True, fields, human


def _cmd_decompose(args):
    alg = io.read_algebra(args.file)
    factors = congruence.decompose_simples(alg)
    fields = {
        "sizes": [f.size for f in factors],
        "factors": [io.algebra_to_dict(f.rename(f"factor_{i}")) for i, f in enumerate(factors)],
    }
    kind = "indecomposable" if alg.box is None else "simple"
    return True, fields, f"{len(factors)} {kind} factor(s), sizes {fields['sizes']}"


def _cmd_projective(args):
    cls = VarietyClass.parse(args.cls)
    if (args.algebra is None) == (args.presentation is None):
        raise FinheytError("give exactly one of <algebra-file> or --presentation")
    if args.presentation:
        pair = io.read_presentation(args.presentation)
        verdict = decision.decide_projective_fp(cls, pair)
        fields = {
            "projective": verdict.projective,
            "assignment": verdict.assignment,
            "note": verdict.note,
        }
        return verdict.projective, fields, f"projective: {verdict.projective} ({verdict.note})"
    alg = io.read_algebra(args.algebra)
    if alg.cls != cls:
        raise FinheytError(f"file class {alg.cls} does not match --class {cls}")
    verdict = decision.decide_projective_finite(alg)
    witness = verdict.witness
    fields = {
        "projective": verdict.projective,
        "criteria": verdict.criteria,
        "witness": list(witness.map) if isinstance(witness, morphism.Homomorphism) else witness,
        "note": verdict.note,
    }
    human = f"projective: {verdict.projective} criteria: {verdict.criteria}"
    return verdict.projective, fields, human


def _cmd_rho(args):
    alg = io.read_algebra(args.file)
    chk = terms.check_quasiidentity(alg, decision.rho())
    human = f"rho holds: {chk.holds}" + (f" witness {chk.witness}" if chk.witness else "")
    return chk.holds, {"holds": chk.holds, "witness": chk.witness}, human


def _cmd_alpha(args):
    alg = io.read_algebra(args.file)
    formula = decision.diagram_alpha(two_element(alg.cls))
    found = terms.satisfying_assignment(alg, formula)
    witness = None if found is None else [found["x"], found["y"]]
    fields = {"holds": found is not None, "witness": witness, "assignment": found}
    human = f"alpha holds: {found is not None}" + (f" witness (x, y) = {tuple(witness)}"
                                                     if witness else "")
    return found is not None, fields, human


def _cmd_retract(args):
    p, b = io.read_algebra(args.fileP), io.read_algebra(args.fileB)
    witness = morphism.is_retract(p, b)
    fields = {
        "is_retract": witness is not None,
        "retraction": list(witness.retraction.map) if witness else None,
        "injection": list(witness.injection.map) if witness else None,
    }
    human = f"retract: {witness is not None}"
    if witness:
        human += f"\nretraction: {fields['retraction']}\ninjection: {fields['injection']}"
    return witness is not None, fields, human


def _cmd_boolproj(args):
    alg = io.read_algebra(args.file)
    out, proj = congruence.boolean_projection(alg)
    fields = {
        "projection": list(proj.map),
        "algebra": io.algebra_to_dict(out.rename(f"boolproj({alg.name})")),
    }
    return True, fields, f"boolean projection size {out.size}, projection {fields['projection']}"


def _cmd_primitive(args):
    algebras = [io.read_algebra(f) for f in args.files]
    report = decision.primitive_report(algebras)
    fields = {
        "primitive": report.primitive,
        "entries": [
            {"algebra": e.algebra.name, "rho_holds": e.rho_holds, "witness": e.witness}
            for e in report.entries
        ],
    }
    lines = [f"primitive: {report.primitive}"]
    lines += [f"  {e['algebra'] or '?'}: rho {'holds' if e['rho_holds'] else 'fails'}"
              + (f" witness {e['witness']}" if e["witness"] else "") for e in fields["entries"]]
    return report.primitive, fields, "\n".join(lines)


def _cmd_catalog(args):
    cls = VarietyClass.parse(args.cls)
    cat = build_catalog(cls, args.max_size)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for alg in cat.algebras:
        io.write_algebra(outdir / f"{alg.name}.json", alg)
    fields = {
        "class": str(cls),
        "max_size": args.max_size,
        "counts": {n: len(cat.of_size(n)) for n in range(1, args.max_size + 1)},
        "total": len(cat.algebras),
        "out": str(outdir),
    }
    human = f"wrote {len(cat.algebras)} algebras to {outdir} (by size: {fields['counts']})"
    return True, fields, human


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
        verdict, fields, human = args.fn(args)
        print(json.dumps({"command": args.command, **fields}) if args.json else human)
        return 0 if verdict else 1
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 3
    except (FinheytError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
