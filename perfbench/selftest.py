#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload at the self-test size (catalogs and census up to size 6,
products on the 9- and 12-element files only), untraced and traced, and checks
that:
  - each run passes its output checks and prints every metric named in
    BENCHMARK.json;
  - the traced runs see calls on the layers each workload is meant to drive,
    and no decision-layer calls in `catalog`;
  - with deliberately corrupted expected answers every workload fails loudly:
    nonzero exit, "correct": false and failed operations.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "census", "products")

# Spans that must record calls in the timed phase of each workload.
DRIVEN = {
    "catalog": ("catalog.enum", "catalog.decorate", "algebra.canonical", "algebra.validate"),
    "census": ("algebra.profile", "decision.decide", "decision.alpha", "decision.diagram",
               "decision.element", "terms.quasiidentity", "morphism.homs"),
    "products": ("algebra.canonical", "congruence.to_congruence", "congruence.quotient",
                 "congruence.decompose", "congruence.boolproj", "congruence.factor_complement",
                 "morphism.homs", "morphism.retract", "morphism.isomorphic", "decision.decide",
                 "decision.alpha", "decision.diagram", "decision.element",
                 "terms.quasiidentity", "io.read", "cli.main"),
}
# Spans that must record no calls in the timed phase (the bypass side).
BYPASSED = {
    "catalog": ("decision.decide", "decision.alpha", "decision.diagram", "decision.element"),
    "census": ("catalog.enum", "catalog.decorate", "algebra.canonical"),
    "products": (),
}


def run(workload, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    if expected:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def corrupted_copy() -> Path:
    data = json.loads((HERE / "expected.json").read_text())
    data["theory"]["lattice_counts"][5] += 1  # the 5 lattices of size 6
    data["theory"]["factors"]["d3"]["simple_sizes"] = [2]
    census = data["recorded"]["census"]
    census["ws5_n3_00"] = "--" if census["ws5_n3_00"] != "--" else "S-"
    path = ROOT / ".perfbench_out" / "selftest-expected.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data))
    return path


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}\n{err[-1000:]}")
                continue
            if set(result["metrics"]) != names[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names[trace])}")
            if trace:
                calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items()
                         if k.endswith(".calls")}
                problems += [f"{where}: no calls on {s}" for s in DRIVEN[workload] if not calls[s]]
                problems += [f"{where}: {calls[s]} calls on {s}, expected none"
                             for s in BYPASSED[workload] if calls[s]]
            print(f"ok   {where}")
    bad = corrupted_copy()
    for workload in WORKLOADS:
        code, result, err = run(workload, 0, bad)
        if code == 0 or not result or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: corrupted answers not caught (exit {code}, {result})")
        else:
            print(f"ok   {workload} fails on corrupted answers: {err.splitlines()[0]}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
