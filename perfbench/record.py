#!/usr/bin/env python3
"""Record the answers the benchmark compares against, into expected.json.

    python3 perfbench/record.py

Runs one untraced repetition of every workload at full size and stores each
operation's observation under "recorded".  The hand-written "theory" answers
are still checked while recording and are never rewritten.  Record only at a
commit whose answers are known to be right.
"""

import argparse
import json
import sys
from time import perf_counter

import run


def render(expected) -> str:
    """JSON with one theory fact and one recorded answer per line."""
    def block(entries, indent):
        pad = " " * indent
        return ",\n".join(f"{pad}{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())

    workloads = ",\n".join(
        f"  {json.dumps(w)}: {{\n{block(ops, 3)}\n  }}" for w, ops in expected["recorded"].items()
    )
    return (f'{{\n "theory": {{\n{block(expected["theory"], 2)}\n }},\n'
            f' "recorded": {{\n{workloads}\n }}\n}}\n')


def main() -> int:
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    recorded = {}
    for workload in ("catalog", "census", "products"):
        args = argparse.Namespace(workload=workload, seed=0, size="full", expected=str(path))
        rep = run.run_rep(args, 0, False, perf_counter() + 600, record=True)
        if rep["failures"]:
            print(f"{workload}: theory checks failed: {rep['failures'][:5]}", file=sys.stderr)
            return 1
        recorded[workload] = dict(sorted(rep["observed"].items()))
        print(f"{workload}: {len(rep['observed'])} answers recorded")
    expected["recorded"] = recorded
    path.write_text(render(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
