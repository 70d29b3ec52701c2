#!/usr/bin/env python3
"""finheyt benchmark: three closed-loop workloads, measured from outside the program.

    python3 perfbench/run.py --workload catalog|census|products \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition runs in a fresh interpreter (``workloads.py``), one thread,
one operation at a time.  Another repetition starts while at least half of
one as long as the last still fits in ``--seconds``.  The seed only shuffles
the order of operations; the inputs never change.

Every time is scaled to a fixed machine speed by the speed probe that runs
in each workload process (``speed.py``), because the shared host's speed
swings by up to 1.5 times within seconds.

``--trace 0`` prints the end-to-end metrics over all the repetitions of the
run (see README.md).  ``--trace 1`` alternates traced and untraced
repetitions and prints the per-layer metrics from the traced ones (spans in
``spans.py``); their spans are written under ``.perfbench_out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # a run must end within 180 s
CATALOG_CLASSES = ("ws5", "hri", "dht:2")
# Spans also reported for the setup phase, where `census` builds its catalogs.
SETUP_SPANS = ("catalog.enum", "catalog.decorate", "algebra.canonical", "algebra.validate")

sys.path.insert(0, str(HERE))
from spans import SPANS  # noqa: E402


def run_child(args, item, order_seed, trace_out, workdir, deadline, record):
    """Run one workload process and return its result line."""
    workload = args.workload
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--size", args.size, "--order-seed", str(order_seed), "--expected", str(args.expected),
        "--workdir", str(workdir),
    ]
    if item:
        cmd += ["--item", item]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if record:
        cmd.append("--record")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = perf_counter()
    proc = subprocess.Popen(
        [*cmd, "--spawned-at", repr(spawned)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} {item or ''} did not finish within the run limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {item or ''} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_rep(args, order_seed, traced, deadline, record=False):
    """One repetition: one fresh process per catalog class, else one process."""
    rng = random.Random(order_seed)
    items = list(CATALOG_CLASSES) if args.workload == "catalog" else [None]
    rng.shuffle(items)
    workdir = OUT / f"work-{os.getpid()}"
    children = []
    try:
        for item in items:
            trace_out = None
            if traced:
                OUT.mkdir(exist_ok=True)
                tag = f"-{item.replace(':', '_')}" if item else ""
                trace_out = OUT / f"trace-{args.workload}{tag}-seed{args.seed}-{order_seed}.json"
            children.append(run_child(args, item, rng.randrange(2**32), trace_out, workdir,
                                      deadline, record))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setups": [c["setup_s"] for c in children],
        "raw_setups": [c["setup_raw_s"] for c in children],
        "wall_s": sum(c["wall_s"] for c in children),
        "raw_wall_s": sum(c["wall_raw_s"] for c in children),
        "ref_ms": [c["ref_ms"] for c in children],
        "ops": [op for c in children for op in c["ops"]],
        "failures": [f for c in children for f in c["failures"]],
        "rss_mb": max(c["rss_mb"] for c in children),
        "traces": [c["trace"] for c in children if "trace" in c],
        "observed": {k: v for c in children for k, v in c.get("observed", {}).items()},
    }


def layer_metrics(traces) -> dict:
    """Self seconds, calls and extras per span, summed over the processes of a repetition."""
    out = {}
    for name, *_, extra, _ in SPANS:
        entries = [t["timed"][name] for t in traces if name in t["timed"]]
        out[f"{name}.self_s"] = (sum(e["self_s"] for e in entries), "s")
        out[f"{name}.calls"] = (sum(e["calls"] for e in entries), "count")
        if extra:
            total = sum(e["extra"][0] for e in entries if "extra" in e)
            calls = sum(e["extra"][1] for e in entries if "extra" in e)
            if extra == "out":
                out[f"{name}.out"] = (total, "count")
            else:
                out[f"{name}.{extra}"] = (total / calls if calls else 0.0, "frac")
    for name in SETUP_SPANS:
        entries = [t["setup"][name] for t in traces if name in t["setup"]]
        out[f"setup.{name}.self_s"] = (sum(e["self_s"] for e in entries), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("catalog", "census", "products"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the reduced inputs of the self-test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="expected answers (the self-test passes a corrupted copy)")
    args = parser.parse_args()

    if not (ROOT / "src" / "finheyt" / "__init__.py").is_file():
        print(f"no finheyt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    rng = random.Random(args.seed)
    reps = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 0
        t0 = perf_counter()
        try:
            rep = run_rep(args, rng.randrange(2**32), traced, deadline)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        rep["traced"] = traced
        reps.append(rep)
        last = perf_counter() - t0
        elapsed = perf_counter() - started
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and (elapsed + last / 2 > args.seconds or elapsed + last > RUN_LIMIT_S):
            break

    attempted = sum(len(r["ops"]) for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for op_id, problem in failures[:20]:
        print(f"FAILED {op_id}: {problem}", file=sys.stderr)

    plain = [r for r in reps if not r["traced"]]
    n_ops = len(plain[0]["ops"])
    if n_ops > 10:
        note = (f"op_ms.tail is the {100 * (n_ops - 10) / n_ops:.1f}th percentile "
                f"(10 operations beyond it)")
    else:
        note = "op_ms.tail is the slowest operation (too few operations for a percentile)"
    print(f"# {args.workload}: {len(reps)} repetitions ({len(plain)} untraced), "
          f"{n_ops} operations each; {note}")
    if args.trace == 0:
        # Every time is at the nominal machine speed (speed.py).  Each figure
        # covers all the repetitions of the run: wall_s is their median, and
        # an operation's latency is its median over them, which also keeps a
        # burst of noise during one repetition out of the tail.
        times = {}
        for r in plain:
            for op_id, t in r["ops"]:
                times.setdefault(op_id, []).append(t)
        latency = sorted(statistics.median(ts) for ts in times.values())
        metrics = {
            "setup_s": (statistics.median(s for r in plain for s in r["setups"]), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "op_ms.p50": (statistics.median(latency) * 1e3, "ms"),
            "op_ms.tail": ((latency[n_ops - 11] if n_ops > 10 else latency[-1]) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        }
    else:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r["traces"]) for r in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_frac"] = (
            traced_wall / statistics.median(r["wall_s"] for r in plain) - 1, "frac")
        # The untraced repetitions as measured, before scaling to the nominal speed.
        metrics["raw.wall_s"] = (statistics.median(r["raw_wall_s"] for r in plain), "s")
        metrics["raw.setup_s"] = (
            statistics.median(s for r in plain for s in r["raw_setups"]), "s")
        metrics["speed.ref_ms"] = (
            statistics.median(m for r in plain for m in r["ref_ms"]), "ms")
        missing = sorted({m for r in traced for t in r["traces"] for m in t["missing"]})
        if missing:
            print(f"# public functions not found, spans reported as zero: {missing}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
