"""Spans around finheyt's public functions, patched in from outside the program.

Each wrapped function records (name, start, end, parent) for every call.  The
wrapper replaces the function object in every ``finheyt`` module namespace that
holds a reference to it, so calls through ``module.func`` and through names
imported with ``from .x import func`` are both seen.  ``src/`` is not touched.

Per-element hot functions (``eval_term``, ``FiniteAlgebra.le``) are left alone
on purpose: their call counts would make the wrapper cost swamp the work.
"""

from __future__ import annotations

import importlib
import sys


def _out(result):
    return len(result)


def _valid(result):
    return 1.0 if result.valid else 0.0


def _found(result):
    return 0.0 if result is None else 1.0


# (span, module, public function, extra metric, how the extra reads a result).
# An "out" extra is summed over calls; a "*_frac" extra is averaged over calls.
SPANS = (
    ("catalog.enum", "finheyt.catalog", "enum_distributive_lattices", "out", _out),
    ("catalog.decorate", "finheyt.catalog", "decorate", "out", _out),
    ("algebra.canonical", "finheyt.algebra", "canonical_relabeling", None, None),
    ("algebra.validate", "finheyt.algebra", "validate", "valid_frac", _valid),
    ("algebra.profile", "finheyt.algebra", "element_profile", None, None),
    ("congruence.to_congruence", "finheyt.congruence", "to_congruence", None, None),
    ("congruence.quotient", "finheyt.congruence", "quotient", None, None),
    ("congruence.decompose", "finheyt.congruence", "decompose_simples", None, None),
    ("congruence.boolproj", "finheyt.congruence", "boolean_projection", None, None),
    ("congruence.factor_complement", "finheyt.congruence", "factor_complement",
     "found_frac", _found),
    ("morphism.homs", "finheyt.morphism", "homs", None, None),
    ("morphism.retract", "finheyt.morphism", "is_retract", None, None),
    ("morphism.isomorphic", "finheyt.morphism", "isomorphic", "found_frac", _found),
    ("decision.decide", "finheyt.decision", "decide_projective_finite", None, None),
    # eval_formula, not the eval_alpha alias, which is slated for removal.
    ("decision.alpha", "finheyt.decision", "eval_formula", None, None),
    ("decision.diagram", "finheyt.decision", "diagram_alpha", None, None),
    ("decision.element", "finheyt.decision", "element_criterion", None, None),
    ("terms.quasiidentity", "finheyt.terms", "check_quasiidentity", None, None),
    ("io.read", "finheyt.io", "read_algebra", None, None),
    ("cli.main", "finheyt.cli", "main", None, None),
)

# The benchmark's own span around each timed operation; its self time is the
# part of an operation that no wrapped function covers.
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store for one process; ``phase`` splits setup from timed work."""

    def __init__(self, clock):
        self.clock = clock  # the probe's clock, which leaves out the probe's own time
        self.phases: dict[str, list] = {}
        self.phase_extras: dict[str, dict] = {}
        self._stack = [-1]
        self.missing: list[str] = []
        self.start_phase("setup")

    def start_phase(self, phase: str) -> None:
        """Begin a new span list; call only while no span is open."""
        self.spans = self.phases.setdefault(phase, [])
        self.extras = self.phase_extras.setdefault(phase, {})  # span -> [sum, calls]

    def record(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, extra_fn):
        def wrapper(*args, **kwargs):
            result = self.record(name, fn, *args, **kwargs)
            if extra_fn is not None:
                acc = self.extras.setdefault(name, [0.0, 0])
                acc[0] += extra_fn(result)
                acc[1] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Patch every listed public function that exists; absent ones are skipped."""
        for name, modname, fname, _, extra_fn in SPANS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, fname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, extra_fn)
            for modname2, mod in list(sys.modules.items()):
                if modname2 != "finheyt" and not modname2.startswith("finheyt."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self, phase: str, duration) -> dict:
        """Per-span self seconds and calls for one phase, plus the extras.

        ``duration(start, end)`` gives a span's seconds (the probe's ``scaled``).
        """
        spans = self.phases.get(phase, [])
        lengths = [duration(start, end) for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for (*_, parent), length in zip(spans, lengths):
            if parent >= 0:
                child[parent] += length
        out: dict[str, dict] = {}
        for (name, *_), length, covered in zip(spans, lengths, child):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += length - covered
            entry["calls"] += 1
        for name, (total, calls) in self.phase_extras.get(phase, {}).items():
            out[name]["extra"] = [total, calls]
        return out
