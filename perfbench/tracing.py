"""Spans and per-layer counters, recorded in the benchmark around its calls
into ternfield's public functions.

Layers are named after the modules in ``src/ternfield``.  A span's self
time is its duration minus the time covered by spans it caused; a layer's
``self_s`` is the sum of its spans' self times.  ``NullTracer`` is what the
untraced runs use, so end-to-end timings carry no tracing cost.
"""

import contextlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

SCAN_ASSOC = "ternary_kernel.scan.assoc"
SCAN_DISTRIB = "ternary_kernel.scan.distrib"
INVARIANTS = "ternary_kernel.invariants"
CONSTRUCT = "ternary_kernel.construct"
POLY_CONSTRUCT = "poly_fields.construct"
CLOSURE = "poly_fields.closure"
AUTOMORPHISMS = "automorphisms"
ENV_BUILD = "pair_envelope.build"
ENV_LOCAL = "pair_envelope.local"
STRUCTURES = "structures"
DYADIC = "dyadic"
CLI = "cli"
CRITERIA = tuple(f"suite.criterion_{k}" for k in range(1, 12))

LAYERS = (SCAN_ASSOC, SCAN_DISTRIB, INVARIANTS, CONSTRUCT, POLY_CONSTRUCT,
          CLOSURE, AUTOMORPHISMS, ENV_BUILD, ENV_LOCAL, STRUCTURES, DYADIC,
          CLI) + CRITERIA

# `paper-suite` budgets (seconds) that `_suite._BUDGETS` enforces; the
# traced suite run reports budget minus measured time for each.
BUDGETED = (1, 5, 11)


def _cells(obj):
    """Table entries a construction produced (nu, mu, ternary_mu, add, mul)."""
    obj = getattr(obj, "field", obj)      # ProductFieldResult and friends
    obj = getattr(obj, "carrier", obj)    # FiniteThreeField
    total = 0
    for name in ("nu", "mu", "ternary_mu", "add", "mul"):
        table = getattr(obj, name, None)
        if isinstance(table, np.ndarray):
            total += table.size
    return {"cells": total}


def _quintuples(result, args):
    return {"quintuples": args[0].n ** 5}


def _reached(result, args):
    if isinstance(result, tuple):         # generated_subalgebra, not prime_subfield
        return {"reached": len(result[0])}
    return {}


def _automorphisms(result, args):
    if hasattr(result, "order"):          # automorphism_group, not the fingerprint
        return {"order": result.order, "tried": args[0].n}
    return {}


def _ideals(result, args):
    return {"ideals": len(args[0].all_ideals())}   # cached by verify_local


def _exit_code(result, args):
    return {f"exit_{result}": 1}


COUNTERS = {
    SCAN_ASSOC: _quintuples,
    SCAN_DISTRIB: _quintuples,
    CONSTRUCT: lambda result, args: _cells(result),
    POLY_CONSTRUCT: lambda result, args: _cells(result),
    ENV_BUILD: lambda result, args: _cells(result),
    CLOSURE: _reached,
    AUTOMORPHISMS: _automorphisms,
    ENV_LOCAL: _ideals,
    CLI: _exit_code,
}


class NullTracer:
    """Calls straight through; used for every untraced measurement."""

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.counts = defaultdict(int)


class Tracer:
    """Records one span per call: (id, parent id, job, layer, start, end)."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(LayerStats)
        self.job = None
        self._stack = []       # [span id, time covered by child spans]
        self._next_id = 0

    def call(self, layer, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        stats = self.stats[layer]
        start = time.perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            stats.calls += 1
            stats.self_s += duration - frame[1]
            stats.total_s += duration
            stats.errors += raised
            self.spans.append((span_id, parent, self.job, layer, start, end))
        counter = COUNTERS.get(layer)
        if counter is not None:
            for key, value in counter(result, args).items():
                stats.counts[key] += value
        return result


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span_id, parent, job, layer, start, end in spans:
            out.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                  "layer": layer, "start": start,
                                  "end": end}) + "\n")


def _wrapped(tracer, layer, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, *args, **kwargs)
    return traced


# Names that `cli` and `_suite` import from the other modules, by layer.
# The suite workload reaches the library only through these bindings, so
# the traced suite run rebinds them for the duration of a pass.
_BINDINGS = {
    SCAN_ASSOC: ("check_ternary_group",),
    SCAN_DISTRIB: ("check_distributivity",),
    INVARIANTS: ("detect_derived_structure",),
    CONSTRUCT: ("odd_residue_field",),
    POLY_CONSTRUCT: ("build_f0", "build_quotient_field", "product_field"),
    CLOSURE: ("prime_subfield",),
    AUTOMORPHISMS: ("automorphism_group", "fingerprint_group"),
    ENV_BUILD: ("build_envelope",),
    ENV_LOCAL: ("verify_local",),
    STRUCTURES: ("cyclic_group", "free_resolution", "free_space",
                 "group_algebra", "quaternion_field", "quaternion_inverse_check",
                 "toeplitz_field", "triangular_field", "vector_power_space"),
    DYADIC: ("odd_rational", "reduce_mod", "val2", "norm2_str"),
}


@contextlib.contextmanager
def traced_bindings(tracer, modules, suite_module):
    """Rebind the library names used by `modules`, and the criterion
    functions of `suite_module`, to traced wrappers; restore on exit."""
    saved = []
    for module in modules:
        for layer, names in _BINDINGS.items():
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, _wrapped(tracer, layer, fn))
    criteria = suite_module._CRITERIA
    suite_module._CRITERIA = [
        (number, title, _wrapped(tracer, f"suite.criterion_{number}", fn))
        for number, title, fn in criteria]
    try:
        yield
    finally:
        suite_module._CRITERIA = criteria
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(passes, setup, budgets, overhead_s):
    """The per-layer metrics of a traced run.

    passes: (stats, slowdown) per traced pass; setup: the same for the
    set-up.  Counts come from the last pass (they repeat exactly); times are
    divided by the pass's slowdown and the median over passes is reported.
    Budget slack is left in measured seconds, as the program measures it.
    """
    def median_of(layer, attr, scaled=True):
        return statistics.median(
            getattr(stats[layer], attr) / (slow if scaled else 1.0)
            if layer in stats else 0.0 for stats, slow in passes)

    last = passes[-1][0]
    counts = lambda layer: last[layer].counts if layer in last else {}
    out = {}
    for layer in LAYERS:
        st = last[layer] if layer in last else LayerStats()
        out[f"{layer}.calls"] = metric(st.calls, "count")
        out[f"{layer}.self_s"] = metric(median_of(layer, "self_s"), "s")
        out[f"{layer}.errors"] = metric(st.errors, "count")
    for layer in (SCAN_ASSOC, SCAN_DISTRIB):
        quintuples = counts(layer).get("quintuples", 0)
        self_s = median_of(layer, "self_s")
        out[f"{layer}.quintuples"] = metric(quintuples, "count")
        out[f"{layer}.ns_per_quintuple"] = metric(
            1e9 * self_s / quintuples if quintuples else 0.0, "ns")
    for layer in (CONSTRUCT, POLY_CONSTRUCT, ENV_BUILD):
        out[f"{layer}.cells"] = metric(counts(layer).get("cells", 0), "count")
    setup_stats, setup_slow = setup
    for layer in (CONSTRUCT, POLY_CONSTRUCT):
        setup_s = setup_stats[layer].self_s / setup_slow if layer in setup_stats else 0.0
        out[f"{layer}.setup_s"] = metric(setup_s, "s")
    out[f"{CLOSURE}.reached"] = metric(counts(CLOSURE).get("reached", 0), "count")
    aut = counts(AUTOMORPHISMS)
    out[f"{AUTOMORPHISMS}.yield"] = metric(
        aut["order"] / aut["tried"] if aut.get("tried") else 0.0, "ratio")
    out[f"{ENV_LOCAL}.ideals"] = metric(counts(ENV_LOCAL).get("ideals", 0), "count")
    for code in (0, 1, 2):
        out[f"{CLI}.exit_{code}"] = metric(counts(CLI).get(f"exit_{code}", 0), "count")
    for number in BUDGETED:
        layer = f"suite.criterion_{number}"
        slack = (budgets[number] - median_of(layer, "total_s", scaled=False)
                 if layer in last else 0.0)
        out[f"{layer}.budget_slack_s"] = metric(slack, "s")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out
