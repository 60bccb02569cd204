"""Span tracer that times qmeasure's layers from outside the package.

`install()` replaces every public function of the traced modules with a
timing wrapper, in every qmeasure module that holds a reference to it (a
`from .x import y` copies the name, so patching only the defining module
would silently miss those calls). Spans record name, start, end and parent;
they stay in memory and are written once, by `Tracer.dump`, when the run
ends.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("oscillator", "weights", "collapse", "stroboscopic", "pde",
                  "gaussian_analytic", "harness", "cli")

# cli.main is the call the benchmark times as a whole; its children are the
# top-level spans. apply_explicit and apply_hamiltonian run once per
# Crank-Nicolson step (about 10^5 times in a lattice sweep), so spans there
# would cost more memory than they explain; crank_nicolson_evolve covers them.
SKIPPED = {"cli.main", "pde.apply_explicit", "pde.apply_hamiltonian"}

# Private helpers traced only for the scan-yield ratios: one span per scan
# request, whatever number of window reruns it takes.
PRIVATE = ("stroboscopic._seeded_scan", "pde._scan")


def _cn_kind(op):
    return "gate" if np.any(op.diagonal.imag != 0) else "free"


# name -> function(bound arguments) giving attributes recorded before the call
BEFORE = {
    "collapse.outcome_amplitudes": lambda a: {"outcomes": int(np.size(a["outcomes"]))},
    "oscillator.eigenfunction_matrix": lambda a: {"points": int(np.size(a["x"]))},
    "weights.weight_matrix": lambda a: {"key": repr((a["basis"], a["spec"]))},
    "pde.crank_nicolson_evolve": lambda a: {"kind": _cn_kind(a["op"]), "steps": int(a["steps"])},
}


# name -> function(result) giving attributes recorded after the call
AFTER = {"harness.emit": lambda paths: {"bytes": sum(p.stat().st_size for p in paths)}}


class Tracer:
    """In-memory span list; parent links follow the call stack."""

    def __init__(self):
        self.spans = []
        self.traced = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)
        signature = inspect.signature(fn)
        self.traced.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(signature.bind(*args, **kwargs).arguments) if before else None
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None}
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after:
                attrs = {**(attrs or {}), **after(result)}
            if attrs:
                span["attrs"] = attrs
            return result

        return traced

    def dump(self, path, wall_start, wall_end):
        doc = {"wall": {"start": wall_start, "end": wall_end}, "traced": self.traced,
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _targets():
    """(span name, function) of every function to trace."""
    for short in TRACED_MODULES:
        mod = sys.modules[f"qmeasure.{short}"]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIPPED):
                yield name, obj
    for name in PRIVATE:
        short, attr = name.split(".")
        yield name, getattr(sys.modules[f"qmeasure.{short}"], attr)


def install(tracer):
    """Wrap the traced functions everywhere qmeasure refers to them."""
    import qmeasure.cli  # noqa: F401  (loads every traced module)
    from qmeasure.collapse import OutcomeDistribution

    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in _targets()}
    for modname, mod in list(sys.modules.items()):
        if modname != "qmeasure" and not modname.startswith("qmeasure."):
            continue
        for attr, obj in list(vars(mod).items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, wrapper)
    # classmethod: every scan attempt, lattice or eigenbasis, ends here
    from_norms = OutcomeDistribution.from_norms.__func__
    OutcomeDistribution.from_norms = classmethod(
        tracer.wrap("collapse.OutcomeDistribution.from_norms", from_norms))


def layer_metrics(doc, untraced_wall, names):
    """The per-layer metrics `names` (BENCHMARK.json's, each "<layer>.<field>")
    from a span file, the problems found in it, and warnings.

    `s` sums a layer's outermost spans; `self_s` subtracts the time its
    direct child spans cover. The spans reconcile with the traced wall time
    when the top-level spans lie inside the `main` call and do not overlap,
    so that they plus `harness.unattributed_s` make the wall. A layer that
    no longer exists under its name reads 0 and is reported.
    """
    spans = doc["spans"]
    wall_start, wall_end = doc["wall"]["start"], doc["wall"]["end"]
    span_names = [s["name"] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if span_names[p] == s["name"]:
                return True
            p = spans[p]["parent"]
        return False

    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def group(name, kind=None):
        return [s for s in by_name.get(name, ())
                if kind is None or s["attrs"]["kind"] == kind]

    def total(group_spans):
        return sum(s["end"] - s["start"] for s in group_spans if not nested_in_same(s))

    def self_time(group_spans):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in group_spans)

    def attr_sum(group_spans, key):
        return sum(s["attrs"][key] for s in group_spans)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for key in names:
        layer, field = key.rsplit(".", 1)
        if layer.endswith((".gate", ".free")):
            layer, kind = layer.rsplit(".", 1)
            g = group(layer, kind)
        else:
            g = group(layer)
        if field == "calls":
            out[key] = len(g)
        elif field == "s":
            out[key] = total(g)
        elif field == "self_s":
            out[key] = self_time(g)
        elif field in ("outcomes", "points", "steps", "bytes"):
            out[key] = attr_sum(g, field)
        elif field == "us_per_step":
            out[key] = ratio(1e6 * total(g), attr_sum(g, "steps"))

    wm = group("weights.weight_matrix")
    out["weights.weight_matrix.reuse"] = ratio(len(wm), len({s["attrs"]["key"] for s in wm}))
    out["collapse.scan_yield"] = ratio(len(group("stroboscopic._seeded_scan")),
                                       len(group("collapse.outcome_distribution")))
    pde_attempts = [s for s in group("collapse.OutcomeDistribution.from_norms")
                    if s["parent"] is not None and span_names[s["parent"]] == "pde._scan"]
    out["pde.scan_yield"] = ratio(len(group("pde._scan")), len(pde_attempts))

    top = sorted((s for s in spans if s["parent"] is None), key=lambda s: s["start"])
    wall = wall_end - wall_start
    out["harness.unattributed_s"] = wall - sum(s["end"] - s["start"] for s in top)
    out["trace.wall_s"] = wall
    # without an untraced sample to compare with (the run is then not
    # correct anyway) the overhead reads 0
    out["trace.overhead_s"] = wall - untraced_wall if untraced_wall is not None else 0.0
    out["trace.spans"] = len(spans)
    problems = []
    if not all(wall_start <= s["start"] <= s["end"] <= wall_end for s in top):
        problems.append("a top-level span lies outside the traced main call")
    if not all(a["end"] <= b["start"] for a, b in zip(top, top[1:])):
        problems.append("top-level spans overlap")
    problems += [f"no rule computes the metric {k}" for k in names if k not in out]
    layers = {k.rsplit(".", 1)[0].removesuffix(".gate").removesuffix(".free") for k in names}
    warnings = [f"layer {layer} was not found to trace" for layer in sorted(layers)
                if "." in layer and layer not in doc["traced"]]
    return {k: out[k] for k in names if k in out}, problems, warnings
