"""Layer tracing from outside the package.

``Tracer.install()`` replaces the public functions and methods of every
``nambu3`` layer with timing wrappers, and rebinds every reference the
package holds to them (module globals and class attributes, such as
re-exports and aliases like ``__radd__``), so calls between layers go
through the wrappers too.
Nothing under ``src/`` changes.

Each wrapper counts calls and measures inclusive time and self time (its
duration minus the time of wrapped calls it made).  A layer's self time is
the sum over its functions.  Coarse calls (sweeps, CLI commands, parsing,
formatting) also record a span: id, name, start, end, parent span id and the
request they belong to.  Spans stay in memory and are written out at the
end; the per-call kernels keep only counters, because they run millions of
times.

Work done inside the ``fi`` sweep's pool workers is not collected: those
processes inherit the wrappers but their counters die with them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

LAYERS = ("scalar", "linear", "algebra", "derivations", "repmod", "reports",
          "parsing", "cli")

# layer -> {owner: [names]}; owner "" is the module itself, else a class.
WRAPPED = {
    "scalar": {"": ["exact_quotient", "divides"],
               "Scalar": ["__init__", "coerce", "__add__", "__sub__",
                          "__rsub__", "__neg__", "__mul__", "__pow__",
                          "substitute", "terms", "__str__"]},
    "linear": {"LinComb": ["__init__", "term", "zero", "coeff", "support",
                           "items", "_merged", "__neg__", "__mul__",
                           "__eq__", "__str__"]},
    "algebra": {"": ["L", "M", "basis_elem", "assoc_mul", "delta", "omega",
                     "bracket_keys", "bracket", "bracket_det",
                     "check_fundamental", "_resolve_parallelism"]},
    "derivations": {"": ["ad", "ad_apply", "pqxz_to_deriv", "deriv_to_pqxz",
                         "pair_to_pqxz", "pqxz_key_apply", "pqxz_apply",
                         "pqxz_elem_apply", "pqxz_key_bracket",
                         "pqxz_bracket", "deriv_equal", "check_pqxz_table"]},
    "repmod": {"": ["weight_key", "weight_action", "shift_action",
                    "zero_twist_action", "tri_apply", "tri_apply_elem",
                    "lie_apply", "lie_elem_apply", "default_probes",
                    "check_tri_axiom1", "check_tri_axiom2", "weight_report",
                    "orbit_probe", "check_lie_module", "verify_module",
                    "_within_parameter_gate", "induce_apply", "check_induced",
                    "pullback_candidate", "counterexample_phi"]},
    "reports": {"DefectEntry": ["__init__", "record", "line"],
                "DefectReport": ["__init__", "summary", "text_lines",
                                 "machine_lines", "merged_with"]},
    "parsing": {"": ["parse_scalar", "parse_elem", "parse_deriv",
                     "parse_weight_key"]},
    "cli": {"": ["main", "build_parser", "cmd_bracket", "cmd_check",
                 "cmd_decompose", "cmd_orbit", "cmd_weights"]},
}

# Per-call kernels: counters only, no span.  The scalar and linear layers
# never record spans.
NO_SPAN_LAYERS = {"scalar", "linear"}
NO_SPAN = {"L", "M", "bracket_keys", "pqxz_key_apply", "pqxz_key_bracket",
           "ad", "pair_to_pqxz", "weight_key", "basis_elem",
           "default_probes", "DefectEntry.__init__",
           "DefectEntry.record", "DefectEntry.line", "DefectReport.__init__",
           "lie_apply", "tri_apply"}

# Sweeps whose returned report's case count is recorded.
SWEEPS = {"check_fundamental", "check_pqxz_table", "check_tri_axiom1",
          "check_tri_axiom2", "check_lie_module", "check_induced"}

# lru caches read through cache_info(), as (layer module, attribute).
CACHES = (("repmod", "_tri_key_terms"), ("repmod", "_lie_key_terms"),
          ("repmod", "_alpha"), ("repmod", "_module_gate"),
          ("derivations", "pair_to_pqxz"))

SPAN_LIMIT = 200_000


class Tracer:
    """Counters, timings and spans for one process."""

    def __init__(self):
        self.stack = []                # child time of each open wrapped call
        self.span_ids = [None]         # open span ids, innermost last
        self.request = None
        self.stats = {}                # name -> [layer, calls, incl, self]
        self.spans = []
        self.dropped = 0
        self.cases = {}
        self.workers = 0
        self.gate_depth = 0
        self.gate_divides = 0
        self.divides_seen = set()
        self.fraction_new = 0
        self.lines = {"machine_lines": 0, "text_lines": 0}
        self.next_id = 0
        self._caches = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"nambu3.{layer}")
                   for layer in LAYERS}
        for layer, attr in CACHES:
            self._caches[attr] = getattr(modules[layer], attr)
        swap = {}
        for layer, owners in WRAPPED.items():
            mod = modules[layer]
            for owner_name, names in owners.items():
                owner = mod if not owner_name else getattr(mod, owner_name)
                for name in names:
                    raw = owner.__dict__[name]
                    label = f"{owner_name}.{name}" if owner_name else name
                    if isinstance(raw, classmethod):
                        wrapper = self._wrap(raw.__func__, label, layer)
                        swap[id(raw.__func__)] = wrapper
                        setattr(owner, name, classmethod(wrapper))
                    else:
                        wrapper = self._wrap(raw, label, layer)
                        swap[id(raw)] = wrapper
                        setattr(owner, name, wrapper)
        self._rebind(swap)
        self._count_fractions()

    def _rebind(self, swap: dict) -> None:
        # Every other reference the package holds to a wrapped original:
        # re-exports and aliases such as __radd__.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("nambu3"):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__.startswith("nambu3")]
            for owner in owners:
                for name, val in list(vars(owner).items()):
                    if id(val) in swap:
                        setattr(owner, name, swap[id(val)])

    def _count_fractions(self) -> None:
        orig = Fraction.__new__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.fraction_new += 1
            return orig(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        if name == "divides":
            tracer = self

            def wrapper(d, a):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(d, a)
                finally:
                    dt = clock() - t0
                    own = dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                    stat[1] += 1
                    stat[2] += dt
                    stat[3] += own
                    tracer.divides_seen.add((d, a))
                    if tracer.gate_depth:
                        tracer.gate_divides += 1
        elif name in NO_SPAN or layer in NO_SPAN_LAYERS:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    own = dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                    stat[1] += 1
                    stat[2] += dt
                    stat[3] += own
        else:
            wrapper = self._span_wrapper(fn, name, stat)
        return functools.update_wrapper(wrapper, fn)

    def _span_wrapper(self, fn, name: str, stat: list):
        stack = self.stack
        span_ids = self.span_ids
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        is_gate = name == "_within_parameter_gate"
        is_sweep = name in SWEEPS
        is_workers = name == "_resolve_parallelism"
        lines_key = name.split(".")[-1] if name.startswith("DefectReport.") \
            else None

        def wrapper(*args, **kwargs):
            tracer.next_id += 1
            sid = tracer.next_id
            parent = span_ids[-1]
            span_ids.append(sid)
            tracer.gate_depth += is_gate
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stat[1] += 1
                stat[2] += dt
                stat[3] += own
                span_ids.pop()
                tracer.gate_depth -= is_gate
                if len(spans) < SPAN_LIMIT:
                    spans.append((sid, name, t0, t1, parent, tracer.request))
                else:
                    tracer.dropped += 1
                if result is not None:
                    if is_sweep:
                        tracer.cases[name] = tracer.cases.get(name, 0) \
                            + result.cases
                    elif is_workers:
                        tracer.workers = max(tracer.workers, result)
                    elif lines_key in tracer.lines:
                        tracer.lines[lines_key] += len(result)
        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data totals for one process, merged by ``merge``."""
        caches = {}
        for attr, cached in self._caches.items():
            info = cached.cache_info()
            caches[attr] = {"hits": info.hits, "misses": info.misses,
                            "size": info.currsize}
        return {"functions": {k: v for k, v in self.stats.items() if v[1]},
                "cases": dict(self.cases),
                "workers": self.workers,
                "gate_divides": self.gate_divides,
                "divides_distinct": len(self.divides_seen),
                "fraction_new": self.fraction_new,
                "lines": dict(self.lines),
                "caches": caches,
                "spans": len(self.spans),
                "spans_dropped": self.dropped}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "layer": self.stats[name][0],
                                     "start": t0, "end": t1,
                                     "parent": parent,
                                     "request": request}) + "\n")


def merge(summaries) -> dict:
    """Sum the per-process summaries of one traced pass."""
    out = {"functions": {}, "cases": {}, "workers": 0, "gate_divides": 0,
           "divides_distinct": 0, "fraction_new": 0,
           "lines": {"machine_lines": 0, "text_lines": 0}, "caches": {},
           "spans": 0, "spans_dropped": 0}
    for s in summaries:
        for name, (layer, calls, incl, own) in s["functions"].items():
            acc = out["functions"].setdefault(name, [layer, 0, 0.0, 0.0])
            acc[1] += calls
            acc[2] += incl
            acc[3] += own
        for name, n in s["cases"].items():
            out["cases"][name] = out["cases"].get(name, 0) + n
        out["workers"] = max(out["workers"], s["workers"])
        for key in ("gate_divides", "divides_distinct", "fraction_new",
                    "spans", "spans_dropped"):
            out[key] += s[key]
        for key, n in s["lines"].items():
            out["lines"][key] += n
        for attr, info in s["caches"].items():
            acc = out["caches"].setdefault(attr,
                                           {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["size"] = max(acc["size"], info["size"])
    return out
