"""Spans around the public functions of sbspec's layer modules, from outside.

The tracer rebinds every public function of each layer module at every
module binding of it in the ``sbspec`` package.  ``suite`` and
``topology`` bind names through ``from .ideals import ...``, so patching
``sbspec.ideals`` alone would miss their calls.  Generator functions are
left alone: their work runs in the consumer, which is where it is timed.

Each call records a span (function, start, end, parent, outermost) in
memory while the tracer is active; the spans are aggregated, and
optionally written out, after the measured window.

Metrics:
  <layer>.self_s     sum over the layer's spans of duration minus the
                     time covered by their child spans.  The self times of
                     all layers plus ``trace.glue_s`` (benchmark code
                     between spans) add up to ``trace.wall_s``.
  <group>_s          inclusive time of the outermost calls in a group of
                     functions (a call nested in another call of the same
                     group is not counted twice).
  <group>_calls      number of those outermost calls.
  counts             taken from the results the functions return, and from
                     ``cache_info()`` of the library's lru caches.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import sys
import time

LAYERS = (
    "groups",
    "enumeration",
    "braces",
    "ideals",
    "spectra",
    "topology",
    "morphisms",
    "suite",
    "catalog",
    "serialize",
)

# group -> functions whose outermost calls it times and counts
GROUPS = {
    "braces.canonicalize": ("braces.canonicalize",),
    "braces.validate": ("braces.validate",),
    "ideals.lattice": ("ideals.ideal_lattice",),
    "ideals.is_ideal": ("ideals.is_ideal", "ideals.ideal_check"),
    "ideals.add_closure": ("ideals.add_closure",),
    "ideals.weight": ("ideals.ideal_weight",),
    "ideals.generated": ("ideals.generated_ideal",),
    "spectra.spectrum": ("spectra.spectrum",),
    "spectra.is_prime": ("spectra.is_prime",),
    "topology.spec_topology": ("topology.spec_topology",),
    "topology.closed_axioms": ("topology.closed_axioms_report",),
    "topology.galois": ("topology.galois_report",),
    "topology.reports": (
        "topology.separation_report",
        "topology.irreducibility_report",
        "topology.noetherian_report",
        "topology.spectral_report",
        "topology.lattice_topology_report",
    ),
    "morphisms.quotient": ("morphisms.quotient",),
    "suite.run": ("suite.run_records", "suite.run_brace_suite"),
    "catalog.build_record": ("catalog.build_record",),
    "catalog.write": ("catalog.write_catalog",),
    "catalog.read": ("catalog.read_catalog",),
}


def _count_suite(counts, rows):
    for r in rows:
        counts["suite.rows"] += 1
        counts[f"suite.{r.verdict}_rows"] += 1


def _count_lattice(counts, lat):
    counts["ideals.lattice_builds"] += 1
    counts["ideals.members"] += len(lat.members)


# function -> (hook, when): "miss" runs the hook only on an lru cache miss,
# "outer" only on an outermost call of the function's group.  Hooks add to a
# Counter, so they accumulate over calls.
HOOKS = {
    "groups.all_group_tables": (lambda c, r: c.update({"groups.tables": len(r)}), "miss"),
    "enumeration.enumerate_braces": (
        lambda c, r: c.update({"enumeration.classes": len(r)}),
        "miss",
    ),
    "ideals.ideal_lattice": (_count_lattice, "miss"),
    "spectra.spectrum": (
        lambda c, r: c.update({f"spectra.primes.{r.kind}": len(r.primes)}),
        "miss",
    ),
    "topology.lattice_spectrum": (
        lambda c, r: c.update({"spectra.primes.lattice": len(r.primes)}),
        "miss",
    ),
    "topology.galois_report": (
        lambda c, r: c.update({"topology.galois_pairs": r.pairs_checked}),
        "outer",
    ),
    "morphisms.quotient_projections": (
        lambda c, r: c.update({"morphisms.homs": len(r)}),
        "outer",
    ),
    "morphisms.endomorphisms": (lambda c, r: c.update({"morphisms.homs": len(r)}), "outer"),
    "catalog.build_record": (lambda c, r: c.update({"catalog.records": 1}), "outer"),
    "suite.run_records": (_count_suite, "outer"),
    "suite.run_brace_suite": (_count_suite, "outer"),
}


def layer_functions():
    """(qualified name, function) for every public function of every layer."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"sbspec.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            found.append((f"{layer}.{name}", obj))
    return found


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.counts: collections.Counter = collections.Counter()
        self.group_of_fid: list[int] = []
        self.group_names = list(GROUPS)
        self.depth = [0] * len(self.group_names)
        self.t_start = self.t_stop = 0
        self.lattice_cache = None

    def install(self) -> None:
        """Rebind every layer function at every module binding of it."""
        member_group = {f: i for i, g in enumerate(self.group_names) for f in GROUPS[g]}
        wrappers = {}
        for qualname, fn in layer_functions():
            fid = len(self.names)
            self.names.append(qualname)
            self.group_of_fid.append(member_group.get(qualname, -1))
            wrappers[id(fn)] = self._wrap(fid, fn, HOOKS.get(qualname))
            if qualname == "ideals.ideal_lattice":
                self.lattice_cache = fn.cache_info
        for modname, mod in list(sys.modules.items()):
            if modname != "sbspec" and not modname.startswith("sbspec."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap(self, fid, fn, hook):
        spans, stack, depth, counts = self.spans, self.stack, self.depth, self.counts
        group = self.group_of_fid[fid]
        clock = time.perf_counter_ns
        on_miss = hook is not None and hook[1] == "miss"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = group < 0 or depth[group] == 0
            if group >= 0:
                depth[group] += 1
            misses = fn.cache_info().misses if on_miss else 0
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if group >= 0:
                    depth[group] -= 1
                spans[idx] = (fid, t0, t1, parent, outer)
            if hook is not None:
                if on_miss:
                    if fn.cache_info().misses > misses:
                        hook[0](counts, result)
                elif outer:
                    hook[0](counts, result)
            return result

        return traced

    def start(self) -> None:
        self.t_start = time.perf_counter_ns()
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.t_stop = time.perf_counter_ns()
        info = self.lattice_cache()
        self.lattice_hits, self.lattice_misses = info.hits, info.misses

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, group times and counts over the window."""
        child_ns = [0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = collections.Counter()
        group_ns = collections.Counter()
        group_calls = collections.Counter()
        top_ns = 0
        for i, (fid, t0, t1, parent, outer) in enumerate(self.spans):
            self_ns[self.names[fid].split(".")[0]] += t1 - t0 - child_ns[i]
            if parent < 0:
                top_ns += t1 - t0
            g = self.group_of_fid[fid]
            if g >= 0 and outer:
                group_ns[g] += t1 - t0
                group_calls[g] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for g, name in enumerate(self.group_names):
            out[f"{name}_s"] = group_ns[g] / 1e9
            out[f"{name}_calls"] = group_calls[g]
        for key, value in self.counts.items():
            out[key] = value
        lookups = self.lattice_hits + self.lattice_misses
        out["ideals.lattice_cache_hit_ratio"] = self.lattice_hits / lookups if lookups else 0.0
        evidence = self.counts["suite.pass_rows"] + self.counts["suite.vacuous_rows"]
        out["suite.evidence_ratio"] = (
            self.counts["suite.pass_rows"] / evidence if evidence else 0.0
        )
        wall_ns = self.t_stop - self.t_start
        out["trace.wall_s"] = wall_ns / 1e9
        out["trace.glue_s"] = (wall_ns - top_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: name, start_ns, end_ns, parent index."""
        base = self.t_start
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            fh.writelines(
                f"{names[fid]}\t{t0 - base}\t{t1 - base}\t{parent}\n"
                for fid, t0, t1, parent, _ in self.spans
            )
