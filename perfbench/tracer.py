"""Per-layer tracing of permwit, installed from outside the program.

`Tracer.install()` replaces permwit's public callables with timing
wrappers, in the calling process only, and leaves the source untouched.
Each name is wrapped where it is looked up: the `permwit.kernels`
attributes, methods on `PermGroup`, `StabilizerChain` and
`WreathElement`, and every module-level binding of a wrapped function,
including `from ... import` copies such as `permwit.refute.quotient` or
`permwit.witness.find_isomorphism`.

Every wrapped call adds to an aggregate (calls, inclusive time, self
time) under its name, and its self time (duration minus the time its
wrapped children took) to its layer.  Kernel calls are leaves and are
only aggregated.  Calls of the coarse functions in SPANS are also kept
as spans (id, parent id, request, name, start, end) in memory, to be
written out when the pass ends.  Time spent in unwrapped code, such as
`permwit.perm`, counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("kernels", "group", "quotient", "census", "witness", "wreath", "refute")
KERNELS = ("compose", "inverse", "orbit", "close_elements", "conjugacy_orbit")

# (layer, module, class or None, attribute names)
TARGETS = (
    ("group", "permwit.group", "StabilizerChain",
     ("__init__", "contains", "sift", "random_element")),
    ("group", "permwit.group", "PermGroup",
     ("order", "order_exceeds", "contains", "orbits", "orbit_of", "is_transitive",
      "is_2_transitive", "element_tables", "random_element", "pointwise_stabilizer",
      "normal_closure", "conjugacy_classes", "all_normal_subgroups")),
    ("group", "permwit.group", None, ("is_normal", "group_from_elements")),
    ("quotient", "permwit.quotient", None, ("quotient", "find_isomorphism", "is_cyclic")),
    ("census", "permwit.census", None,
     ("census", "census_report", "verify_wielandt", "verify_burnside",
      "verify_contain", "verify_lemma_pq", "affine_group", "_symmetric_elements")),
    ("witness", "permwit.witness", None,
     ("construct_witness", "verify_witness", "verify_candidate")),
    ("wreath", "permwit.wreath", None, ("embed",)),
    ("wreath", "permwit.wreath", "WreathElement", ("as_permutation",)),
    ("refute", "permwit.refute", None, ("refute",)),
)

SPANS = frozenset((
    "group.PermGroup.normal_closure", "group.PermGroup.conjugacy_classes",
    "group.PermGroup.all_normal_subgroups", "group.group_from_elements",
    "quotient.quotient", "quotient.find_isomorphism",
    "census.census", "census.census_report", "census.verify_wielandt",
    "census.verify_burnside", "census.verify_contain", "census.verify_lemma_pq",
    "witness.construct_witness", "witness.verify_witness",
    "witness.verify_candidate", "wreath.embed", "refute.refute",
))

CENSUS_VERIFY = ("verify_wielandt", "verify_burnside", "verify_contain", "verify_lemma_pq")


class Tracer:
    """Aggregates, layer self times, counts and spans of one traced pass."""

    def __init__(self) -> None:
        self.agg: Dict[str, List[float]] = {}       # name -> [calls, total_s, self_s]
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        self.request = 0
        self._stack: List[list] = [[0.0, 0]]       # frames: [child_s, span id]
        self._next_id = 1
        self._lattice_depth = 0

    # -- wrappers ---------------------------------------------------------

    def _record(self, name: str) -> list:
        return self.agg.setdefault(name, [0, 0.0, 0.0])

    def leaf(self, name: str, fn: Callable) -> Callable:
        rec = self._record(name)
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                stack[-1][0] += dt
        return traced

    def call(self, name: str, layer: str, fn: Callable) -> Callable:
        rec = self._record(name)
        stack = self._stack
        layer_self = self.layer_self
        spans = self.spans if name in SPANS else None
        clock = perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                layer_self[layer] += own
                stack[-1][0] += dur
                if spans is not None:
                    spans.append((span_id, parent, self.request, name, start, end))
        return traced

    def _counting(self, fn: Callable, key: str, amount: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(result)
            return result
        return counted

    def _in_lattice(self, fn: Callable) -> Callable:
        counts = self.counts

        def lattice(*args, **kwargs):
            self._lattice_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._lattice_depth -= 1
            counts["lattice.subgroups"] += len(result)
            return result
        return lattice

    def _chain_build(self, fn: Callable) -> Callable:
        counts = self.counts

        def build(*args, **kwargs):
            if self._lattice_depth:
                counts["lattice.chain_builds"] += 1
            return fn(*args, **kwargs)
        return build

    def _decorate(self, name: str, fn: Callable) -> Callable:
        """Counting hooks for the per-layer metrics that are not plain timings."""
        if name == "kernels.close_elements":
            return self._counting(fn, "close_elements.aborted", lambda r: r is None)
        if name == "group.PermGroup.order_exceeds":
            return self._counting(fn, "chain_aborts", bool)
        if name == "group.PermGroup.all_normal_subgroups":
            return self._in_lattice(fn)
        if name == "group.StabilizerChain.__init__":
            return self._chain_build(fn)
        if name == "quotient.find_isomorphism":
            return self._counting(fn, "iso_found", lambda r: r is not None)
        if name == "census.census":
            return self._counting(fn, "census.entries", len)
        return fn

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import permwit.census  # noqa: F401  (load every module that binds a target)
        import permwit.kernels
        import permwit.refute  # noqa: F401
        import permwit.witness  # noqa: F401
        import permwit.wreath  # noqa: F401

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "permwit" or key.startswith("permwit.")]
        kernels = permwit.kernels
        for fname in KERNELS:
            name = f"kernels.{fname}"
            setattr(kernels, fname,
                    self.leaf(name, self._decorate(name, getattr(kernels, fname))))
        for layer, modname, clsname, attrs in TARGETS:
            module = sys.modules[modname]
            owner = getattr(module, clsname) if clsname else module
            for attr in attrs:
                name = f"{layer}.{clsname}.{attr}" if clsname else f"{layer}.{attr}"
                original = getattr(owner, attr)
                wrapped = self.call(name, layer, self._decorate(name, original))
                if clsname:
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    if m.__dict__.get(attr) is original:
                        setattr(m, attr, wrapped)

    # -- results ----------------------------------------------------------

    def _calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def _total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def metrics(self, counters: Dict[str, int]) -> Dict[str, float]:
        """Per-layer metrics of the traced pass; `counters` are the public
        work counters the pass's operations returned."""
        c = self.counts
        m: Dict[str, float] = {}
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = self._calls(f"kernels.{k}")
        m["kernels.close_elements.aborted"] = c["close_elements.aborted"]
        m["kernels.busy_s"] = sum(self._total(f"kernels.{k}") for k in KERNELS)

        chain = "group.StabilizerChain.__init__"
        m["group.chain_builds"] = self._calls(chain)
        m["group.chain_build_s"] = self._total(chain)
        m["group.chain_aborts"] = c["chain_aborts"]
        m["group.contains.calls"] = self._calls("group.StabilizerChain.contains")
        m["group.contains_s"] = self._total("group.StabilizerChain.contains")
        lattice = "group.PermGroup.all_normal_subgroups"
        m["group.lattice.calls"] = self._calls(lattice)
        m["group.lattice_s"] = self._total(lattice)
        m["group.lattice.subgroups"] = c["lattice.subgroups"]
        m["group.lattice.builds_per_subgroup"] = (
            c["lattice.chain_builds"] / c["lattice.subgroups"]
            if c["lattice.subgroups"] else 0.0)
        m["group.normal_closure.calls"] = self._calls("group.PermGroup.normal_closure")
        m["group.normal_closure_s"] = self._total("group.PermGroup.normal_closure")
        m["group.conjugacy_classes_s"] = self._total("group.PermGroup.conjugacy_classes")

        m["quotient.quotient.calls"] = self._calls("quotient.quotient")
        m["quotient.quotient_s"] = self._total("quotient.quotient")
        m["quotient.find_isomorphism.calls"] = self._calls("quotient.find_isomorphism")
        m["quotient.find_isomorphism_s"] = self._total("quotient.find_isomorphism")
        m["quotient.iso_found"] = c["iso_found"]

        m["census.enumerate_s"] = self._total("census.census")
        m["census.verify_s"] = sum(self._total(f"census.{f}") for f in CENSUS_VERIFY)
        m["census.entries"] = c["census.entries"]

        m["witness.construct_s"] = self._total("witness.construct_witness")
        m["witness.verify_s"] = self._total("witness.verify_witness")
        m["witness.verify_candidate.calls"] = self._calls("witness.verify_candidate")
        m["wreath.embed.calls"] = self._calls("wreath.embed")
        m["wreath.embed_s"] = self._total("wreath.embed")

        samples = counters.get("samples_tested", 0)
        small = counters.get("small_groups_tested", 0)
        m["refute.samples"] = samples
        m["refute.transitive"] = counters.get("transitive_found", 0)
        m["refute.skipped_large"] = counters.get("skipped_large", 0)
        m["refute.small_groups"] = small
        m["refute.pairs_tested"] = counters.get("pairs_tested", 0)
        m["refute.reach_ratio"] = small / samples if samples else 0.0

        for layer in LAYERS:
            m[f"{layer}.self_s"] = (m["kernels.busy_s"] if layer == "kernels"
                                    else self.layer_self.get(layer, 0.0))
        return m

    def dump(self) -> dict:
        return {
            "aggregates": {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans],
        }
