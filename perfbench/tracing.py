"""Traced-run instrumentation, installed from outside the package.

`install` replaces the public functions of each plcontrol layer with
wrappers that record one span per call (name, start, end, parent) and a few
counters read off arguments and results.  Spans are kept in flat arrays in
memory and written out once, at the end of the run.  Nothing in the package
is edited: the wrappers are bound into every module namespace (and class)
that holds the original, and `Patch.undo` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# metric group -> (module, attribute path) of every function it wraps
GROUPS: dict[str, list[tuple[str, str]]] = {
    "complexes.subdivision": [
        ("complexes", "barycentric_subdivision"),
        ("complexes", "subdivision_points"),
    ],
    "complexes.make_point": [("complexes", "make_point"), ("complexes", "canonical")],
    "complexes.build": [("complexes", "SimplicialComplex.__init__")],
    "metrics.distance": [("metrics", "distance")],
    "metrics.mesh_comesh": [("metrics", "mesh_comesh")],
    "maps.fiber": [("maps", "fiber_over_barycenter")],
    "maps.certificate": [("maps", "verify_product_decomposition")],
    "maps.evaluate": [("maps", "evaluate_map")],
    "maps.join_split": [("maps", "fiber_join"), ("maps", "fiber_split"), ("maps", "fiber_project")],
    "contract.homology": [("contract", "homology")],
    "contract.collapse": [("contract", "greedy_collapse")],
    "cellulation.build": [("cellulation", "build_cellulation")],
    "cellulation.cold": [("cellulation", "Cellulation.__init__")],
    "cellulation.flags": [("cellulation", "enumerate_flags")],
    "cellulation.invert": [("cellulation", "Cellulation.invert")],
    "evaluators.map_eval": [("evaluators", "PLEvaluator.__call__")],
    "evaluators.track": [("evaluators", "Homotopy.track")],
    "homotopies.build_family": [("homotopies", "build_family")],
    "homotopies.sample_points": [("homotopies", "sample_points")],
    "homotopies.measure_control": [("homotopies", "measure_control")],
    "homotopies.gamma": [
        ("homotopies", "FlagMap.gamma_chain"),
        ("homotopies", "FlagMap.eval_cell"),
        ("homotopies", "FlagMap.contract_in_fiber"),
    ],
    "cone.assemble": [("cone", "assemble_bounded_equivalence")],
    "cone.slice": [("cone", "slice_equivalence")],
    "verify.run": [("verify", "run_verify")],
}

# the callables Homotopy.track returns are wrapped under this group
TRACK_EVAL = "evaluators.track_eval"


class Tracer:
    """Spans in flat arrays: group id, start, end (perf_counter seconds) and
    the index of the enclosing span (-1 at top level)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer.counters, args, kwargs, out)
            return out

        return functools.wraps(fn)(wrapper)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def write(self, path: Path, extra: dict) -> None:
        """All spans and counters as one gzipped JSON document."""
        doc = {
            "names": self.names,
            "span_name": list(self.name),
            "span_start": list(self.start),
            "span_end": list(self.end),
            "span_parent": list(self.parent),
            "counters": dict(self.counters),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its child spans.  Spans
    come from one call stack, so children lie inside their parent and do
    not overlap."""
    out = [e - s for _, s, e, _ in spans]
    for _, s, e, p in spans:
        if p >= 0:
            out[p] -= e - s
    return out


def group_totals(spans: list[tuple[str, float, float, int]]) -> dict[str, tuple[int, float]]:
    """(calls, summed self time) per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, _, _, _), st in zip(spans, self_times(spans)):
        totals[name][0] += 1
        totals[name][1] += st
    return {k: (v[0], v[1]) for k, v in totals.items()}


# -- counters read off arguments and results ----------------------------------


def _count_distance(canonical, shared_carrier):
    """Counts the calls whose points share no simplex (the Steiner-graph
    path), using the unwrapped functions so that no span is recorded."""

    def after(c, args, kwargs, out):
        K, p, q = args[:3]
        if shared_carrier(K, canonical(K, p), canonical(K, q)) is None:
            c["metrics.distance.steiner"] += 1

    return after


def _count_homology(c, args, kwargs, out):
    c["contract.homology.simplices"] += len(args[0].simplices)


def _count_collapse(c, args, kwargs, out):
    c["contract.collapse.steps"] += len(out.steps)
    c["contract.collapse.complete"] += 1 if out.complete else 0


def _count_cells(c, args, kwargs, out):
    c["cellulation.cells"] += len(args[0].cells)


class Patch:
    """The installed wrappers; `undo` restores every replaced binding."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(tracer: Tracer, namespaces=()) -> Patch:
    """Wrap every function in GROUPS.  Module-level functions are rebound in
    every plcontrol module (and in the given extra namespaces) that imported
    them by name; methods are replaced on their class."""
    import plcontrol
    from plcontrol import complexes, metrics

    counting = {
        ("metrics", "distance"): _count_distance(complexes.canonical, metrics.shared_carrier),
        ("contract", "homology"): _count_homology,
        ("contract", "greedy_collapse"): _count_collapse,
        ("cellulation", "Cellulation.__init__"): _count_cells,
    }
    modules = [m for n, m in sys.modules.items() if n == "plcontrol" or n.startswith("plcontrol.")]
    modules += list(namespaces)
    patch = Patch()
    for group, targets in GROUPS.items():
        for modname, attr in targets:
            module = getattr(plcontrol, modname)
            after = counting.get((modname, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                wrapped = tracer.wrap(group, cls.__dict__[meth], after)
                if (modname, attr) == ("evaluators", "Homotopy.track"):
                    wrapped = _wrap_track_result(tracer, wrapped)
                patch.set(cls, meth, wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = tracer.wrap(group, fn, after)
            for ns in modules:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        patch.set(ns, name, wrapped)
    return patch


def _wrap_track_result(tracer: Tracer, track):
    """Homotopy.track returns a callable t -> point; wrap it as track_eval."""

    @functools.wraps(track)
    def wrapper(self, p):
        return tracer.wrap(TRACK_EVAL, track(self, p))

    return wrapper


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced batch."""
    totals = group_totals(tracer.spans())
    c = tracer.counters
    out: dict[str, float] = {}

    def calls(g):
        return totals.get(g, (0, 0.0))[0]

    def self_s(g):
        return totals.get(g, (0, 0.0))[1]

    for g in (
        "complexes.subdivision",
        "complexes.make_point",
        "complexes.build",
        "metrics.distance",
        "maps.fiber",
        "maps.certificate",
        "maps.evaluate",
        "maps.join_split",
        "contract.homology",
        "contract.collapse",
        "cellulation.invert",
        "evaluators.map_eval",
        "homotopies.sample_points",
        "homotopies.measure_control",
        "homotopies.gamma",
        "cone.slice",
        TRACK_EVAL,
    ):
        out[f"{g}.calls"] = calls(g)
        out[f"{g}.self_s"] = self_s(g)
    for g in (
        "metrics.mesh_comesh",
        "cellulation.flags",
        "homotopies.build_family",
        "cone.assemble",
        "verify.run",
    ):
        out[f"{g}.self_s"] = self_s(g)
    out["evaluators.track.calls"] = calls("evaluators.track")
    n_dist = calls("metrics.distance")
    out["metrics.distance.steiner_share"] = c["metrics.distance.steiner"] / n_dist if n_dist else 0.0
    out["contract.homology.simplices"] = c["contract.homology.simplices"]
    n_col = calls("contract.collapse")
    out["contract.collapse.steps"] = c["contract.collapse.steps"]
    out["contract.collapse.complete_ratio"] = c["contract.collapse.complete"] / n_col if n_col else 0.0
    n_build, n_cold = calls("cellulation.build"), calls("cellulation.cold")
    out["cellulation.build.calls"] = n_build
    out["cellulation.build.cold"] = n_cold
    out["cellulation.build.hit_ratio"] = 1.0 - n_cold / n_build if n_build else 0.0
    out["cellulation.build.self_s"] = self_s("cellulation.build") + self_s("cellulation.cold")
    out["cellulation.cells"] = c["cellulation.cells"]
    return out
