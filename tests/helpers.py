"""Small helpers that only the tests use: a point's coordinate at a vertex
label, whether labels span a simplex of a complex, a complex's Euler
characteristic, a map over new copies of its complexes and a script of
``scripts/`` loaded as a module."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Iterable

from plcontrol.complexes import Point, SimplicialComplex, closure_complex
from plcontrol.maps import SimplicialMap


def coord_of(p: Point, label: str) -> float:
    """p's coordinate at the vertex ``label``, 0 off its carrier."""
    try:
        return p.coords[p.carrier.vertices.index(label)]
    except ValueError:
        return 0.0


def contains_labels(K: SimplicialComplex, labels: Iterable[str]) -> bool:
    """Whether the labels are vertices of K that span a simplex of K."""
    labels = tuple(labels)
    if any(v not in K._index for v in labels):
        return False
    return K.simplex(labels) in K.simplices


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(K.simplices_of_dim(d)) for d in range(K.dimension + 1))


def fresh(f: SimplicialMap) -> SimplicialMap:
    """f over new copies of its complexes, which may be shared fixtures
    holding caches from other tests."""
    X, Y = (
        closure_complex([s.vertices for s in K.maximal_simplices()], vertex_order=K.vertex_order)
        for K in (f.source, f.target)
    )
    return SimplicialMap(X, Y, dict(f.vertex_map))


def load_script(name: str):
    """The script ``scripts/<name>.py`` as a module."""
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
