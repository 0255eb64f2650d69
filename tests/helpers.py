"""Small readers that only the tests use: a point's coordinate at a vertex
label, whether labels span a simplex of a complex, and a complex's Euler
characteristic."""

from __future__ import annotations

from typing import Iterable

from plcontrol.complexes import Point, SimplicialComplex


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
