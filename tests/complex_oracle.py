"""The construction of a complex as it was before ``SimplicialComplex.__init__``
enumerated the faces as sorted index tuples in one pass: every generator,
faces or not of another, adds all its faces as label tuples, each face is
built through ``Simplex``'s checks, and one sort by ``sort_key`` orders
them.  Kept as the oracle of the one-pass construction."""

import itertools
from types import SimpleNamespace

from plcontrol import MalformedInputError, Simplex


def construct(generators, vertex_order=None):
    """The vertex order, ``_sorted``, ``_by_labels`` and ``_by_dim`` that
    ``SimplicialComplex(generators, vertex_order)`` builds, or the error it
    raises."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise MalformedInputError("a complex needs at least one generator simplex")
    order = []
    seen = set()
    if vertex_order is not None:
        for v in vertex_order:
            if v in seen:
                raise MalformedInputError(f"duplicate vertex label {v!r}")
            seen.add(v)
            order.append(v)
    for g in gens:
        if len(set(g)) != len(g):
            raise MalformedInputError(f"duplicate vertex inside one simplex: {g}")
        for v in g:
            if v not in seen:
                seen.add(v)
                order.append(v)
    index = {v: i for i, v in enumerate(order)}

    faces = set()
    for g in gens:
        top = tuple(sorted(g, key=index.__getitem__))
        if not top:
            raise MalformedInputError("empty simplex")
        for r in range(1, len(top) + 1):
            faces.update(itertools.combinations(top, r))
    by_labels = {frozenset(t): Simplex(t) for t in faces}
    simplices = frozenset(by_labels.values())
    ordered = tuple(sorted(simplices, key=lambda s: (s.dim, tuple(index[v] for v in s.vertices))))
    by_dim = {d: tuple(group) for d, group in itertools.groupby(ordered, lambda s: s.dim)}
    if len(by_dim[0]) < len(order):
        stray = next(v for v in order if frozenset((v,)) not in by_labels)
        raise MalformedInputError(f"vertex label {stray!r} lies in no simplex")
    return SimpleNamespace(vertex_order=tuple(order), _sorted=ordered, _by_labels=by_labels, _by_dim=by_dim)
