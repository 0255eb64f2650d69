"""The fiber construction as it was before a map grouped its source
simplices by image: ``fiber_over_barycenter`` scans every source simplex for
every target simplex (one ``image_simplex`` call per pair) and caches
nothing, and ``surjectivity_check`` computes the image of every source
simplex again; ``embedding`` is the fiber's embedding as the construction
built it eagerly, before the fiber built it on first read.  Kept as the
oracle of the grouped construction."""

import itertools

from plcontrol import NotFoundError, closure_complex, make_point
from plcontrol.maps import FiberComplex, ProductCell, _monotone_paths, _tuple_label


def fiber_over_barycenter(f, sigma):
    if sigma not in f.target.simplices:
        raise NotFoundError(f"simplex {sigma} not in target")
    cells = []
    for tau in f.source.sorted_simplices():
        if f.image_simplex(tau) != sigma:
            continue
        factors = tuple(
            tuple(v for v in tau.vertices if f.vertex_map[v] == w) for w in sigma.vertices
        )
        cells.append(ProductCell(tau=tau, factors=factors))
    if not cells:
        return FiberComplex(source=f.source, sigma=sigma, cells=[], triangulation=None)

    src_idx = f.source.vertex_index
    all_tuples = set()
    generators = []
    for cell in cells:
        shape = tuple(len(fac) for fac in cell.factors)
        for path in _monotone_paths(shape):
            labels = tuple(
                _tuple_label(tuple(cell.factors[i][idx[i]] for i in range(len(shape))))
                for idx in path
            )
            generators.append(labels)
        for idx in itertools.product(*(range(n) for n in shape)):
            all_tuples.add(tuple(cell.factors[i][idx[i]] for i in range(len(shape))))
    order = sorted(all_tuples, key=lambda tup: tuple(src_idx(v) for v in tup))
    tri = closure_complex(generators, vertex_order=[_tuple_label(t) for t in order])
    return FiberComplex(source=f.source, sigma=sigma, cells=cells, triangulation=tri)


def surjectivity_check(f):
    hit = {f.image_simplex(s) for s in f.source.simplices}
    return [s for s in f.target.sorted_simplices() if s not in hit]


def embedding(f, sigma):
    fib = fiber_over_barycenter(f, sigma)
    if fib.triangulation is None:
        return {}
    tuples = {t for cell in fib.cells for t in itertools.product(*cell.factors)}
    order = sorted(tuples, key=lambda tup: tuple(f.source.vertex_index(v) for v in tup))
    m1 = len(sigma.vertices)
    return {_tuple_label(t): make_point(f.source, {v: 1.0 / m1 for v in t}) for t in order}
