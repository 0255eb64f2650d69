"""Reference chain enumerators for the differential tests of
``complexes.face_chains``: the recursive barycentric subdivision, flag
enumeration, pushed-down subdivision points and staircase paths that the one
iterative face-poset walk replaced."""

from plcontrol import Point, Simplex, SimplicialComplex, barycenter, combine_points, vertex_point
from plcontrol.cellulation import Flag
from plcontrol.complexes import _sd_label


def barycentric_subdivision(K: SimplicialComplex) -> tuple[SimplicialComplex, dict[str, Point]]:
    """Barycentric subdivision Sd K together with the vertex-to-point mapping.

    Vertices of Sd K are the barycenters of simplices of K; the simplices of
    Sd K are the chains in the face poset of K.
    """
    order = [_sd_label(s) for s in K.sorted_simplices()]
    chains: list[tuple[str, ...]] = []

    def extend(chain: list[Simplex]):
        chains.append(tuple(_sd_label(s) for s in chain))
        last = chain[-1]
        for t in K.sorted_simplices():
            if last < t:
                chain.append(t)
                extend(chain)
                chain.pop()

    for s in K.sorted_simplices():
        extend([s])
    sd = SimplicialComplex(chains, vertex_order=order)
    mapping = {_sd_label(s): barycenter(K, s) for s in K.sorted_simplices()}
    return sd, mapping


def enumerate_flags(K: SimplicialComplex) -> list[Flag]:
    """All flags, ordered by (base, chain) in the complex's vertex order."""
    simps = K.sorted_simplices()
    chains: list[tuple[Simplex, ...]] = []

    def extend(chain: list[Simplex]):
        chains.append(tuple(chain))
        for t in simps:
            if chain[-1] < t:
                chain.append(t)
                extend(chain)
                chain.pop()

    for s in simps:
        extend([s])
    flags = [
        Flag(base=b, chain=c)
        for c in chains
        for b in sorted(c[0].faces(), key=K.sort_key)
    ]
    flags.sort(key=lambda fl: (K.sort_key(fl.base), tuple(K.sort_key(s) for s in fl.chain)))
    return flags


def subdivision_points(K: SimplicialComplex, rounds: int = 1) -> list[Point]:
    """Vertices of the r-fold barycentric subdivision, as points of K."""
    points = {v: vertex_point(K, v) for v in K.vertex_order}
    current = K
    mappings: list[dict[str, Point]] = []
    for _ in range(rounds):
        current, mapping = barycentric_subdivision(current)
        mappings.append(mapping)
    # push each Sd^r vertex down through the mapping chain
    out: list[Point] = []
    for v in current.vertex_order:
        p = _push_down(v, mappings, K, points)
        out.append(p)
    return out


def _push_down(label: str, mappings: list[dict[str, Point]], K: SimplicialComplex, base: dict[str, Point]) -> Point:
    if not mappings:
        return base[label]
    p = mappings[-1][label]
    if len(mappings) == 1:
        return p
    rest = mappings[:-1]
    parts = []
    for v, c in zip(p.carrier.vertices, p.coords):
        parts.append((c, _push_down(v, rest, K, base)))
    return combine_points(K, parts)


def _monotone_paths(shape: tuple[int, ...]):
    """Vertex index tuples of the maximal staircase simplices of a grid."""
    top = tuple(n - 1 for n in shape)

    def rec(pos: tuple[int, ...]):
        if pos == top:
            yield (pos,)
            return
        for i in range(len(shape)):
            if pos[i] < top[i]:
                nxt = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
                for rest in rec(nxt):
                    yield (pos,) + rest

    yield from rec(tuple(0 for _ in shape))
