"""Reference kernels for the differential tests of ``plcontrol.contract``:
the quadratic-scan greedy collapse and the dense boundary-matrix homology
that the heap collapse and the sparse unit-pivot elimination replaced."""

from plcontrol import Simplex, SimplicialComplex
from plcontrol.contract import CollapseSequence, HomologyProfile, smith_diagonal


def boundary_matrix(K: SimplicialComplex, d: int) -> list[list[int]]:
    """Matrix of the boundary map C_d -> C_{d-1}; d = 0 gives the augmentation."""
    cols = K.simplices_of_dim(d)
    if d == 0:
        return [[1] * len(cols)]
    rows = K.simplices_of_dim(d - 1)
    index = {s: i for i, s in enumerate(rows)}
    M = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(len(s.vertices)):
            face = Simplex(s.vertices[:i] + s.vertices[i + 1 :])
            M[index[face]][j] = (-1) ** i
    return M


def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced integral homology from dense Smith normal forms of every
    boundary matrix."""
    dim = K.dimension
    diags = {d: smith_diagonal(boundary_matrix(K, d)) for d in range(dim + 2)}
    ranks = {d: len(diags[d]) for d in diags}
    counts = {d: len(K.simplices_of_dim(d)) for d in range(dim + 1)}
    betti = []
    torsion = []
    for d in range(dim + 1):
        b = counts[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        betti.append(b)
        torsion.append(tuple(v for v in diags.get(d + 1, []) if v > 1))
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion))


def greedy_collapse(K: SimplicialComplex) -> CollapseSequence:
    """Rescan every alive simplex for free faces on every step and remove
    the smallest (order: dimension, then vertex indices)."""
    alive: set[Simplex] = set(K.simplices)
    steps: list[tuple[Simplex, Simplex]] = []
    while True:
        free: list[tuple[tuple, Simplex, Simplex]] = []
        for s in alive:
            cofaces = [t for t in alive if s < t]
            if len(cofaces) == 1:
                free.append((K.sort_key(s), s, cofaces[0]))
        if not free:
            break
        _, a, b = min(free)
        alive.discard(a)
        alive.discard(b)
        steps.append((a, b))
    remaining = sorted(alive, key=K.sort_key)
    complete = len(remaining) == 1 and remaining[0].dim == 0
    return CollapseSequence(
        steps=tuple(steps),
        complete=complete,
        basepoint=remaining[0].vertices[0] if complete else None,
        remaining=tuple(remaining),
    )
