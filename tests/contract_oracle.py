"""Reference kernels for the differential tests of ``plcontrol.contract``:
the quadratic-scan greedy collapse, the dense boundary-matrix homology and
the dense Smith normal form pivot loop that the heap collapse and the sparse
elimination replaced, the Smith normal form diagonal from determinantal
divisors, and the order the replayed collapse replaced: sparse homology of
every boundary map on its own (no clearing), computed on every complex
before the collapse, whose full collapse it then cross-checks.

The dense pivot loop never reduces the rest of its block, so its entries
can grow without bound: on the 6 x 5 matrix of
``test_smith_diagonal_of_a_matrix_the_dense_loop_blows_up`` they reach
millions of bits.  Run it only on small matrices with small entries."""

import math
from itertools import combinations

from plcontrol import CertificateMismatchError, Simplex, SimplicialComplex
from plcontrol.complexes import _face_poset
from plcontrol import contract
from plcontrol.contract import CollapseSequence, HomologyProfile, Verdict, sparse_smith_diagonal


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, divisibility chain).

    Arbitrary-precision integers throughout, so torsion cannot overflow.
    """
    A = [row[:] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            reduced = True
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t] != 0:  # remainder becomes the new, smaller pivot
                        A[t], A[i] = A[i], A[t]
                        reduced = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j] != 0:
                        for i in range(t, m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        reduced = False
            if reduced:
                break
        # enforce divisibility of the remaining block by the pivot
        p = A[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p != 0:
                    for jj in range(t, n):
                        A[t][jj] += A[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        t += 1
    return [abs(A[i][i]) for i in range(min(m, n)) if A[i][i] != 0]


def determinant(M: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    A = [row[:] for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def determinantal_diagonal(M: list[list[int]]) -> list[int]:
    """Smith normal form diagonal as s_k = d_k / d_(k-1), where d_k is the
    gcd of the k x k minors of M (d_0 = 1); it ends at the rank, the first k
    whose minors all vanish."""
    m = len(M)
    n = len(M[0]) if m else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = math.gcd(d, determinant([[M[r][c] for c in cs] for r in rs]))
                if d == prev:  # d_k is a multiple of d_(k-1), so it is final
                    break
            if d == prev:
                break
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


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


def boundary_diagonals(K: SimplicialComplex) -> dict[int, list[int]]:
    """degree d -> the ``sparse_smith_diagonal`` of boundary d, every
    column kept; degree 0 is the augmentation."""
    facets, _ = _face_poset(K)
    diags = {0: sparse_smith_diagonal([{0: 1}] * len(K.simplices_of_dim(0)))[0]}
    start = 0  # sort position of the first simplex of dimension d - 1
    for d in range(1, K.dimension + 1):
        first = start + len(K.simplices_of_dim(d - 1))  # and of dimension d
        columns = range(first, first + len(K.simplices_of_dim(d)))
        diags[d] = sparse_smith_diagonal([{f - start: (-1) ** k for k, f in enumerate(facets[i])} for i in columns])[0]
        start = first
    return diags


def sparse_homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced integral homology from ``boundary_diagonals``."""
    diags = boundary_diagonals(K)
    betti = []
    torsion = []
    for d in range(K.dimension + 1):
        betti.append(len(K.simplices_of_dim(d)) - len(diags[d]) - len(diags.get(d + 1, [])))
        torsion.append(tuple(v for v in diags.get(d + 1, []) if v > 1))
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion))


def contractibility_verdict(K: SimplicialComplex | None) -> Verdict:
    """Homology first on every complex, then the collapse; a full collapse
    of a homologically nontrivial complex raises."""
    if K is None:
        return Verdict(kind="not_contractible", reason="empty complex")
    prof = sparse_homology(K)
    seq = contract.greedy_collapse(K)
    if seq.complete and not prof.trivial:
        raise CertificateMismatchError(f"{K} collapses to a vertex but has nontrivial homology {prof}")
    if not prof.trivial:
        nz = [f"b~{d}={b}" for d, b in enumerate(prof.betti) if b] + [
            f"torsion in degree {d}" for d, t in enumerate(prof.torsion) if t
        ]
        if prof.betti[0] > 0:
            nz.append("disconnected")
        return Verdict(kind="not_contractible", reason=", ".join(nz), sequence=seq, profile=prof)
    if seq.complete:
        return Verdict(kind="contractible", reason="full collapse", sequence=seq, profile=prof)
    return Verdict(kind="unknown", reason="greedy collapse stuck, homology trivial", sequence=seq, profile=prof)
