import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contract_oracle as oracle
from plcontrol import (
    CertificateMismatchError,
    HomologyProfile,
    NotContractibleError,
    Point,
    SimplicialMap,
    barycentric_subdivision,
    canonical,
    check_collapse,
    closure_complex,
    contractibility_verdict,
    contraction_from_collapse,
    distance,
    fiber_over_barycenter,
    greedy_collapse,
    homology,
    smith_diagonal,
    vertex_point,
)
from plcontrol import contract
from plcontrol.contract import sparse_smith_diagonal
from plcontrol import fixtures


def rational_rank(M):
    """Independent rank oracle: Gaussian elimination over exact rationals."""
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    rows = len(A)
    cols = len(A[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def rational_betti(K):
    dim = K.dimension
    ranks = {d: rational_rank(oracle.boundary_matrix(K, d)) for d in range(dim + 2)}
    return tuple(
        len(K.simplices_of_dim(d)) - ranks[d] - ranks[d + 1] for d in range(dim + 1)
    )


def test_homology_point():
    K = closure_complex([("a",)])
    assert homology(K).betti == (0,)


def test_homology_circle(BD2):
    prof = homology(BD2)
    assert prof.betti == (0, 1)
    assert all(not t for t in prof.torsion)


def test_homology_sphere(SPHERE2):
    assert homology(SPHERE2).betti == (0, 0, 1)


RP2_6 = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def rp2():
    return closure_complex([tuple(map(str, t)) for t in RP2_6])


def test_homology_projective_plane_torsion():
    prof = homology(rp2())
    assert prof.betti == (0, 0, 0)
    assert prof.torsion[1] == (2,)


def test_homology_matches_rational_rank_oracle():
    for K in [
        fixtures.d1(), fixtures.d2(), fixtures.bd2(), fixtures.cone_bd2(),
        fixtures.sphere2(), fixtures.proj_X(), closure_complex([("a", "b", "c", "d")]),
    ]:
        assert homology(K).betti == rational_betti(K)


def sparse_columns(M):
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]) if M else 0)]


def test_smith_diagonal_divisibility():
    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d = oracle.smith_diagonal(M)
    assert len(d) == 3
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    assert smith_diagonal(M) == sparse_smith_diagonal(sparse_columns(M))[0] == d


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sparse_smith_matches_dense(M):
    """The one elimination, through either entry point, against the dense
    pivot loop it replaced."""
    assert smith_diagonal(M) == sparse_smith_diagonal(sparse_columns(M))[0] == oracle.smith_diagonal(M)


@st.composite
def integer_matrices(draw):
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return draw(st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=m, max_size=m))


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_smith_diagonal_matches_determinantal_divisors(M):
    """Entries where the dense pivot loop can run for minutes; the invariant
    factors d_k / d_(k-1) are unique, so they decide."""
    assert smith_diagonal(M) == oracle.determinantal_diagonal(M)


def test_smith_diagonal_of_a_matrix_the_dense_loop_blows_up():
    """The dense pivot loop took 13.9 s here, its entries growing to about
    five million bits."""
    M = [[4, 9, 0, -8, -2], [-2, 4, 0, -9, -4], [-8, 0, 0, 7, 0], [-7, -2, 0, -5, -11], [0, 0, 6, 8, -9], [0, -2, 0, 7, 8]]
    start = time.perf_counter()
    assert smith_diagonal(M) == [1, 1, 1, 1, 84]
    assert time.perf_counter() - start < 1.0


def test_determinantal_oracle_on_a_known_diagonal():
    """diag(2, 6, 0) disguised by unimodular row and column operations."""
    M = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
    M = [[r0, r1 + 3 * r0, r2 - r1] for r0, r1, r2 in M]  # column operations
    M = [M[0], [a + 5 * b for a, b in zip(M[1], M[0])], M[2]]  # a row operation
    assert oracle.determinantal_diagonal(M) == [2, 6]


def test_greedy_collapse_disc(D2):
    seq = greedy_collapse(D2)
    assert seq.complete
    assert len(seq.steps) == 3
    assert seq.basepoint is not None


def test_greedy_collapse_cone(CONE_BD2):
    assert greedy_collapse(CONE_BD2).complete


def test_greedy_collapse_circle_sticks(BD2):
    seq = greedy_collapse(BD2)
    assert not seq.complete
    assert len(seq.remaining) == 6  # nothing was free to begin with
    assert seq.steps == ()


# -- differential tests against the scan-based kernels ------------------------------

@st.composite
def shuffled_closures(draw):
    """Random closures on at most 7 vertices, with a shuffled vertex order."""
    gens = draw(st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=5,
    ))
    used = sorted({v for g in gens for v in g})
    return closure_complex([tuple(g) for g in gens], vertex_order=draw(st.permutations(used)))


@given(shuffled_closures())
@settings(max_examples=200, deadline=None)
def test_kernels_match_oracles_on_random_closures(K):
    assert greedy_collapse(K) == oracle.greedy_collapse(K)
    assert homology(K) == oracle.homology(K)


def sd(K):
    return barycentric_subdivision(K)[0]


def dunce_hat():
    """Sd^2 of the triangle (v0, v1, v2) with its edges glued v0->v1, v1->v2,
    v0->v2: contractible, but without a free face."""
    sd1, pos1 = barycentric_subdivision(fixtures.d2())
    sd2, pos2 = barycentric_subdivision(sd1)
    label = {}
    for w, p in pos2.items():
        xyz = {"a": 0.0, "b": 0.0, "c": 0.0}
        for u, c in zip(p.carrier.vertices, p.coords):
            for v, cv in zip(pos1[u].carrier.vertices, pos1[u].coords):
                xyz[v] += c * cv
        if min(xyz.values()) > 1e-9:
            label[w] = w
            continue
        # the parameter along the edge from its first to its last vertex
        t = xyz["b"] if xyz["c"] < 1e-9 else xyz["c"]
        label[w] = f"x{round(4 * t) % 4}"
    return closure_complex([tuple(label[w] for w in s.vertices) for s in sd2.simplices_of_dim(2)])


def dunce_hat_with_flap():
    hat = dunce_hat()
    return closure_complex(
        [s.vertices for s in hat.simplices_of_dim(2)] + [("x0", "x1", "flap")],
        vertex_order=[*hat.vertex_order, "flap"],
    )


def staircase_prism(Y):
    """The projection Y x [0,1] -> Y, triangulated by the staircase
    construction on Y's vertex order over each maximal simplex of Y."""
    facets = []
    for m in Y.maximal_simplices():
        vs = m.vertices
        for i in range(len(vs)):
            facets.append(tuple(f"{v}@0" for v in vs[: i + 1]) + tuple(f"{v}@1" for v in vs[i:]))
    X = closure_complex(facets, vertex_order=[f"{v}@{h}" for h in "01" for v in Y.vertex_order])
    return SimplicialMap(X, Y, {v: v.rsplit("@", 1)[0] for v in X.vertex_order})


def named_complexes():
    prism = staircase_prism(sd(fixtures.d2()))
    return [fixtures.sphere2(), fixtures.bd2(), rp2(), sd(rp2()), dunce_hat(), dunce_hat_with_flap()] + [
        fiber_over_barycenter(prism, s).triangulation for s in prism.target.sorted_simplices()
    ]


def test_kernels_match_oracles_on_named_complexes():
    for K in named_complexes():
        assert greedy_collapse(K) == oracle.greedy_collapse(K)
        assert homology(K) == oracle.homology(K)


def _assert_verdict_and_diagonals_match_the_oracle(K):
    """Kind, reason, sequence and profile of the collapse-first verdict are
    the homology-first oracle's, and homology's cleared boundary maps of
    the collapse's core have the ``sparse_smith_diagonal`` of the core's
    full ones, degree by degree."""
    v = contractibility_verdict(K)
    assert v == oracle.contractibility_verdict(K)
    diagonals, real = [], contract.sparse_smith_diagonal

    def recording(columns):
        diagonals.append(real(columns))
        return diagonals[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(contract, "sparse_smith_diagonal", recording)
        homology(K)
    used = {u for s in v.sequence.remaining for u in s.vertices}
    core = closure_complex([s.vertices for s in v.sequence.remaining], vertex_order=[u for u in K.vertex_order if u in used])
    full = oracle.boundary_diagonals(core)
    assert [d for d, _ in diagonals[::-1]] == [full.get(d, []) for d in range(K.dimension + 1)]  # reduced from the top degree down


@given(shuffled_closures())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_collapse_first_matches_the_homology_first_oracle_on_random_closures(K):
    _assert_verdict_and_diagonals_match_the_oracle(K)


def test_collapse_first_matches_the_homology_first_oracle_on_named_complexes():
    for K in [dunce_hat(), dunce_hat_with_flap(), sd(rp2()), fixtures.bd2(), fixtures.sphere2()]:
        _assert_verdict_and_diagonals_match_the_oracle(K)


def test_sd_rp2_leaves_a_torsion_residual():
    prof = homology(sd(rp2()))
    assert prof.betti == (0, 0, 0) and prof.torsion[1] == (2,)


def test_dunce_hat_unknown_verdict_carries_its_core():
    hat = dunce_hat()
    assert len(hat.simplices) == 105
    v = contractibility_verdict(hat)
    assert (v.kind, v.reason) == ("unknown", "greedy collapse stuck, homology trivial")
    assert v.sequence.steps == () and set(v.sequence.remaining) == hat.simplices

    v = contractibility_verdict(dunce_hat_with_flap())
    assert (v.kind, v.reason) == ("unknown", "greedy collapse stuck, homology trivial")
    assert len(v.sequence.steps) == 2
    assert set(v.sequence.remaining) == hat.simplices


def test_collapse_certificate_contradicting_homology_raises(monkeypatch):
    monkeypatch.setattr(contract, "homology", lambda K: HomologyProfile(betti=(0, 1, 0), torsion=((), (), ())))
    with pytest.raises(CertificateMismatchError):
        contractibility_verdict(fixtures.d2())


def _tampered(seq, how):
    """``seq`` with one defect of the kind ``how`` names."""
    (a, b), rest = seq.steps[-1], seq.steps[:-1]
    if how == "coface swapped":  # b for a simplex that is no cofacet of a
        return replace(seq, steps=rest + ((a, next(s for s in seq.remaining if s != b)),))
    if how == "steps reordered":  # the last step first: its face is not free yet
        return replace(seq, steps=((a, b),) + rest)
    if how == "step dropped":
        return replace(seq, steps=rest)
    if how == "remaining dropped":
        return replace(seq, remaining=seq.remaining[1:])
    return replace(seq, complete=not seq.complete, basepoint=None if seq.complete else seq.remaining[0].vertices[0])


@pytest.mark.parametrize("how", ["coface swapped", "steps reordered", "step dropped", "remaining dropped", "complete flipped"])
def test_tampered_collapse_sequence_raises(how, monkeypatch):
    K = dunce_hat_with_flap() if how == "remaining dropped" else fixtures.cone_bd2()
    seq = greedy_collapse(K)
    check_collapse(K, seq)
    with pytest.raises(CertificateMismatchError):
        check_collapse(K, _tampered(seq, how))
    monkeypatch.setattr(contract, "greedy_collapse", lambda K: _tampered(seq, how))
    with pytest.raises(CertificateMismatchError):
        contractibility_verdict(K)


def test_verdicts():
    assert contractibility_verdict(fixtures.d2()).is_contractible
    assert contractibility_verdict(fixtures.cone_bd2()).is_contractible
    v = contractibility_verdict(fixtures.bd2())
    assert v.kind == "not_contractible" and "b~1=1" in v.reason
    v = contractibility_verdict(fixtures.sphere2())
    assert v.kind == "not_contractible" and "b~2=1" in v.reason
    assert contractibility_verdict(None).kind == "not_contractible"


def test_contractible_verdicts_have_trivial_homology():
    for K in [fixtures.d1(), fixtures.d2(), fixtures.cone_bd2()]:
        v = contractibility_verdict(K)
        assert v.is_contractible
        assert homology(K).trivial


def test_contraction_point_is_constant():
    K = closure_complex([("a",)])
    C = contraction_from_collapse(K, greedy_collapse(K))
    p = vertex_point(K, "a")
    for t in np.linspace(0, 1, 5):
        assert C(p, float(t)) == p


def test_contraction_segment_ends_at_basepoint(D1):
    seq = greedy_collapse(D1)
    C = contraction_from_collapse(D1, seq)
    for w in np.linspace(0, 1, 11):
        p = canonical(D1, Point(D1.simplex(["a", "b"]), (float(w), 1.0 - float(w))))
        end = C(p, 1.0)
        assert end.carrier.vertices == (seq.basepoint,)
        assert distance(D1, C(p, 0.0), p) == 0.0


def coordinate_gap(p, q):
    """l2 distance of the barycentric coordinate vectors over the union of
    the carriers: a chart in which continuity is measurable even when the
    union spans no simplex (the path-metric fallback is only an upper bound)."""
    labels = set(p.carrier.vertices) | set(q.carrier.vertices)
    pd, qd = p.as_dict(), q.as_dict()
    return sum((pd.get(v, 0.0) - qd.get(v, 0.0)) ** 2 for v in labels) ** 0.5


def test_contraction_cone_tracks_are_continuous(CONE_BD2, rng):
    seq = greedy_collapse(CONE_BD2)
    C = contraction_from_collapse(CONE_BD2, seq)
    L = 2 * max(1, len(seq.steps))  # the speed bound in contraction_from_collapse's docstring
    maxs = CONE_BD2.maximal_simplices()
    times = np.linspace(0, 1, 65)
    for _ in range(15):
        s = maxs[int(rng.integers(len(maxs)))]
        p = canonical(CONE_BD2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        vals = [C(p, float(t)) for t in times]
        assert vals[-1].carrier.vertices == (seq.basepoint,)
        for a, b, dt in zip(vals, vals[1:], np.diff(times)):
            assert coordinate_gap(a, b) <= L * float(dt) + 1e-9


def test_contraction_requires_complete_sequence(BD2):
    with pytest.raises(NotContractibleError):
        contraction_from_collapse(BD2, greedy_collapse(BD2))


def test_contraction_identity_at_time_zero_on_vertices(D2):
    C = contraction_from_collapse(D2, greedy_collapse(D2))
    for v in D2.vertex_order:
        assert C(vertex_point(D2, v), 0.0) == vertex_point(D2, v)
