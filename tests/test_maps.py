import itertools

import numpy as np
import pytest

from plcontrol import (
    MalformedInputError,
    Point,
    SimplicialMap,
    VacuousRetractionError,
    barycenter,
    build_star_retraction,
    canonical,
    ProductDecompositionError,
    closure_complex,
    distance,
    evaluate_map,
    fiber_join,
    fiber_over_barycenter,
    fiber_project,
    fiber_split,
    identity_map,
    make_point,
    min_distance_to_simplex,
    surjectivity_check,
    validate_map,
    verify_product_decomposition,
    vertex_point,
)
from plcontrol import fixtures
from plcontrol.maps import _staircase_locate


def lattice_points(K, s, resolution):
    n = len(s.vertices)
    for combo in itertools.combinations_with_replacement(range(n), resolution):
        counts = [0] * n
        for c in combo:
            counts[c] += 1
        yield canonical(K, Point(s, tuple(c / resolution for c in counts)))


def test_validate_collapse(MAP_COLLAPSE):
    assert validate_map(MAP_COLLAPSE) == []


def test_validate_projection(PROJ):
    assert validate_map(PROJ) == []


def test_validate_catches_nonadjacent_image():
    src = closure_complex([("a", "b")])
    tgt = closure_complex([("x",), ("y",)])
    f = SimplicialMap(src, tgt, {"a": "x", "b": "y"})
    assert [s.vertices for s in validate_map(f)] == [("a", "b")]


def test_evaluate_vertex(MAP_COLLAPSE):
    v = evaluate_map(MAP_COLLAPSE, vertex_point(MAP_COLLAPSE.source, "c"))
    assert v.carrier.vertices == ("b",)


def test_evaluate_barycenter_sums_groups(MAP_COLLAPSE):
    # derived by summing the coordinates of b and c
    D2 = MAP_COLLAPSE.source
    img = evaluate_map(MAP_COLLAPSE, barycenter(D2, D2.simplex(["a", "b", "c"])))
    assert img.carrier.vertices == ("a", "b")
    assert img.coords == pytest.approx((1 / 3, 2 / 3), abs=1e-12)


def test_evaluate_identity_fixes_points(D2, rng):
    f = identity_map(D2)
    p = make_point(D2, {"a": 0.5, "b": 0.5})
    assert evaluate_map(f, p) == p


def test_surjectivity_collapse_and_projection(MAP_COLLAPSE, PROJ):
    assert surjectivity_check(MAP_COLLAPSE) == []
    assert surjectivity_check(PROJ) == []


def test_surjectivity_inclusion():
    f = fixtures.inclusion_d1_d2()
    missed = {tuple(s.vertices) for s in surjectivity_check(f)}
    assert missed == {("c",), ("a", "c"), ("b", "c"), ("a", "b", "c")}


# -- fibers ---------------------------------------------------------------------

def test_fiber_over_edge_is_an_edge(MAP_COLLAPSE):
    D1 = MAP_COLLAPSE.target
    fib = fiber_over_barycenter(MAP_COLLAPSE, D1.simplex(["a", "b"]))
    tri = fib.triangulation
    assert len(tri.simplices_of_dim(0)) == 2
    assert len(tri.simplices_of_dim(1)) == 1


def test_fiber_over_edge_matches_sampled_preimage(MAP_COLLAPSE):
    """Oracle: brute-force preimage sampling of the midpoint of the target."""
    D2, D1 = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    mid = make_point(D1, {"a": 0.5, "b": 0.5})
    fib = fiber_over_barycenter(MAP_COLLAPSE, D1.simplex(["a", "b"]))
    emb = list(fib.embedding.values())
    seg = np.array([[p.coord_of(v) for v in ("a", "b", "c")] for p in emb])
    hits = 0
    for s in D2.maximal_simplices():
        for p in lattice_points(D2, s, 8):
            img = evaluate_map(MAP_COLLAPSE, p)
            if img.carrier == mid.carrier and max(
                abs(a - b) for a, b in zip(img.coords, mid.coords)
            ) < 1e-12:
                hits += 1
                x = np.array([p.coord_of(v) for v in ("a", "b", "c")])
                assert min_distance_to_simplex(x, seg) < 1e-9
    assert hits >= 3  # the sampled preimage is nonempty and lies on the fiber


def test_fiber_over_vertex_is_preimage_subcomplex(MAP_COLLAPSE):
    D1 = MAP_COLLAPSE.target
    fib = fiber_over_barycenter(MAP_COLLAPSE, D1.simplex(["b"]))
    labels = {v for s in fib.triangulation.simplices for v in s.vertices}
    assert labels == {"(b)", "(c)"}
    assert len(fib.triangulation.simplices_of_dim(1)) == 1


def test_proj_fiber_over_shared_edge(PROJ):
    Y = PROJ.target
    rho = Y.simplex(["0", "e1+e2"])
    fib = fiber_over_barycenter(PROJ, rho)
    heights = sorted(fixtures.proj_height(p) for p in fib.embedding.values())
    assert heights == pytest.approx([0.0, 0.5, 1.0])
    assert len(fib.triangulation.simplices_of_dim(1)) == 2  # a two-segment path


def test_proj_star_of_shared_edge(PROJ):
    Y = PROJ.target
    rho = Y.simplex(["0", "e1+e2"])
    star = {tuple(s.vertices) for s in Y.star(rho)}
    assert star == {
        ("0", "e1+e2"),
        ("0", "e1", "e1+e2"),
        ("0", "e1+e2", "e2"),
    }


def test_empty_fiber_for_missed_simplex():
    f = fixtures.inclusion_d1_d2()
    fib = fiber_over_barycenter(f, f.target.simplex(["a", "b", "c"]))
    assert fib.is_empty


# -- fiber coordinates -------------------------------------------------------------

def test_split_join_roundtrip(MAP_COLLAPSE, rng):
    D2 = MAP_COLLAPSE.source
    s = D2.simplex(["a", "b", "c"])
    for _ in range(50):
        x = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        z, y = fiber_split(MAP_COLLAPSE, x)
        assert evaluate_map(MAP_COLLAPSE, z).coords == pytest.approx(
            barycenter(MAP_COLLAPSE.target, y.carrier).coords
        )
        back = fiber_join(MAP_COLLAPSE, z, y)
        assert distance(D2, x, back) < 1e-12


def test_project_drops_groups(MAP_COLLAPSE):
    D2, D1 = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    x = make_point(D2, {"a": 0.5, "b": 0.25, "c": 0.25})
    z, _ = fiber_split(MAP_COLLAPSE, x)
    p = fiber_project(MAP_COLLAPSE, z, D1.simplex(["a"]))
    assert p.carrier.vertices == ("a",)


def test_staircase_locate_roundtrip(rng):
    for _ in range(100):
        lambdas = [list(rng.dirichlet(np.ones(n))) for n in (2, 3)]
        chain, mu = _staircase_locate(lambdas)
        # push the chain weights back to per-factor marginals
        rec = [np.zeros(2), np.zeros(3)]
        for idx, w in zip(chain, mu):
            for i, j in enumerate(idx):
                rec[i][j] += w
        for lam, r in zip(lambdas, rec):
            assert np.allclose(lam, r, atol=1e-12)
        for a, b in zip(chain, chain[1:]):
            assert all(x <= y for x, y in zip(a, b)) and a != b


# -- product decomposition -----------------------------------------------------------

def test_product_decomposition_collapse_edge(MAP_COLLAPSE):
    D1 = MAP_COLLAPSE.target
    cert = verify_product_decomposition(MAP_COLLAPSE, D1.simplex(["a", "b"]), samples=100)
    assert len(cert.cell_bijection) == 3  # tau in {ab, ac, abc}
    two_cells = [c for c in cert.cell_bijection.values() if c.dim == 1]
    assert len(two_cells) == 1  # one product cell of positive dimension
    assert cert.samples_checked == 100


def test_product_decomposition_identity(D2):
    f = identity_map(D2)
    for s in D2.sorted_simplices():
        cert = verify_product_decomposition(f, s, samples=10)
        assert all(c.dim == 0 for c in cert.cell_bijection.values())


def test_product_decomposition_empty_fiber():
    f = fixtures.inclusion_d1_d2()
    cert = verify_product_decomposition(f, f.target.simplex(["a", "b", "c"]), samples=5)
    assert cert.is_empty


def test_product_certificate_catches_a_misweighted_join(MAP_COLLAPSE, monkeypatch):
    """A join that puts too much weight on one vertex group fails the round trip."""
    from plcontrol import maps

    real = maps.fiber_join

    def misweighted(f, z, y):
        first = y.carrier.vertices[0]
        yd = {w: c * (1.5 if w == first else 1.0) for w, c in y.as_dict().items()}
        total = sum(yd.values())
        return real(f, z, make_point(f.target, {w: c / total for w, c in yd.items()}))

    monkeypatch.setattr(maps, "fiber_join", misweighted)
    D1 = MAP_COLLAPSE.target
    verify_product_decomposition(MAP_COLLAPSE, D1.simplex(["a"]), samples=20)  # one group: exact
    with pytest.raises(ProductDecompositionError, match="round trip"):
        verify_product_decomposition(MAP_COLLAPSE, D1.simplex(["a", "b"]), samples=20)


# -- star retraction ----------------------------------------------------------------

def test_star_retraction_endpoint_over_vertex(MAP_COLLAPSE, rng):
    D2, D1 = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    R = build_star_retraction(MAP_COLLAPSE, D1.simplex(["a"]))
    s = D2.simplex(["a", "b", "c"])
    hits = 0
    for _ in range(100):
        x = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        if evaluate_map(MAP_COLLAPSE, x).coord_of("a") < 1e-9:
            continue
        hits += 1
        end = R(x, 1.0)
        assert end.carrier.vertices == ("a",)  # f^{-1}(open star end) = {a}
    assert hits == 100


def test_star_retraction_strong(MAP_COLLAPSE):
    D2, D1 = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    R = build_star_retraction(MAP_COLLAPSE, D1.simplex(["a", "b"]))
    x = make_point(D2, {"a": 0.5, "b": 0.3, "c": 0.2})  # already over the open edge
    for t in np.linspace(0, 1, 9):
        assert distance(D2, R(x, float(t)), x) < 1e-12


def test_star_retraction_tracks_stay_in_star(PROJ, rng):
    X, Y = PROJ.source, PROJ.target
    rho = Y.simplex(["0", "e1+e2"])
    R = build_star_retraction(PROJ, rho)
    star = Y.star(rho)
    for s in X.maximal_simplices():
        for _ in range(20):
            x = canonical(X, Point(s, tuple(rng.dirichlet(np.ones(len(s.vertices))))))
            y = evaluate_map(PROJ, x)
            if not any(set(rho.vertices) <= set(y.carrier.vertices) for _ in [0]):
                continue
            if not rho <= y.carrier:
                continue
            for t in np.linspace(0, 1, 9):
                img = evaluate_map(PROJ, R(x, float(t)))
                assert img.carrier in star


def test_star_retraction_vacuous():
    f = fixtures.inclusion_d1_d2()
    with pytest.raises(VacuousRetractionError):
        build_star_retraction(f, f.target.simplex(["a", "b", "c"]))


def test_open_cell_preimages_partition_source(MAP_COLLAPSE, PROJ, rng):
    """The preimages of open cells cover the source with disjoint interiors:
    every sampled point lies over exactly one open cell, the carrier of its
    image, and the fiber over that cell's barycenter contains its fiber part."""
    from plcontrol import fiber_split

    for f in (MAP_COLLAPSE, PROJ):
        X = f.source
        targets = f.target.sorted_simplices()
        for _ in range(120):
            s = X.maximal_simplices()[int(rng.integers(len(X.maximal_simplices())))]
            x = canonical(X, Point(s, tuple(rng.dirichlet(np.ones(len(s.vertices))))))
            y = evaluate_map(f, x)
            owners = [t for t in targets if t == y.carrier]
            assert len(owners) == 1
            z, _ = fiber_split(f, x)
            fib = fiber_over_barycenter(f, owners[0])
            labels, mu = fib.locate(z)  # membership in the model fiber
            assert abs(sum(mu) - 1.0) < 1e-9


def test_star_retraction_endpoint_support(PROJ, rng):
    """Time-1 image lies over the open cell: its image support is the whole
    simplex retracted onto."""
    X, Y = PROJ.source, PROJ.target
    rho = Y.simplex(["0", "e1+e2"])
    R = build_star_retraction(PROJ, rho)
    for s in X.maximal_simplices():
        for _ in range(15):
            x = canonical(X, Point(s, tuple(rng.dirichlet(np.ones(len(s.vertices))))))
            if not rho <= evaluate_map(PROJ, x).carrier:
                continue
            end = R(x, 1.0)
            assert evaluate_map(PROJ, end).carrier == rho


def test_height_trivialization_rejects_flat_fibers(PROJ):
    triv = fixtures.HeightTrivialization(PROJ, lambda p: 0.0)
    sigma = PROJ.target.simplex(["0", "e1+e2"])  # a fiber with three vertices
    with pytest.raises(MalformedInputError, match="strictly monotone"):
        triv.project(barycenter(PROJ.target, sigma), sigma)
