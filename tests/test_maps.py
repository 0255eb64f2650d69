import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    load_map,
    make_point,
    min_distance_to_simplex,
    save_complex,
    save_map,
    surjectivity_check,
    validate_map,
    verify_product_decomposition,
    vertex_point,
)
import family_oracle
import maps_oracle
from plcontrol import fixtures
from plcontrol.complexes import TOL
from plcontrol.maps import _staircase_locate
from test_homotopies import random_simplicial_maps
from test_point_kernel import bits
from helpers import coord_of, fresh, load_script


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


def test_validate_lists_bad_simplices_in_sorted_order():
    """Bad simplices with images X, Y, X in ``sorted_simplices`` order come
    out in that order, not grouped by image."""
    src = closure_complex([("a", "b"), ("a", "c"), ("a", "d")])
    tgt = closure_complex([("u", "v"), ("v", "w"), ("w", "x")])
    f = SimplicialMap(src, tgt, {"a": "u", "b": "w", "c": "x", "d": "w"})
    assert [s.vertices for s in validate_map(f)] == [("a", "b"), ("a", "c"), ("a", "d")]


def test_vertex_map_rejects_a_label_that_is_not_a_source_vertex():
    """A stray entry would otherwise build a map that verifies and that
    ``save_map`` writes back with the entry."""
    D1 = fixtures.d1()
    with pytest.raises(MalformedInputError, match="vertex map names 'zz', which is not a source vertex"):
        SimplicialMap(D1, D1, {"a": "a", "b": "b", "zz": "nowhere"})


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
    seg = np.array([[coord_of(p, v) for v in ("a", "b", "c")] for p in emb])
    hits = 0
    for s in D2.maximal_simplices():
        for p in lattice_points(D2, s, 8):
            img = evaluate_map(MAP_COLLAPSE, p)
            if img.carrier == mid.carrier and max(
                abs(a - b) for a, b in zip(img.coords, mid.coords)
            ) < 1e-12:
                hits += 1
                x = np.array([coord_of(p, v) for v in ("a", "b", "c")])
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


@pytest.mark.parametrize("kwargs", [{"samples": -3}, {"seed": -1}])
def test_product_decomposition_rejects_negative_counts(MAP_COLLAPSE, monkeypatch, kwargs):
    """A negative sample count would check nothing and a negative seed end
    in numpy's error: both are refused before the fiber is built."""
    from plcontrol import maps

    monkeypatch.setattr(maps, "fiber_over_barycenter", lambda *args: pytest.fail("built a fiber"))
    (name, value), = kwargs.items()
    with pytest.raises(MalformedInputError, match=f"{name} must be >= 0, got {value}"):
        verify_product_decomposition(MAP_COLLAPSE, MAP_COLLAPSE.target.simplex(["a", "b"]), **kwargs)


def test_product_decomposition_empty_fiber():
    f = fixtures.inclusion_d1_d2()
    cert = verify_product_decomposition(f, f.target.simplex(["a", "b", "c"]), samples=5)
    assert cert.is_empty


def assert_cells_are_products(f):
    """Over every target simplex sigma: each product cell has dim + sigma.dim
    == tau.dim, and tau_a <= tau_b exactly when every factor of a lies in the
    matching factor of b."""
    for sigma in f.target.sorted_simplices():
        cells = fiber_over_barycenter(f, sigma).cells
        for cell in cells:
            assert cell.dim + sigma.dim == cell.tau.dim
        for a, b in itertools.product(cells, repeat=2):
            inside = all(set(fa) <= set(fb) for fa, fb in zip(a.factors, b.factors))
            assert (a.tau <= b.tau) == inside


@pytest.mark.parametrize("name", ["map_collapse", "map_bad", "inclusion_d1_d2", "proj_map"])
def test_fixture_fibers_are_unions_of_product_cells(name):
    assert_cells_are_products(getattr(fixtures, name)())


@given(random_simplicial_maps())
@settings(max_examples=30, deadline=None)
def test_random_fibers_are_unions_of_product_cells(f):
    assert_cells_are_products(f)


def prism_map(k):
    return load_script("ladder").inputs.prism_map(k)


def assert_fibers_match_the_scan(f):
    """Every fiber of f equals the scan oracle's in cells, triangulation
    (vertex order and simplices) and embedding, and the open stars the image
    misses are the oracle's."""
    for sigma in f.target.sorted_simplices():
        new, old = fiber_over_barycenter(f, sigma), maps_oracle.fiber_over_barycenter(f, sigma)
        assert new.cells == old.cells
        if old.triangulation is None:
            assert new.triangulation is None
        else:
            assert new.triangulation.vertex_order == old.triangulation.vertex_order
            assert new.triangulation.sorted_simplices() == old.triangulation.sorted_simplices()
        assert [(v, bits(p)) for v, p in new.embedding.items()] == [(v, bits(p)) for v, p in maps_oracle.embedding(f, sigma).items()]
    assert surjectivity_check(f) == maps_oracle.surjectivity_check(f)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_prism_fibers_match_the_scan(k):
    assert_fibers_match_the_scan(prism_map(k))


@pytest.mark.parametrize("name", ["map_collapse", "map_bad", "inclusion_d1_d2", "proj_map"])
def test_fixture_fibers_match_the_scan(name):
    assert_fibers_match_the_scan(fresh(getattr(fixtures, name)()))


def slab_maps():
    """The two maps of the benchmark's fibers_slab batch, seed 0, as new
    maps over new copies of their complexes."""
    return [fresh(f) for f in load_script("ladder").inputs.workload_inputs("fibers_slab", 0)]


SLAB, RP2 = slab_maps()


@given(random_simplicial_maps() | random_simplicial_maps(labels="abcdefgh", max_size=5, targets="uvwx"))
@example(SLAB)
@example(RP2)
@settings(max_examples=60, deadline=None)
def test_random_fibers_match_the_scan(f):
    assert_fibers_match_the_scan(f)


@pytest.mark.parametrize("which", ["Prism(2)", "slab", "rp2"])
def test_fibers_hand_closure_only_their_maximal_simplices(which, monkeypatch):
    """The staircase simplices a fiber hands ``closure_complex`` are its
    triangulation's maximal simplices, each once: no face cell's paths."""
    from plcontrol import maps

    f = prism_map(2) if which == "Prism(2)" else fresh({"slab": SLAB, "rp2": RP2}[which])
    handed = []
    real = maps.closure_complex
    monkeypatch.setattr(maps, "closure_complex", lambda gens, **kw: handed.append(gens) or real(gens, **kw))
    for sigma in f.target.sorted_simplices():
        handed.clear()
        fiber = fiber_over_barycenter(f, sigma)
        (gens,) = handed
        maximal = fiber.triangulation.maximal_simplices()
        assert Counter(frozenset(g) for g in gens) == Counter(frozenset(s.vertices) for s in maximal)


def test_fibers_take_one_image_per_source_simplex(monkeypatch, tmp_path):
    """From load on, a map's validation, all its fibers and its
    surjectivity check compute the image of each source simplex once: one
    ``image_simplex`` call."""
    written = prism_map(1)
    save_complex(written.source, tmp_path / "x.json")
    save_complex(written.target, tmp_path / "y.json")
    save_map(written, tmp_path / "f.json", "x.json", "y.json")
    seen, real = [], SimplicialMap.image_simplex
    monkeypatch.setattr(SimplicialMap, "image_simplex", lambda f, s: seen.append(s) or real(f, s))
    makers = (lambda: load_map(tmp_path / "f.json"), lambda: prism_map(1), lambda: fresh(fixtures.proj_map()),
              lambda: fresh(fixtures.map_collapse()))
    for make in makers:
        seen.clear()
        f = make()
        surjectivity_check(f)
        for sigma in f.target.sorted_simplices():
            fiber_over_barycenter(f, sigma)
        assert len(seen) == len(set(seen)) == len(f.source.simplices)


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


# -- fiber_join reads the fiber simplex without building f(z) ------------------------

def _join_outcome(f, z, y):
    """fiber_join's and the oracle's result bits, or exception type and message."""
    out = []
    for join in (fiber_join, family_oracle.fiber_join):
        try:
            p = join(f, z, y)
            out.append((p.carrier, tuple(float(c).hex() for c in p.coords)))
        except Exception as e:  # noqa: BLE001 - the type is part of what is compared
            out.append((type(e), str(e)))
    return out


def test_join_labels_drop_image_mass_at_or_under_tol():
    """z is not canonical and its mass over the image vertex v is at most
    TOL, so the fiber simplex is the carrier of f(z), {u}: a base point on u
    joins, one on the edge uv exceeds the fiber simplex."""
    X = closure_complex([("a", "b", "c")])
    Y = closure_complex([("u", "v")])
    f = SimplicialMap(X, Y, {"a": "u", "b": "u", "c": "v"})
    for mass in (TOL, TOL / 2.0):
        z = Point(X.simplex(["a", "b", "c"]), (0.5, 0.5 - mass, mass))
        assert set(evaluate_map(f, z).carrier.vertices) == {"u"}
        on_u = _join_outcome(f, z, vertex_point(Y, "u"))
        assert on_u[0] == on_u[1] and on_u[0][0] == X.simplex(["a", "b"])
        on_uv = _join_outcome(f, z, make_point(Y, {"u": 0.5, "v": 0.5}))
        assert on_uv[0] == on_uv[1] and on_uv[0][0] is MalformedInputError


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fiber_join_matches_the_oracle_on_random_maps(f, seed):
    """For z in each source simplex, some with a coordinate at or near zero,
    and y in each face of its image simplex: the same point or error."""
    rng = np.random.default_rng(seed)
    for tau in f.source.sorted_simplices():
        w = rng.dirichlet(np.ones(len(tau.vertices)))
        if len(w) > 1:
            w[int(rng.integers(len(w)))] = rng.choice([0.0, 1e-12, 1e-9, 2e-9, 0.1])
        z = Point(tau, tuple(w / w.sum()))
        for face in f.image_simplex(tau).faces():
            y = Point(face, tuple(rng.dirichlet(np.ones(len(face.vertices)))))
            new, old = _join_outcome(f, z, y)
            assert new == old


# -- star retraction ----------------------------------------------------------------

def test_star_retraction_endpoint_over_vertex(MAP_COLLAPSE, rng):
    D2, D1 = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    R = build_star_retraction(MAP_COLLAPSE, D1.simplex(["a"]))
    s = D2.simplex(["a", "b", "c"])
    hits = 0
    for _ in range(100):
        x = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        if coord_of(evaluate_map(MAP_COLLAPSE, x), "a") < 1e-9:
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


# -- the join→image row kernel against the scalar join and image ---------------------

@given(st.sampled_from(["proj_map", "map_collapse"]), st.data())
@settings(max_examples=80, deadline=None)
def test_joined_image_rows_match_the_scalar_join_and_image(name, data):
    """``maps._joined_image_rows`` on fiber points w over sigma-hat and base
    points y on sigma, some of whose weights are 0 or at, just below or just
    above TOL (weights ``fiber_join`` drops): every row it reproduces is, by
    ``repr``, evaluate_map(f, fiber_join(f, w, y))."""
    from plcontrol.complexes import _row_point
    from plcontrol.maps import _joined_image_rows

    f = getattr(fixtures, name)()
    sigma = data.draw(st.sampled_from([s for s in f.target.sorted_simplices() if s.dim > 0]))
    fiber = fiber_over_barycenter(f, sigma)
    maxs = fiber.triangulation.maximal_simplices()
    n, ws, ys = len(sigma.vertices), [], []
    for _ in range(data.draw(st.integers(1, 6))):
        s = data.draw(st.sampled_from(maxs))
        mu = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(s.vertices), max_size=len(s.vertices)))
        ws.append(fiber.embed(s.vertices, tuple(m / sum(mu) for m in mu)))
        lam = data.draw(st.lists(st.sampled_from([0.0, 3e-10, TOL, 2e-9]) | st.floats(0.05, 1.0), min_size=n, max_size=n))
        lam[data.draw(st.integers(0, n - 1))] = 1.0
        ys.append(Point(sigma, tuple(c / sum(lam) for c in lam)))
    L = np.array([y.coords for y in ys])
    F, ok = _joined_image_rows(f, sigma, ws, L)
    for k in np.flatnonzero(ok).tolist():
        x = fiber_join(f, ws[k], ys[k])
        assert repr(_row_point(f.target, sigma.vertices, F[k])) == repr(evaluate_map(f, x))
