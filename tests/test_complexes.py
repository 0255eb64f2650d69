import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_oracle
import poset_oracle as oracle
from plcontrol import (
    MalformedInputError,
    NotFoundError,
    Point,
    SimplicialComplex,
    barycenter,
    barycentric_subdivision,
    canonical,
    closure_complex,
    count_chains,
    enumerate_flags,
    fixtures,
    make_point,
    subdivision_points,
    vertex_point,
)
from plcontrol import complexes, contract
from plcontrol.complexes import Simplex, _face_poset, face_chains
from plcontrol.maps import _monotone_paths
from helpers import euler_characteristic


def brute_force_chain_count(K):
    """Independent oracle: list every chain in the face poset explicitly."""
    simps = K.sorted_simplices()
    chains = []

    def grow(chain):
        chains.append(tuple(chain))
        for t in simps:
            if chain[-1] < t:
                chain.append(t)
                grow(chain)
                chain.pop()

    for s in simps:
        grow([s])
    assert all(all(a < b for a, b in zip(c, c[1:])) for c in chains)
    assert len(set(chains)) == len(chains)
    return len(chains)


def test_closure_triangle():
    K = closure_complex([("a", "b", "c")])
    assert len(K.simplices) == 7
    assert K.dimension == 2


def test_closure_edge():
    assert len(closure_complex([("a", "b")]).simplices) == 3


def test_closure_circle(BD2):
    assert len(BD2.simplices) == 6
    assert BD2.dimension == 1


def test_closure_rejects_duplicate_vertex():
    with pytest.raises(MalformedInputError):
        closure_complex([("a", "a", "b")])


def test_closure_rejects_a_listed_vertex_in_no_simplex():
    with pytest.raises(MalformedInputError, match="'b' lies in no simplex"):
        closure_complex([("a",)], vertex_order=["a", "b"])


def test_vertex_order_is_first_appearance():
    K = closure_complex([("c", "a"), ("b", "a")])
    assert K.vertex_order == ("c", "a", "b")
    # simplices are canonicalized in that order
    assert K.simplex(["a", "c"]).vertices == ("c", "a")


@st.composite
def generator_lists(draw):
    """A shuffled generator list on the labels a..g, with some faces of its
    simplices listed too and perhaps one simplex listed again in another
    vertex order, a vertex order or none, and up to two flaws: a duplicate
    vertex, an empty simplex, a vertex-order label that is doubled or one
    in no simplex."""
    gens = draw(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True), min_size=1, max_size=6))
    gens += [draw(st.lists(st.sampled_from(g), min_size=1, unique=True)) for g in draw(st.lists(st.sampled_from(gens), max_size=3))]
    if draw(st.booleans()):
        gens.append(draw(st.permutations(draw(st.sampled_from(gens)))))
    gens = draw(st.permutations(gens))
    used = sorted({v for g in gens for v in g})
    order = draw(st.none() | st.lists(st.sampled_from(used), unique=True).flatmap(st.permutations))
    for flaw in draw(st.lists(st.sampled_from(["duplicate", "empty", "stray", "doubled"]), max_size=2, unique=True)):
        if flaw in ("duplicate", "empty"):
            k = draw(st.integers(0, len(gens) - 1))
            gens[k] = gens[k] + gens[k][:1] if flaw == "duplicate" else []
        else:
            order = list(order or used[:1]) + (["z"] if flaw == "stray" else used[:1])
    return [tuple(g) for g in gens], order


def construction(build, gens, order):
    """The vertex order, sorted faces, label-set keys and faces by dimension
    that ``build`` makes, or the type and message of the error it raises."""
    try:
        K = build(gens, order)
    except MalformedInputError as e:
        return type(e), str(e)
    return K.vertex_order, K._sorted, set(K._by_labels), K._by_dim


@given(generator_lists())
@settings(max_examples=300, deadline=None)
def test_complex_construction_matches_the_oracle(case):
    """The one-pass construction builds the faces, vertex order and tables
    of the per-generator one, or raises its error, and interns each face."""
    gens, order = case
    assert construction(SimplicialComplex, gens, order) == construction(complex_oracle.construct, gens, order)
    try:
        K = SimplicialComplex(gens, order)
    except MalformedInputError:
        return
    assert all(K._by_labels[frozenset(s.vertices)] is s for s in K._sorted)
    assert K.simplices == frozenset(K._sorted)


small_complexes = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=5,
).map(lambda gens: closure_complex([tuple(g) for g in gens]))


@given(small_complexes)
@settings(max_examples=40, deadline=None)
def test_face_closure_property(K):
    for s in K.simplices:
        for face in s.faces():
            assert K.simplex(face.vertices) in K.simplices


@given(small_complexes)
@settings(max_examples=25, deadline=None)
def test_subdivision_matches_chain_oracle(K):
    sd, _ = barycentric_subdivision(K)
    assert len(sd.simplices) == brute_force_chain_count(K)


@given(small_complexes)
@settings(max_examples=25, deadline=None)
def test_count_chains_matches_chain_oracle(K):
    assert count_chains(K) == brute_force_chain_count(K)


@given(small_complexes)
@settings(max_examples=25, deadline=None)
def test_face_chains_are_strict_and_depth_first(K):
    chains = list(face_chains(K))
    assert all(a < b for c in chains for a, b in zip(c, c[1:]))
    # depth first with sort_key-ordered extensions is lexicographic order, prefixes first
    keys = [tuple(K.sort_key(s) for s in c) for c in chains]
    assert keys == sorted(set(keys))


def assert_poset_walks_match_oracle(K):
    """Subdivision, flags and subdivision points from the face-chain walk are
    bit-identical to the recursive enumerators they replaced."""
    sd, mapping = barycentric_subdivision(K)
    sd_old, mapping_old = oracle.barycentric_subdivision(K)
    assert sd.vertex_order == sd_old.vertex_order
    assert sd.sorted_simplices() == sd_old.sorted_simplices()
    assert list(mapping) == list(mapping_old)
    assert all(mapping[k] == mapping_old[k] for k in mapping)  # carriers and coords, exactly
    assert [str(fl) for fl in enumerate_flags(K)] == [str(fl) for fl in oracle.enumerate_flags(K)]
    for rounds in (0, 1, 2):
        assert subdivision_points(K, rounds) == oracle.subdivision_points(K, rounds)


@given(small_complexes)
@settings(max_examples=12, deadline=None)  # the old two-round push-down takes ~0.4 s on a tetrahedron
def test_poset_walks_match_oracle(K):
    assert_poset_walks_match_oracle(K)


@pytest.mark.parametrize("name", ["d1", "d2", "bd2", "sphere2", "cone_bd2", "proj_X", "proj_Y", "sd_d2"])
def test_poset_walks_match_oracle_on_fixtures(name):
    if name == "sd_d2":
        K = barycentric_subdivision(fixtures.d2())[0]
    else:
        K = getattr(fixtures, name)()
    assert_poset_walks_match_oracle(K)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple))
@settings(max_examples=40, deadline=None)
def test_monotone_paths_match_oracle(shape):
    assert list(_monotone_paths(shape)) == list(oracle._monotone_paths(shape))


@given(small_complexes)
@settings(max_examples=60, deadline=None)
def test_sorted_faces_and_face_poset_match_a_scan(K):
    """The one sorted face tuple is the face set in ``sort_key`` order, and
    the face poset's facets (the one missing vertex k in slot k) and
    ascending cofacets are those of a brute-force incidence scan."""
    simps = sorted(K.simplices, key=K.sort_key)
    assert K.sorted_simplices() == simps
    assert K.dimension == max(s.dim for s in simps)
    for d in range(K.dimension + 2):
        assert K.simplices_of_dim(d) == tuple(s for s in simps if s.dim == d)
    facets, cofacets = _face_poset(K)
    assert facets == [
        tuple(simps.index(Simplex(s.vertices[:k] + s.vertices[k + 1 :])) for k in range(len(s.vertices))) if s.dim else ()
        for s in simps
    ]
    assert cofacets == [[j for j, t in enumerate(simps) if s < t and t.dim == s.dim + 1] for s in simps]


def test_poset_readers_build_the_face_poset_once(monkeypatch):
    """homology, greedy_collapse, maximal_simplices and face_chains each read
    the face poset, and on a fresh complex the four build it once."""
    real = complexes._face_poset
    builds = []

    def spy(K):
        builds.append(K._poset is None)
        return real(K)

    for module in (complexes, contract):
        monkeypatch.setattr(module, "_face_poset", spy)
    K = barycentric_subdivision(fixtures.d2())[0]
    assert K._poset is None
    reads = {
        "homology": lambda: contract.homology(K),
        "greedy_collapse": lambda: contract.greedy_collapse(K),
        "maximal_simplices": K.maximal_simplices,
        "face_chains": lambda: list(face_chains(K)),
    }
    for name, read in reads.items():
        calls = len(builds)
        read()
        assert len(builds) > calls, name
    assert builds.count(True) == 1


@given(small_complexes)
@settings(max_examples=60, deadline=None)
def test_maximal_simplices_match_quadratic_oracle(K):
    assert K._poset is None  # the face poset is built on first use, never at construction
    want = [s for s in K.sorted_simplices() if not any(s < t for t in K.simplices)]
    assert K.maximal_simplices() == want
    assert K.maximal_simplices() == want  # the kept result, unchanged by callers


def test_subdivision_edge(D1):
    sd, mapping = barycentric_subdivision(D1)
    assert len(sd.simplices_of_dim(0)) == 3
    assert len(sd.simplices_of_dim(1)) == 2
    mid = mapping["{a,b}"]
    assert mid.coords == (0.5, 0.5)


def test_subdivision_triangle(D2):
    sd, _ = barycentric_subdivision(D2)
    assert len(sd.simplices_of_dim(0)) == 7
    assert len(sd.simplices_of_dim(1)) == 12
    assert len(sd.simplices_of_dim(2)) == 6
    assert euler_characteristic(sd) == 1 == euler_characteristic(D2)


def test_subdivision_circle(BD2):
    sd, _ = barycentric_subdivision(BD2)
    assert len(sd.simplices_of_dim(0)) == 6
    assert len(sd.simplices_of_dim(1)) == 6


def test_subdivision_vertices_carry_equal_coords(D2):
    _, mapping = barycentric_subdivision(D2)
    p = mapping["{a,b,c}"]
    assert p.coords == (1 / 3, 1 / 3, 1 / 3)


def test_iterated_subdivision_points(D2):
    pts = subdivision_points(D2, 2)
    sd, _ = barycentric_subdivision(D2)
    sd2, _ = barycentric_subdivision(sd)
    assert len(pts) == len(sd2.simplices_of_dim(0))
    for p in pts:
        assert abs(sum(p.coords) - 1.0) < 1e-12


def test_star_of_vertex(D2):
    st_ = D2.star(D2.simplex(["a"]))
    assert {tuple(s.vertices) for s in st_} == {("a",), ("a", "b"), ("a", "c"), ("a", "b", "c")}


def test_star_of_top_simplex(D2):
    assert D2.star(D2.simplex(["a", "b", "c"])) == {D2.simplex(["a", "b", "c"])}


def test_star_missing_simplex(D2, BD2):
    with pytest.raises(NotFoundError):
        BD2.star(D2.simplex(["a", "b", "c"]))


def test_point_canonicalization(D2):
    p = Point(D2.simplex(["a", "b", "c"]), (0.5, 0.5, 0.0))
    q = canonical(D2, p)
    assert q.carrier.vertices == ("a", "b")
    assert q.coords == (0.5, 0.5)


def test_make_point_rejects_nonsimplex_support(BD2):
    with pytest.raises(NotFoundError):
        make_point(BD2, {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})


def test_point_must_sum_to_one(D2):
    with pytest.raises(MalformedInputError):
        Point(D2.simplex(["a", "b"]), (0.7, 0.7))


def test_components(BD2):
    assert len(BD2.components()) == 1
    two = closure_complex([("a", "b"), ("x", "y")])
    assert len(two.components()) == 2


def test_barycenter_and_vertex_point(D2):
    assert barycenter(D2, D2.simplex(["a", "b"])).coords == (0.5, 0.5)
    assert vertex_point(D2, "c").carrier.vertices == ("c",)
