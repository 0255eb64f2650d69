import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellulation_oracle as oracle
from plcontrol import (
    EpsilonRangeError,
    InversionError,
    Point,
    barycenter,
    barycentric_subdivision,
    build_cellulation,
    canonical,
    closure_complex,
    comesh_of,
    distance,
    enumerate_flags,
    gamma_vertex,
    make_point,
    min_distance_to_simplex,
    straightline_homotopy,
    subdivision_points,
    vertex_point,
)
from plcontrol import fixtures
from helpers import coord_of, fresh, load_script

SQRT2 = math.sqrt(2.0)


def flag_count_oracle(K):
    """Independent census: list chains explicitly, then count faces of each
    chain minimum."""
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
    by_dim = {}
    total = 0
    for c in chains:
        for base in c[0].faces():
            d = base.dim + len(c) - 1
            by_dim[d] = by_dim.get(d, 0) + 1
            total += 1
    return total, by_dim


def test_flag_census_edge(D1):
    flags = enumerate_flags(D1)
    assert len(flags) == 7
    dims = sorted(f.dim for f in flags)
    assert dims == [0, 0, 0, 0, 1, 1, 1]
    assert (len(flags), {0: 4, 1: 3}) == flag_count_oracle(D1)


def test_flag_census_triangle(D2):
    flags = enumerate_flags(D2)
    total, by_dim = flag_count_oracle(D2)
    assert len(flags) == total == 43
    census = {}
    for f in flags:
        census[f.dim] = census.get(f.dim, 0) + 1
    assert census == by_dim == {0: 12, 1: 21, 2: 10}
    assert census[0] - census[1] + census[2] == 1  # disc Euler characteristic


def test_flag_census_single_vertex():
    K = closure_complex([("a",)])
    assert len(enumerate_flags(K)) == 1


def test_flags_deterministic_order(D2):
    a = [str(f) for f in enumerate_flags(D2)]
    b = [str(f) for f in enumerate_flags(D2)]
    assert a == b


def test_gamma_vertex_zero_eps(D2):
    e = D2.simplex(["a", "b"])
    assert gamma_vertex(D2, 0.0, "a", e) == vertex_point(D2, "a")


def test_gamma_vertex_edge_example(D2):
    e = D2.simplex(["a", "b"])
    p = gamma_vertex(D2, 0.1, "a", e)
    assert p.coords == pytest.approx((1 - 0.1 / SQRT2, 0.1 / SQRT2), abs=1e-12)
    assert distance(D2, p, vertex_point(D2, "a")) == pytest.approx(0.1, abs=1e-12)


def test_gamma_vertex_trivial_simplex(D2):
    assert gamma_vertex(D2, 0.1, "a", D2.simplex(["a"])) == vertex_point(D2, "a")


def test_gamma_vertex_rejects_large_eps(D2):
    with pytest.raises(EpsilonRangeError):
        gamma_vertex(D2, comesh_of(D2), "a", D2.simplex(["a", "b"]))


def test_build_cellulation_rejects_out_of_range(D2):
    with pytest.raises(EpsilonRangeError):
        build_cellulation(D2, comesh_of(D2) * 1.01)
    with pytest.raises(EpsilonRangeError):
        build_cellulation(D2, 0.0)


def test_build_cellulation_keeps_one_cellulation_per_exact_eps():
    """An eps one ulp above another is another cellulation, at the eps it
    was asked for; the same eps is the same cellulation."""
    K = closure_complex([("a", "b", "c")])
    e = comesh_of(K) / 2.0
    near = float(np.nextafter(e, 1.0))
    cel, other = build_cellulation(K, e), build_cellulation(K, near)
    assert cel is not other and (cel.eps, other.eps) == (e, near)
    assert build_cellulation(K, e) is cel


def test_build_cellulation_checks_the_range_on_a_cache_hit():
    """An eps out of range never hits a cached one in range: the cache is
    keyed by the exact eps, so 0 and -1e-17 miss the entry of 1e-16 and the
    constructor rejects them."""
    K = closure_complex([("a", "b", "c")])
    build_cellulation(K, 1e-16)
    for eps in (0.0, -1e-17):
        with pytest.raises(EpsilonRangeError, match="outside"):
            build_cellulation(K, eps)


def test_cell_census(D2):
    cel = build_cellulation(D2, 0.1)
    assert cel.census() == {0: 12, 1: 21, 2: 10}


def test_gamma_eval_at_cell_vertices(D2):
    cel = build_cellulation(D2, 0.1)
    for cell in cel.cells:
        for i, v in enumerate(cell.flag.base.vertices):
            for j, sj in enumerate(cell.flag.chain):
                s = np.zeros(len(cell.flag.base.vertices)); s[i] = 1.0
                t = np.zeros(len(cell.flag.chain)); t[j] = 1.0
                got = canonical(D2, cel.evaluate(cell, s, t))
                want = gamma_vertex(D2, 0.1, v, sj)
                assert distance(D2, got, want) < 1e-12


def test_gamma_eval_eps_zero_is_projection(D2, rng):
    cel = build_cellulation(D2, 0.1)
    for cell in cel.cells:
        s = rng.dirichlet(np.ones(len(cell.flag.base.vertices)))
        t = rng.dirichlet(np.ones(len(cell.flag.chain)))
        got = canonical(D2, cel.evaluate(cell, s, t, eps=0.0))
        want = {v: c for v, c in zip(cell.flag.base.vertices, s) if c > 1e-9}
        gd = got.as_dict()
        assert set(gd) == set(want)
        assert all(abs(gd[v] - want[v]) < 1e-12 for v in want)


def test_gamma_eval_rejects_bad_lengths(D2):
    from plcontrol import MalformedInputError

    cel = build_cellulation(D2, 0.1)
    with pytest.raises(MalformedInputError):
        cel.evaluate(cel.cells[-1], np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_collar_cell_lies_near_its_flag_minimum(D2):
    # the cell of the flag (tau0 <= tau0 < sigma) stays within eps of tau0
    eps = 0.08
    cel = build_cellulation(D2, eps)
    tau0 = D2.simplex(["a", "b"])
    sigma = D2.simplex(["a", "b", "c"])
    cell = next(
        c for c in cel.cells if c.flag.base == tau0 and c.flag.chain == (tau0, sigma)
    )
    verts = sigma.vertices
    seg = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(3)
    for _ in range(40):
        s = rng.dirichlet(np.ones(2))
        t = rng.dirichlet(np.ones(2))
        y = cel.evaluate(cell, s, t)
        coords = np.array([coord_of(y, v) for v in verts])
        assert min_distance_to_simplex(coords, seg) <= eps + 1e-9


def test_invert_vertex(D2):
    cel = build_cellulation(D2, 0.1)
    cell, (s, t) = cel.invert(vertex_point(D2, "a"))
    assert cell.flag.base.vertices == ("a",)
    assert cell.flag.chain[0].vertices == ("a",)


def test_invert_barycenter_of_top_simplex(D2):
    cel = build_cellulation(D2, 0.1)
    cell, (s, t) = cel.invert(barycenter(D2, D2.simplex(["a", "b", "c"])))
    assert cell.flag.base.vertices == ("a", "b", "c")
    assert cell.flag.chain == (D2.simplex(["a", "b", "c"]),)
    assert s == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_invert_roundtrip_interior(D2, rng):
    """1000 random interior samples: coords recovered to 1e-8 on cells of
    full dimension, values recovered to 1e-9 everywhere."""
    cel = build_cellulation(D2, 0.1)
    n = 0
    while n < 1000:
        cell = cel.cells[int(rng.integers(len(cel.cells)))]
        s = rng.dirichlet(np.ones(len(cell.flag.base.vertices))) * 0.9 + 0.1 / len(cell.flag.base.vertices)
        t = rng.dirichlet(np.ones(len(cell.flag.chain))) * 0.9 + 0.1 / len(cell.flag.chain)
        s, t = s / s.sum(), t / t.sum()
        y = cel.evaluate(cell, s, t)
        c2, (s2, t2) = cel.invert(y)
        y2 = cel.evaluate(c2, s2, t2)
        yd, y2d = y.as_dict(), y2.as_dict()
        assert max(abs(yd.get(v, 0) - y2d.get(v, 0)) for v in cell.carrier.vertices) < 1e-9
        if cell.dim == cell.carrier.dim:
            assert c2.flag == cell.flag
            assert np.abs(s2 - s).max() < 1e-8 and np.abs(t2 - t).max() < 1e-8
        n += 1


def test_boundary_values_agree_between_incident_cells(D2, rng):
    """Sampled boundary points: the inversion picks the oracle's cell, the
    lowest-index incident one, and the evaluated image agrees to 1e-9."""
    cel = build_cellulation(D2, 0.1)
    for cell in cel.cells:
        if len(cell.flag.chain) < 2:
            continue
        for _ in range(10):
            s = rng.dirichlet(np.ones(len(cell.flag.base.vertices)))
            t = rng.dirichlet(np.ones(len(cell.flag.chain)))
            t[int(rng.integers(len(t)))] = 0.0
            t = t / t.sum()
            y = cel.evaluate(cell, s, t)
            c2, (s2, t2) = cel.invert(y)
            assert c2.flag == oracle.invert(cel, y)[0].flag
            y2 = cel.evaluate(c2, s2, t2)
            yd, y2d = y.as_dict(), y2.as_dict()
            labels = set(yd) | set(y2d)
            assert max(abs(yd.get(v, 0) - y2d.get(v, 0)) for v in labels) < 1e-9


# -- direct location against the scan oracle ----------------------------------------

@functools.cache
def _sd_d2():
    return barycentric_subdivision(fixtures.d2())[0]


TARGETS = {
    "D2": fixtures.d2,
    "Sd(D2)": _sd_d2,
    "proj_map": lambda: fixtures.proj_map().target,
    "map_collapse": lambda: fixtures.map_collapse().target,
}


def _cellulation(name, k):
    K = TARGETS[name]()
    return build_cellulation(K, comesh_of(K) / 2**k)


@functools.cache
def _subdivision_vertices(name):
    return subdivision_points(TARGETS[name](), 2)


def assert_inverts_like_oracle(cel, y):
    cell, (s, t) = cel.invert(y)
    ocell, (os_, ot) = oracle.invert(cel, y)
    assert cell.flag == ocell.flag, (y, cell.flag, ocell.flag)
    assert s.tobytes() == os_.tobytes() and t.tobytes() == ot.tobytes(), y
    assert_locates_like_the_eager_index(cel, y)


def _weights(draw, n):
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return w / w.sum()


def _near_face(draw, w):
    """Set one weight to a value between 1e-9 and 1e-7, keep the sum 1."""
    i = draw(st.integers(0, len(w) - 1))
    delta = 10.0 ** draw(st.floats(-9.0, -7.0))
    w = w * (1.0 - delta) / (w.sum() - w[i])
    w[i] = delta
    return w


@st.composite
def inversion_cases(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    cel = _cellulation(name, draw(st.integers(1, 5)))
    K = cel.K
    kind = draw(
        st.sampled_from(["interior", "face", "barycenter", "subdivision", "near_face", "near_simplex_face", "jittered"])
    )
    if kind == "barycenter":
        return cel, barycenter(K, draw(st.sampled_from(K.sorted_simplices())))
    if kind == "subdivision":
        return cel, draw(st.sampled_from(_subdivision_vertices(name)))
    if kind == "near_simplex_face":
        sigma = draw(st.sampled_from(K.sorted_simplices()))
        w = _weights(draw, len(sigma.vertices))
        if len(w) > 1:
            w = _near_face(draw, w)
        return cel, canonical(K, Point(sigma, tuple(w)))
    cell = draw(st.sampled_from(cel.cells))
    s = _weights(draw, len(cell.flag.base.vertices))
    t = _weights(draw, len(cell.flag.chain))
    on_s = draw(st.booleans())
    w = s if on_s and len(s) > 1 else t
    if kind in ("face", "near_face") and len(w) > 1:
        if kind == "face":
            w[draw(st.integers(0, len(w) - 1))] = 0.0
            w /= w.sum()
        else:
            w[:] = _near_face(draw, w)
    y = canonical(K, cel.evaluate(cell, s, t))
    if kind == "jittered":
        y = _jittered(y, 10.0 ** draw(st.floats(-14.0, -10.0)))
    return cel, y


def _jittered(y, size):
    """y with its coordinates moved apart by about size, breaking the ties
    inside each level so they must be merged back into one run."""
    c = np.array(y.coords) + size * np.arange(len(y.coords))
    return Point(y.carrier, tuple(c / c.sum()))


@given(inversion_cases())
@settings(max_examples=400, deadline=None)
def test_invert_matches_scan_oracle(case):
    cel, y = case
    assert_inverts_like_oracle(cel, y)


def assert_tries_like_arrays(cel, y, tol=1e-9):
    """On every cell that fits y, the block check, the float oracle and the
    array oracle all reject y, or all accept it with the same s and t
    bytes."""
    y = canonical(cel.K, y)
    for cell in cel._fitting_cells(y, tol):
        got = oracle.try_cell_block(cel, cell, y, tol)
        for want in (oracle.try_cell(cel, cell, y, tol), oracle.try_cell_arrays(cel, cell, y, tol)):
            assert (got is None) == (want is None), (y, cell.flag)
            if got is not None:
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (y, cell.flag)


@given(inversion_cases())
@settings(max_examples=400, deadline=None)
def test_try_cell_matches_the_array_kernel(case):
    """Every fitting cell of interior, face, near-face, barycenter,
    subdivision and jittered points; the points near the comesh, where a
    cell's base weight falls to the slack, are checked in
    ``_assert_inverts_just_below_the_comesh``."""
    assert_tries_like_arrays(*case)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_invert_matches_scan_oracle_on_schedule(name, k):
    """eps = comesh/2 ... comesh/32: every cell's centre, also with its ties
    broken by 1e-12, the vertex images and every vertex of the first
    subdivision."""
    cel = _cellulation(name, k)
    points = list(subdivision_points(cel.K, 1))
    for cell in cel.cells:
        s = np.full(len(cell.flag.base.vertices), 1.0 / len(cell.flag.base.vertices))
        t = np.full(len(cell.flag.chain), 1.0 / len(cell.flag.chain))
        points.append(cel.evaluate(cell, s, t))
        points.append(_jittered(points[-1], 1e-12))
    points.extend(img for _, _, img in cel.proper_vertex_images())
    for y in points:
        assert_inverts_like_oracle(cel, y)


def test_invert_counts_inversions_and_cells_tried(rng):
    """One block of 50 generic interior points checks 50 to 200 cells in at
    most 4 block checks per round, as the work counter of
    `scripts/ladder.py` reads them."""
    cel = build_cellulation(closure_complex([("a", "b", "c")]), 0.1)
    s = cel.K.simplex(["a", "b", "c"])
    ys = [canonical(cel.K, Point(s, tuple(rng.dirichlet(np.ones(3))))) for _ in range(50)]
    with load_script("ladder").work_counts() as counts:
        located = cel.invert_block(ys)
    assert counts["inversions"] == 50
    # a generic interior point fits a handful of flags and the first usually holds
    assert 50 <= counts["cells tried"] <= 4 * 50
    # an interior cell of the triangle has one of 4 shapes (base sizes 1-3 and
    # 1-2 levels), and a point of it fits at most 4 cells
    assert 1 <= counts["inversion blocks"] <= 4 * 4
    assert oracle.location_bytes(located) == oracle.location_bytes([oracle.scalar_invert(cel, y) for y in ys])


@functools.cache
def _simplex(d):
    return closure_complex([tuple("abcdef"[: d + 1])])


@st.composite
def tie_blocks(draw):
    """A cellulation of Δ^d, d <= 5, at comesh/2^k, and a block of 1 to 6
    of its points whose weights come from a small value set, so that their
    coordinates tie; zero weights put points of several faces, so of
    several carriers, in one block."""
    d = draw(st.integers(1, 5))
    K = _simplex(d)
    cel = build_cellulation(K, comesh_of(K) / 2 ** draw(st.integers(1, 3)))
    values = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 20, 40]), min_size=1, max_size=3, unique=True))
    ys = []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(st.lists(st.sampled_from([0, *values]), min_size=d + 1, max_size=d + 1).filter(any))
        ys.append(make_point(K, {v: x / sum(w) for v, x in zip(K.vertex_order, w)}))
    return cel, ys


@given(tie_blocks())
@settings(max_examples=200, deadline=None)
def test_invert_block_matches_the_scalar_oracle_at_ties(case):
    """A block of tied points, and each of its points as a block of one,
    locates every point in the cell, with the s and t, that the scalar
    oracle finds, to the bit."""
    cel, ys = case
    want = oracle.location_bytes([oracle.scalar_invert(cel, y) for y in ys])
    assert oracle.location_bytes(cel.invert_block(ys)) == want
    assert oracle.location_bytes([cel.invert_block([y])[0] for y in ys]) == want


def test_invert_block_checks_what_a_tie_has_left_in_one_round():
    """A tie point of Δ^5 (0.8 and five coordinates 0.04, under the level
    cap at comesh/2) fits 2 163 flags, and only the last in flag order
    reproduces it.  In a block beside a vertex and an edge's barycenter,
    which pass at their first cell, it checks one cell in each of the
    first 16 rounds, then its other 2 147 in one round, one block check per
    shape, and is located as the scalar oracle locates it."""
    K = _simplex(5)
    cel = build_cellulation(K, comesh_of(K) / 2.0)
    tie = make_point(K, dict(zip("abcdef", [0.8] + [0.04] * 5)))
    ys = [vertex_point(K, "a"), tie, barycenter(K, K.simplex(["a", "b"]))]
    assert len(cel._fitting_cells(tie, 1e-9)) == 2163
    shapes = {(c.sizes, len(c.base_pos)) for c in cel._fitting_cells(tie, 1e-9)[16:]}
    with load_script("ladder").work_counts() as counts:
        located = cel.invert_block(ys)
    assert oracle.location_bytes(located) == oracle.location_bytes([oracle.scalar_invert(cel, y) for y in ys])
    assert located[1][0] is cel._fitting_cells(tie, 1e-9)[-1]
    assert (counts["inversions"], counts["cells tried"]) == (3, 2 + 2163)
    first = len({(c.sizes, len(c.base_pos)) for c in (located[0][0], cel._fitting_cells(tie, 1e-9)[0], located[2][0])})
    assert counts["inversion blocks"] == first + 15 + len(shapes)


def test_inversion_error_names_carrier_and_flags_tried(monkeypatch):
    """A block whose point no cell reproduces raises the error of that
    point, with its carrier and the number of flags it tried, also among
    points that do invert."""
    cel = build_cellulation(closure_complex([("a", "b", "c")]), 0.1)
    y = barycenter(cel.K, cel.K.simplex(["a", "b"]))
    with monkeypatch.context() as patch:
        patch.setattr(cel, "_check_block", lambda cell, C, tol: (np.zeros(len(C), dtype=bool), C, C))
        with pytest.raises(InversionError, match=r"carrier \{a,b\}, flags tried: 1"):
            cel.invert(y)
    real = cel._check_block

    def fails_on_the_edge(cell, C, tol):  # no other point's cell has an edge's shape
        ok, S, T = real(cell, C, tol)
        return ok & (cell.carrier != y.carrier), S, T

    monkeypatch.setattr(cel, "_check_block", fails_on_the_edge)
    ys = [vertex_point(cel.K, "a"), y, barycenter(cel.K, cel.K.simplex(["a", "b", "c"]))]
    with pytest.raises(InversionError, match=re.escape(f"reproduces {y} (carrier {{a,b}}, flags tried: 1)")):
        cel.invert_block(ys)


def test_straightline_homotopy_identity_at_zero(D2, rng):
    h = straightline_homotopy(D2, 0.1)
    s = D2.simplex(["a", "b", "c"])
    for _ in range(30):
        y = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        assert distance(D2, h(y, 0.0), y) < 1e-12


def test_straightline_homotopy_vertex_tracks(D2):
    eps = 0.1
    cel = build_cellulation(D2, eps)
    h = straightline_homotopy(D2, eps)
    moved = 0
    for v, tau, img in cel.proper_vertex_images():
        tr = h.track(img)
        length = distance(D2, tr(0.0), tr(1.0))
        assert length == pytest.approx(eps, abs=1e-9)
        assert tr(1.0) == vertex_point(D2, v)
        moved += 1
    assert moved == 9  # 3 vertex-edge pairs x ... plus vertex-triangle pairs


def test_straightline_control_sampled(D2, rng):
    eps = 0.1
    h = straightline_homotopy(D2, eps)
    s = D2.simplex(["a", "b", "c"])
    worst = 0.0
    for _ in range(150):
        y = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        tr = h.track(y)
        for t in np.linspace(0, 1, 17):
            worst = max(worst, distance(D2, y, tr(float(t))))
    assert worst <= eps + 1e-9


@given(st.floats(min_value=0.01, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_monotone_family(frac):
    """d(Gamma_delta(Gamma_eps^-1 y), y) <= eps - delta for delta < eps."""
    import plcontrol.fixtures as fx

    D2 = fx.d2()
    eps = 0.12
    delta = eps * frac
    cel = build_cellulation(D2, eps)
    rng = np.random.default_rng(7)
    s = D2.simplex(["a", "b", "c"])
    for _ in range(20):
        y = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        cell, (sv, tv) = cel.invert(y)
        z = canonical(D2, cel.evaluate(cell, sv, tv, eps=delta))
        assert distance(D2, y, z) <= eps - delta + 1e-6


def _assert_builds_just_below_the_comesh(K):
    """At eps = comesh - 2e-12 a fresh cellulation builds, and eps is below
    the vertex-to-barycenter distance of every chain simplex of every cell:
    the range argument of ``_check_eps``, which the cellulation no longer
    checks itself."""
    from plcontrol.cellulation import Cellulation

    cm = comesh_of(K)
    if not math.isfinite(cm):  # no positive-dimensional simplex
        return
    eps = cm - 2e-12
    cel = Cellulation(K, eps)
    assert all(eps < ell for cell in cel.cells for ell in cell.lengths if ell > 0.0)


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_cellulation_builds_just_below_the_comesh(name):
    _assert_builds_just_below_the_comesh(TARGETS[name]())


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_cellulation_builds_just_below_the_comesh_on_random_complexes(gens):
    _assert_builds_just_below_the_comesh(closure_complex([tuple(g) for g in gens]))


def _assert_inverts_just_below_the_comesh(K, delta):
    """At eps = comesh - delta every simplex's barycenter, and points up to
    1e-7 off it along an edge of its simplex, invert, the cell point
    reproduces them to the inversion's tolerance, and every fitting cell
    checks them as the array kernel does."""
    cm = comesh_of(K)
    if not math.isfinite(cm):
        return
    cel = build_cellulation(K, cm - delta)
    pts = [barycenter(K, s) for s in K.sorted_simplices()]
    for s in K.sorted_simplices():
        if s.dim > 0:
            b = barycenter(K, s).coords
            for off in (1e-13, -1e-12, 1e-10, -1e-8, 1e-7):
                pts.append(canonical(K, Point(s, (b[0] + off, *b[1:-1], b[-1] - off))))
    for y in pts:
        cell, (s, t) = cel.invert(y)
        assert distance(K, canonical(K, cel.evaluate(cell, s, t)), y) <= 1e-9
        assert_tries_like_arrays(cel, y)


@pytest.mark.parametrize("delta", [1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 2e-12])
@pytest.mark.parametrize("gens", [[("a", "b")], [("a", "b"), ("b", "c")]])
def test_every_eps_the_range_accepts_inverts_near_the_comesh(gens, delta):
    """On a 1-dimensional complex the comesh is the edge's vertex-to-barycenter
    distance, so near it the cells around the barycenter have a base weight
    below the inversion's slack; every eps that ``_check_eps`` accepts still
    inverts."""
    _assert_inverts_just_below_the_comesh(closure_complex(gens), delta)


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_every_eps_the_range_accepts_inverts_near_the_comesh_on_random_complexes(gens):
    K = closure_complex([tuple(g) for g in gens])
    for delta in (1e-8, 2e-12):
        _assert_inverts_just_below_the_comesh(K, delta)


# -- the cell-point kernel against the per-row loops -------------------------------

_GENS = st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True), min_size=1, max_size=4)
_FRACTIONS = st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), max_size=8)


@given(_GENS, st.floats(0.01, 0.99), st.data())
@settings(max_examples=150, deadline=None)
def test_rows_match_the_per_row_loop(gens, frac, data):
    """Every row of up to four points of a cell, over eps' grids with
    repeats, with 0.0 and empty, is the per-row einsum's to the bit, on a
    new view and on one whose image memo holds some of the grid's eps'."""
    from plcontrol.homotopies import _EpsView

    K = closure_complex([tuple(g) for g in gens])
    view = _EpsView(K, min(comesh_of(K), 1.0) * frac)
    cell = data.draw(st.sampled_from(view.cel.cells))
    points = [(_weights(data.draw, len(cell.flag.base.vertices)), _weights(data.draw, len(cell.flag.chain)))
              for _ in range(data.draw(st.integers(1, 4)))]
    for fracs in (data.draw(_FRACTIONS), data.draw(_FRACTIONS)):
        fracs += fracs[: data.draw(st.integers(0, len(fracs)))]
        epss = [view.eps * u for u in fracs]
        got = view.rows(cell, *zip(*points), epss)
        assert got.shape == (len(points), len(epss), len(cell.carrier.vertices))
        for R, (s, t) in zip(got, points):
            assert R.tobytes() == oracle.rows(cell, s, t, epss).tobytes(), epss


@pytest.mark.parametrize("name", ["proj_map", "D_4"])
def test_rows_match_the_gathered_stack_on_verify_traffic(name, monkeypatch):
    """Every row array of a default verify (1 204 ``rows`` calls on
    proj_map) has the bytes of the images gathered from the view's per-eps'
    memo and stacked on that call, and some stacks serve more than one
    call."""
    from plcontrol import run_verify
    from plcontrol.homotopies import _EpsView
    from plcontrol.verify import THEOREM_CONSISTENT

    real, grids, differ = _EpsView.rows, [], []

    def both(view, cell, S, T, epss):
        got, want = real(view, cell, S, T, epss), oracle.gathered_rows(view, cell, S, T, epss)
        grids.append((view, cell, tuple(epss)))
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            differ.append((cell.flag, epss))
        return got

    monkeypatch.setattr(_EpsView, "rows", both)
    assert run_verify(_ladder_map(name)).overall == THEOREM_CONSISTENT
    assert grids and not differ
    assert len({(id(v), c, e) for v, c, e in grids}) < len(grids)


@functools.cache
def _simplex_complex(d):
    return closure_complex([tuple(f"v{i}" for i in range(d))])


@given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_row_sup_matches_the_per_row_loop(d, n, seed):
    """Random rows with random fast masks and repeated rows: the sup, its
    first time and the pair count are the per-row loop's, to the bit."""
    from reduction_oracle import _row_sup

    rng = np.random.default_rng(seed)
    K = _simplex_complex(d)
    top = K.maximal_simplices()[0]
    y = Point(top, tuple(rng.dirichlet(np.ones(d))))
    rows = rng.uniform(-1.0, 2.0, (n, d)) * 10.0 ** rng.uniform(-8.0, 1.0, (n, 1))
    if n > 1:
        rows[rng.integers(n, size=n // 2)] = rows[0]
    fast = rng.random(n) < 0.8
    others = [canonical(K, Point(top, tuple(rng.dirichlet(np.ones(d))))) for _ in range(n)]
    times = np.linspace(0.0, 1.0, n).tolist()
    got = _row_sup(K, y, times, rows, fast, others.__getitem__)
    assert repr(got) == repr(oracle.row_sup(K, y, times, rows, fast, others.__getitem__))


# -- cells built on demand against the eager index ----------------------------------

def assert_locates_like_the_eager_index(cel, y, tol=1e-9):
    """y's candidate cells, by flag and in order, and its inversion (the
    cell's flag, then s and t bytes) are those of the eager index."""
    y = canonical(cel.K, y)
    got, want = cel._fitting_cells(y, tol), oracle.fitting_cells(cel, y, tol)
    assert [c.flag for c in got] == [c.flag for c in want], y
    cell, (s, t) = cel.invert(y, tol)
    ocell, (os_, ot) = oracle.indexed_invert(cel, y, tol)
    assert cell.flag == ocell.flag, (y, cell.flag, ocell.flag)
    assert s.tobytes() == os_.tobytes() and t.tobytes() == ot.tobytes(), y


def assert_kept_cells_are_the_eager_cells(K):
    """Every cell K keeps has the eager cell's carrier, positions and array
    bytes (the order of a point's candidates is checked against the eager
    index by ``assert_locates_like_the_eager_index``)."""
    eager = {c.flag: c for c in oracle.flag_cells(K)[0]}
    kept = [c for cells in K._flag_cells.values() for c in cells.values()]
    for c in kept:
        e = eager[c.flag]
        assert (c.carrier, c.own, c.base_pos, c.sizes) == (e.carrier, e.own, e.base_pos, e.sizes)
        assert all(getattr(c, n).tobytes() == getattr(e, n).tobytes() for n in ("E", "chat", "lengths"))


def _drawn_cell_point(draw, K, cells, eps):
    """A point of one of ``cells`` at eps, canonical: interior, on a face of
    the cell, near one, or jittered."""
    cell = draw(st.sampled_from(cells))
    s = _weights(draw, len(cell.flag.base.vertices))
    t = _weights(draw, len(cell.flag.chain))
    kind = draw(st.sampled_from(["interior", "face", "near_face", "jittered"]))
    w = t if len(t) > 1 and draw(st.booleans()) else s
    if kind == "face" and len(w) > 1:
        w[draw(st.integers(0, len(w) - 1))] = 0.0
        w /= w.sum()
    elif kind == "near_face" and len(w) > 1:
        w[:] = _near_face(draw, w)
    y = canonical(K, cell.evaluate(eps, s, t))
    return _jittered(y, 1e-12) if kind == "jittered" else y


@given(_GENS, st.sampled_from([2, 8]), st.data())
@settings(max_examples=150, deadline=None)
def test_cells_on_demand_match_the_eager_index_on_random_complexes(gens, k, data):
    """Interior, face, near-face and jittered points of the eager cells of a
    random complex, inverted on a fresh K at comesh/2 or comesh/8, so that
    the inversions build every cell K keeps; then ``cells`` lists every flag
    in the eager order."""
    K = closure_complex([tuple(g) for g in gens])
    cm = comesh_of(K)
    if not math.isfinite(cm):
        return
    cel = build_cellulation(K, cm / k)
    eager = oracle.flag_cells(K)[0]
    for _ in range(data.draw(st.integers(1, 6))):
        assert_locates_like_the_eager_index(cel, _drawn_cell_point(data.draw, K, eager, cel.eps))
    assert_kept_cells_are_the_eager_cells(K)
    assert [c.flag for c in cel.cells] == [c.flag for c in eager]
    assert_kept_cells_are_the_eager_cells(K)


def _ladder_map(name):
    ladder = load_script("ladder")
    return {
        "proj_map": lambda: fresh(fixtures.proj_map()),
        "Prism(1)": lambda: ladder.inputs.prism_map(1),
        "D_3": lambda: ladder.simplex_prism(3),
        "D_4": lambda: ladder.simplex_prism(4),
    }[name]()


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("name", ["proj_map", "Prism(1)", "D_3", "D_4"])
def test_cells_on_demand_match_the_eager_index_on_ladder_samples(name, k):
    """The Y sample points of a default verify and the images of its X
    sample points, and the moved vertex images, at comesh/k on a fresh Y."""
    from plcontrol import evaluate_map, sample_points

    f = _ladder_map(name)
    Y = f.target
    cel = build_cellulation(Y, comesh_of(Y) / k)
    points = sample_points(Y, 120, seed=0) + [evaluate_map(f, x) for x in sample_points(f.source, 60, seed=0)]
    points.extend(img for _, _, img in cel.proper_vertex_images())
    for y in points:
        assert_locates_like_the_eager_index(cel, y)
    assert_kept_cells_are_the_eager_cells(Y)


# -- per-point fitting lists against the per-eps enumeration ------------------------

def assert_fits_like_the_per_eps_enumeration(cel, y, tol):
    """y's candidate cells at the eps of ``cel``, as objects and in order,
    are those enumerated afresh at that eps, and its inversion (the cell,
    then s and t bytes) is the one through them, or both raise."""
    y = canonical(cel.K, y)
    assert cel._fitting_cells(y, tol) == oracle.fitting_cells_per_eps(cel, y, tol), (cel.eps, y)
    try:
        want, (ws, wt) = oracle.invert_per_eps(cel, y, tol)
    except InversionError:
        with pytest.raises(InversionError):
            cel.invert(y, tol)
        return
    cell, (s, t) = cel.invert(y, tol)
    assert cell is want and s.tobytes() == ws.tobytes() and t.tobytes() == wt.tobytes(), (cel.eps, y)


@given(_GENS, st.sampled_from([1e-9, 1e-6]), st.permutations(range(4)), st.data())
@settings(max_examples=150, deadline=None)
def test_fitting_lists_match_the_per_eps_enumeration_on_random_complexes(gens, tol, order, data):
    """Points of a random complex, drawn in its cells at one eps of comesh/2,
    /8, /32 and comesh (1 - 1e-3), each inverted at all four in a drawn
    order on a fresh K, so that its fitting list is built at any of them
    and read at the others; K keeps one list per point and tol."""
    K = closure_complex([tuple(g) for g in gens])
    cm = comesh_of(K)
    if not math.isfinite(cm):
        return
    epss = [(cm / 2.0, cm / 8.0, cm / 32.0, cm * (1.0 - 1e-3))[i] for i in order]
    eager, points = oracle.flag_cells(K)[0], set()
    for _ in range(data.draw(st.integers(1, 4))):
        y = _drawn_cell_point(data.draw, K, eager, data.draw(st.sampled_from(epss)))
        points.add(y)
        for eps in epss:
            assert_fits_like_the_per_eps_enumeration(build_cellulation(K, eps), y, tol)
    assert set(K._fits) == {(y, tol) for y in points}


@given(_GENS, st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_proper_vertex_images_are_the_flag_cells_pairs(gens, frac):
    """(v, tau) for each vertex v of each positive-dimensional tau: the pairs
    that the eager cells' (base vertex, chain simplex) yield, each once."""
    K = closure_complex([tuple(g) for g in gens])
    cm = comesh_of(K)
    if not math.isfinite(cm):
        return
    pairs = [(v, tau) for v, tau, _ in build_cellulation(K, cm * frac).proper_vertex_images()]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == oracle.proper_vertex_pairs(K)
