import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcontrol import (
    CannotConstructError,
    fiber_over_barycenter,
    LiftMismatchError,
    Homotopy,
    PLEvaluator,
    Point,
    SimplicialMap,
    approximate_lift,
    barycenter,
    build_family,
    build_gamma_map,
    canonical,
    closure_complex,
    comesh_of,
    derive_contraction,
    distance,
    epsilon_schedule,
    evaluate_map,
    identity_map,
    lift_discrepancy,
    make_point,
    measure_control,
    sample_points,
    star_clearance,
    vertex_point,
)
from plcontrol import fixtures
import cellulation_oracle
import control_oracle
import family_oracle
import reduction_oracle
import start_oracle
from helpers import coord_of, fresh, load_script


def random_point(K, rng):
    maxs = K.maximal_simplices()
    s = maxs[int(rng.integers(len(maxs)))]
    return canonical(K, Point(s, tuple(rng.dirichlet(np.ones(len(s.vertices))))))


# -- gamma -------------------------------------------------------------------------

def test_gamma_refuses_noncontractible_fibers(MAP_BAD):
    with pytest.raises(CannotConstructError) as err:
        build_gamma_map(MAP_BAD)
    assert err.value.sigma.vertices == ("a", "b")


def test_gamma_identity_map_is_projection(D2, rng):
    fam = build_family(identity_map(D2))
    g, _, h2 = fam.at(0.15)
    for _ in range(60):
        y = random_point(D2, rng)
        assert distance(D2, g(y), h2.track(y)(1.0)) < 1e-9


def test_points_hold_python_floats_and_equal_fiber_points_share_one_track():
    """A point built from numpy floats, by ``Point`` or ``make_point``,
    holds Python floats, so gamma keeps one fiber track, and one value per
    time, for a fiber point whatever type its coordinates were built from."""
    f = fixtures.map_collapse()
    gamma = build_gamma_map(f)
    sigma = max(f.target.sorted_simplices(), key=lambda s: s.dim)
    w = gamma.basepoints[sigma]
    np_coords = tuple(np.float64(c) for c in w.coords)
    numpy_copies = [Point(w.carrier, np_coords), make_point(f.source, dict(zip(w.carrier.vertices, np_coords)))]
    python_copy = Point(w.carrier, tuple(map(float, w.coords)))
    for p in numpy_copies:
        assert p == python_copy and all(type(c) is float for c in p.coords)
        assert gamma.fiber_track(sigma, p) is gamma.fiber_track(sigma, python_copy)
    track = gamma.fiber_track(sigma, python_copy)
    assert track(np.float64(0.5)) is track(0.5)


def test_build_inverse_inverts_each_point_once(monkeypatch):
    from plcontrol import build_inverse, cellulation

    f = fixtures.map_collapse()
    inverted = []
    real = cellulation.Cellulation.invert_block
    monkeypatch.setattr(cellulation.Cellulation, "invert_block", lambda cel, ys, *a, **k: inverted.extend(ys) or real(cel, ys, *a, **k))
    g = build_inverse(f, comesh_of(f.target) / 2.0, build_gamma_map(f))
    y = barycenter(f.target, max(f.target.sorted_simplices(), key=lambda s: s.dim))
    assert g(y) == g(y)
    assert inverted == [y]


def test_f_gamma_is_projection_on_cells(MAP_COLLAPSE, rng):
    """f after gamma equals projection onto the base coordinates, exactly."""
    gm = build_gamma_map(MAP_COLLAPSE)
    Y = MAP_COLLAPSE.target
    from plcontrol import enumerate_flags

    flags = enumerate_flags(Y)
    count = 0
    while count < 1000:
        fl = flags[int(rng.integers(len(flags)))]
        s = rng.dirichlet(np.ones(len(fl.base.vertices)))
        t = rng.dirichlet(np.ones(len(fl.chain)))
        x = gm.eval_cell(fl.chain, fl.base, s, t)
        img = evaluate_map(MAP_COLLAPSE, x).as_dict()
        want = {v: c for v, c in zip(fl.base.vertices, s) if c > 1e-9}
        assert set(img) == set(want)
        assert all(abs(img[v] - want[v]) < 1e-9 for v in want)
        count += 1


def test_gamma_face_compatibility_sampled(MAP_COLLAPSE, PROJ, rng):
    """Values on a chain facet agree with the facet's own chain map."""
    for f in (MAP_COLLAPSE, PROJ):
        gm = build_gamma_map(f)
        Y = f.target
        from plcontrol import enumerate_flags

        for fl in enumerate_flags(Y):
            if len(fl.chain) < 2:
                continue
            for j in range(len(fl.chain)):
                for _ in range(3):
                    t = rng.dirichlet(np.ones(len(fl.chain)))
                    t[j] = 0.0
                    t = t / t.sum()
                    full = gm.gamma_chain(fl.chain, t)
                    sub = fl.chain[:j] + fl.chain[j + 1 :]
                    tsub = np.delete(t, j)
                    if j == 0:
                        expect = gm.trivialization.project(gm.gamma_chain(sub, tsub), fl.chain[0])
                    else:
                        expect = gm.gamma_chain(sub, tsub)
                    assert distance(f.source, full, expect) < 1e-9


def test_g_at_vertex_is_base_choice(MAP_COLLAPSE):
    fam = build_family(MAP_COLLAPSE)
    g, _, _ = fam.at(0.2)
    Y = MAP_COLLAPSE.target
    for v in Y.vertex_order:
        x = g(vertex_point(Y, v))
        want = fam.gamma.basepoints[Y.simplex([v])]
        assert distance(MAP_COLLAPSE.source, x, want) < 1e-12


def test_family_controls_single_eps(MAP_COLLAPSE):
    fam = build_family(MAP_COLLAPSE)
    eps = 0.1
    g, h1, h2 = fam.at(eps)
    f = MAP_COLLAPSE
    assert measure_control(g, None, f, samples=120, seed=4).measured_control <= eps * (1 + 1e-4)
    assert measure_control(h1, f, f, samples=40, seed=4).measured_control <= eps * (1 + 1e-4)
    assert measure_control(h2, None, None, samples=120, seed=4).measured_control <= eps * (1 + 1e-4)


def test_h1_endpoints(MAP_COLLAPSE, rng):
    fam = build_family(MAP_COLLAPSE)
    g, h1, _ = fam.at(0.1)
    X = MAP_COLLAPSE.source
    for _ in range(40):
        x = random_point(X, rng)
        tr = h1.track(x)
        assert distance(X, tr(0.0), x) < 1e-9
        assert distance(X, tr(1.0), g(evaluate_map(MAP_COLLAPSE, x))) < 1e-9


@pytest.mark.parametrize(
    "make_family",
    [
        lambda: build_family(fixtures.map_collapse()),
        lambda: build_family(fixtures.proj_map()),
        fixtures.proj_explicit_family,
    ],
    ids=["map_collapse", "proj_map", "proj_explicit"],
)
def test_h1_tracks_match_concatenation_oracle(make_family):
    """One inversion per track gives bit-identical values to the
    concatenation of h1' and h1'' at 17 times."""
    fam = make_family()
    f = fam.f
    for eps in epsilon_schedule(f.target, steps=3):
        _, h1, _ = fam.at(eps)
        ref = cellulation_oracle.build_h1(f, eps, fam.gamma)
        for x in sample_points(f.source, 12, seed=3):
            tr, tr_ref = h1.track(x), ref.track(x)
            for t in np.linspace(0.0, 1.0, 17):
                assert tr(float(t)) == tr_ref(float(t))
            assert h1(x, 0.75) == ref(x, 0.75)


def test_h1_time_zero_identity_on_vertices(MAP_COLLAPSE):
    fam = build_family(MAP_COLLAPSE)
    _, h1, _ = fam.at(0.1)
    X = MAP_COLLAPSE.source
    for v in X.vertex_order:
        assert h1(vertex_point(X, v), 0.0) == vertex_point(X, v)


def test_hsecond_has_zero_control(MAP_COLLAPSE, rng):
    """The second half of h1 moves only in the fiber direction."""
    fam = build_family(MAP_COLLAPSE)
    _, h1, _ = fam.at(0.1)
    X, Y = MAP_COLLAPSE.source, MAP_COLLAPSE.target
    for _ in range(40):
        x = random_point(X, rng)
        tr = h1.track(x)
        anchor = evaluate_map(MAP_COLLAPSE, tr(0.5))
        for t in np.linspace(0.5, 1.0, 9):
            drift = distance(Y, evaluate_map(MAP_COLLAPSE, tr(float(t))), anchor)
            assert drift <= 1e-7


def test_restriction_property(MAP_COLLAPSE, rng):
    """g_eps maps each simplex into the preimage of that simplex."""
    fam = build_family(MAP_COLLAPSE)
    g, _, _ = fam.at(0.1)
    Y = MAP_COLLAPSE.target
    for tau in Y.sorted_simplices():
        for _ in range(20):
            w = rng.dirichlet(np.ones(len(tau.vertices)))
            y = canonical(Y, Point(tau, tuple(w)))
            x = g(y)
            assert set(evaluate_map(MAP_COLLAPSE, x).carrier.vertices) <= set(tau.vertices)


# -- measure_control -----------------------------------------------------------------

def test_measure_control_identity(D2):
    f = identity_map(D2)
    ev = PLEvaluator(domain=D2, codomain=D2, fn=lambda p: p)
    rep = measure_control(ev, None, None, samples=60)
    assert rep.measured_control == 0.0
    assert rep.samples > 60


def test_measure_control_constant_shift(D1):
    """A toy evaluator shifting points 0.3 along the edge measures 0.3."""
    shift = 0.3 / math.sqrt(2.0)  # metric length 0.3 in coordinate units

    def fn(p):
        b = min(1.0, coord_of(p, "b") + shift)
        return make_point(D1, {"a": 1.0 - b, "b": b}, tol=-1.0) if b < 1.0 else vertex_point(D1, "b")

    ev = PLEvaluator(domain=D1, codomain=D1, fn=fn)
    rep = measure_control(ev, None, None, samples=200, seed=1)
    assert rep.measured_control == pytest.approx(0.3, abs=1e-6)


def test_measure_control_h2(D2):
    from plcontrol import straightline_homotopy

    h = straightline_homotopy(D2, 0.1)
    rep = measure_control(h, None, None, samples=100, seed=2, epsilon_target=0.1)
    assert rep.measured_control <= 0.1 + 1e-6
    assert rep.samples == (7 + 100) * 33


# -- approximate lifting ----------------------------------------------------------------

def _point_track(Y, pts, times=None):
    """PL track of a single point through the given points of Y."""
    Z = closure_complex([("z",)])
    times = times or np.linspace(0.0, 1.0, len(pts))
    from plcontrol import combine_points

    def fn(_, t):
        t = min(max(t, 0.0), 1.0)
        for (t1, p1), (t2, p2) in zip(zip(times, pts), zip(times[1:], pts[1:])):
            if t <= t2:
                lam = (t - t1) / (t2 - t1)
                return combine_points(Y, [(1.0 - lam, p1), (lam, p2)])
        return pts[-1]

    return Homotopy(domain=Z, codomain=Y, track_factory=lambda z: lambda t: fn(z, t))


def test_lift_constant_homotopy(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    fam = build_family(f)
    Y = f.target
    y0 = make_point(Y, {"a": 0.4, "b": 0.6})
    H = _point_track(Y, [y0, y0])
    x0 = make_point(f.source, {"a": 0.4, "b": 0.3, "c": 0.3})
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0)
    eps = 0.1
    lifted = approximate_lift(f, fam, H, h, eps)
    assert distance(f.source, lifted(vertex_point(H.domain, "z"), 0.0), x0) < 1e-12
    assert lift_discrepancy(f, H, lifted, samples=5) < eps


def test_lift_linear_slide(MAP_COLLAPSE):
    """Slide a point across the whole target; the lift tracks it within eps."""
    f = MAP_COLLAPSE
    fam = build_family(f)
    Y = f.target
    H = _point_track(Y, [vertex_point(Y, "a"), vertex_point(Y, "b")])
    x0 = vertex_point(f.source, "a")
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0)
    for eps in (0.2, 0.1, 0.05):
        lifted = approximate_lift(f, fam, H, h, eps)
        disc = lift_discrepancy(f, H, lifted, samples=5, time_steps=65)
        assert disc < eps
        z = vertex_point(H.domain, "z")
        assert distance(f.source, lifted(z, 0.0), x0) < 1e-12


def test_lift_precondition_checked(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    fam = build_family(f)
    Y = f.target
    H = _point_track(Y, [vertex_point(Y, "a"), vertex_point(Y, "b")])
    x_bad = vertex_point(f.source, "b")  # f(b) = b != H(z, 0) = a
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x_bad)
    with pytest.raises(LiftMismatchError, match=r"by 1\.414e\+00 at z = "):
        approximate_lift(f, fam, H, h, 0.1)


# -- fiber contraction --------------------------------------------------------------------

def test_star_clearance_positive(D2):
    y = barycenter(D2, D2.simplex(["a", "b", "c"]))
    c = star_clearance(D2, y)
    assert c == pytest.approx(1 / math.sqrt(6), abs=1e-9)


def test_derive_contraction_identity(D2, rng):
    fam = build_family(identity_map(D2))
    y = random_point(D2, rng)
    C = derive_contraction(identity_map(D2), y, fam)
    tr = C.track(y)
    for t in np.linspace(0, 1, 9):
        assert distance(D2, tr(float(t)), y) < 1e-9


def test_derive_contraction_collapse_midpoint(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    fam = build_family(f)
    Y = f.target
    y = make_point(Y, {"a": 0.5, "b": 0.5})
    C = derive_contraction(f, y, fam)
    X = f.source
    ends = []
    for w in np.linspace(0, 1, 9):
        x = make_point(X, {"a": 0.5, "b": 0.5 * (1 - float(w)), "c": 0.5 * float(w)}, tol=-1.0)
        x = canonical(X, x)
        tr = C.track(x)
        assert distance(X, tr(0.0), x) < 1e-9
        for t in np.linspace(0, 1, 9):
            assert distance(Y, evaluate_map(f, tr(float(t))), y) < 1e-9  # stays in the fiber
        ends.append(tr(1.0))
    assert max(distance(X, ends[0], e) for e in ends) <= 1e-6


def test_derive_contraction_onto_a_point():
    """A 0-dimensional target has an infinite comesh: the control radius is
    read off the effective comesh, as every other eps is, so D2 -> pt
    contracts instead of refusing every radius."""
    D2 = fixtures.d2()
    pt = closure_complex([("p",)])
    f = SimplicialMap(D2, pt, {v: "p" for v in D2.vertex_order})
    C = derive_contraction(f, vertex_point(pt, "p"), build_family(f))
    pts = sample_points(D2, 20, seed=0, subdivision_rounds=0)
    for x in pts:
        assert distance(D2, C(x, 0.0), x) < 1e-9
    ends = [C(x, 1.0) for x in pts]
    assert max(distance(D2, ends[0], e) for e in ends) <= 1e-6


def test_derive_contraction_proj_shared_edge(PROJ):
    f = PROJ
    fam = fixtures.proj_explicit_family()
    Y = f.target
    y = make_point(Y, {"0": 0.4, "e1+e2": 0.6})
    C = derive_contraction(f, y, fam)
    X = f.source
    triv = fixtures.proj_trivialization()
    ends = []
    for h in np.linspace(0, 1, 7):
        x = triv.join(fixtures.proj_fiber_point(y.carrier, float(h)), y)
        tr = C.track(x)
        assert distance(X, tr(0.0), x) < 1e-9
        for t in np.linspace(0, 1, 7):
            assert distance(Y, evaluate_map(f, tr(float(t))), y) < 1e-9
        ends.append(tr(1.0))
    assert max(distance(X, ends[0], e) for e in ends) <= 1e-6


# -- the projection example explicit data ----------------------------------------------------------------------

def test_proj_explicit_chain_values():
    fam = fixtures.proj_explicit_family()
    Y = fixtures.proj_Y()
    rho = Y.simplex(["0", "e1+e2"])
    s1 = Y.simplex(["0", "e1", "e1+e2"])
    s2 = Y.simplex(["0", "e2", "e1+e2"])
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = rng.dirichlet(np.ones(2))
        assert fixtures.proj_height(fam.gamma.gamma_chain((rho, s1), t)) == pytest.approx(0.5 * t[0], abs=1e-12)
        assert fixtures.proj_height(fam.gamma.gamma_chain((rho, s2), t)) == pytest.approx(0.5 * t[0] + t[1], abs=1e-12)
        t3 = rng.dirichlet(np.ones(3))
        for vlabel in ("0", "e1+e2"):
            v = Y.simplex([vlabel])
            assert fixtures.proj_height(
                fam.gamma.gamma_chain((v, rho, s1), t3)
            ) == pytest.approx(0.5 * t3[0] + 0.5 * t3[1], abs=1e-12)
            assert fixtures.proj_height(
                fam.gamma.gamma_chain((v, rho, s2), t3)
            ) == pytest.approx(0.5 * t3[0] + 0.5 * t3[1] + t3[2], abs=1e-12)


def test_proj_explicit_face_compatibility(rng):
    """With the height trivialization the explicit choices are compatible on
    shared flag-cell faces."""
    fam = fixtures.proj_explicit_family()
    gm = fam.gamma
    f = fixtures.proj_map()
    from plcontrol import enumerate_flags

    for fl in enumerate_flags(f.target):
        if len(fl.chain) < 2:
            continue
        for j in range(len(fl.chain)):
            for _ in range(2):
                t = rng.dirichlet(np.ones(len(fl.chain)))
                t[j] = 0.0
                t = t / t.sum()
                full = gm.gamma_chain(fl.chain, t)
                sub = fl.chain[:j] + fl.chain[j + 1 :]
                tsub = np.delete(t, j)
                if j == 0:
                    expect = gm.trivialization.project(gm.gamma_chain(sub, tsub), fl.chain[0])
                else:
                    expect = gm.gamma_chain(sub, tsub)
                assert distance(f.source, full, expect) < 1e-9


def _edge_slide(f):
    """A homotopy of a whole edge into the target and a start map over its
    time-zero slice."""
    from plcontrol import combine_points

    Y, X = f.target, f.source
    Z = closure_complex([("p", "q")])

    b_half = make_point(Y, {"a": 0.5, "b": 0.5})

    def H_fn(z, t):
        # the p end sits still at a; the q end slides from b halfway to a
        w = coord_of(z, "q")
        target = combine_points(Y, [(1.0 - w, vertex_point(Y, "a")), (w, b_half)])
        start = combine_points(Y, [(1.0 - w, vertex_point(Y, "a")), (w, vertex_point(Y, "b"))])
        return combine_points(Y, [(1.0 - t, start), (t, target)])

    H = Homotopy(domain=Z, codomain=Y, track_factory=lambda z: lambda t: H_fn(z, t))

    def h_fn(z):
        w = coord_of(z, "q")
        return canonical(
            X, combine_points(X, [(1.0 - w, vertex_point(X, "a")), (w, vertex_point(X, "b"))])
        )

    return H, PLEvaluator(domain=Z, codomain=X, fn=h_fn)


def test_lift_with_edge_domain(MAP_COLLAPSE):
    """Lifting a homotopy whose domain is a whole edge, not just a point."""
    f = MAP_COLLAPSE
    H, h = _edge_slide(f)
    eps = 0.15
    lifted = approximate_lift(f, build_family(f), H, h, eps, samples=20)
    disc = lift_discrepancy(f, H, lifted, samples=20)
    assert disc < eps


def test_family_law_three_dimensional_source():
    from plcontrol import SimplicialMap

    T = closure_complex([("a", "b", "c", "d")])
    E = closure_complex([("a", "b")])
    f = SimplicialMap(T, E, {"a": "a", "b": "b", "c": "b", "d": "b"})
    fam = build_family(f)
    eps = 0.2
    g, h1, h2 = fam.at(eps)
    assert measure_control(g, None, f, samples=60, seed=5).measured_control <= eps * (1 + 1e-4)
    assert measure_control(h1, f, f, samples=25, seed=5, time_steps=17).measured_control <= eps * (1 + 1e-4)


@st.composite
def random_simplicial_maps(draw, labels="abcdef", max_size=3, targets="uvw"):
    """Random source complex with a random vertex identification; the target
    is the image complex, so the map is simplicial and surjective by
    construction.  The generators of the source have at most ``max_size``
    of the ``labels``."""
    from plcontrol import SimplicialMap

    gens = draw(
        st.lists(
            st.lists(st.sampled_from(labels), min_size=1, max_size=max_size, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    src = closure_complex([tuple(g) for g in gens])
    vmap = {v: draw(st.sampled_from(targets)) for v in src.vertex_order}
    images = [sorted(set(vmap[v] for v in s.vertices)) for s in src.maximal_simplices()]
    tgt = closure_complex(images)
    return SimplicialMap(src, tgt, vmap)


@given(random_simplicial_maps())
@settings(max_examples=15, deadline=None)
def test_family_construction_on_random_maps(f):
    from plcontrol import contractibility_verdict, enumerate_flags

    rng = np.random.default_rng(0)
    try:
        fam = build_family(f)
    except CannotConstructError as err:
        verdict = contractibility_verdict(fiber_over_barycenter(f, err.sigma).triangulation)
        assert verdict.kind in ("not_contractible", "unknown")
        return
    eps = fam.effective_comesh / 2.0
    g, _, h2 = fam.at(eps)
    Y = f.target
    gm = fam.gamma
    flags = enumerate_flags(Y)
    for _ in range(25):
        fl = flags[int(rng.integers(len(flags)))]
        s = rng.dirichlet(np.ones(len(fl.base.vertices)))
        t = rng.dirichlet(np.ones(len(fl.chain)))
        x = gm.eval_cell(fl.chain, fl.base, s, t)
        want = make_point(Y, {v: c for v, c in zip(fl.base.vertices, s) if c > 1e-12})
        assert distance(Y, evaluate_map(f, x), want) < 1e-9
    rep = measure_control(g, None, f, samples=25, seed=1, subdivision_rounds=0)
    assert rep.measured_control <= eps * (1.0 + 1e-4)



# -- the sampled-sup kernel against the loops it replaced -----------------------------------

def _witness_distance(u, p, q, witness):
    """d_M(p(z), q(u(z, t))) recomputed from the public maps at a witness."""
    z, t = witness
    val = u(z, t) if isinstance(u, Homotopy) else u(z)
    anchor = z if p is None else evaluate_map(p, z)
    other = val if q is None else evaluate_map(q, val)
    return distance(u.domain if p is None else p.target, anchor, other)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_sampled_sup_matches_the_old_loops(name):
    """Bit-identical sups at comesh/2 and at every eps of the assembly, all
    read through one family's memo (the assembly's height 2/cm has the eps
    comesh/2 itself).  The h1 control of the slices is h2's over f(x) at
    the times min(2t, 1) (``homotopies._h1_column``), so its old loop runs
    on those tracks; ``measure_control(h1, f, f)`` measures h1 itself."""
    from plcontrol import assemble_bounded_equivalence
    from plcontrol.verify import _identity_checks

    f = getattr(fixtures, name)()
    fam = build_family(f)
    at_half = fam.at(fam.effective_comesh / 2.0)
    assert _identity_checks(f, at_half, 20, 0) == control_oracle.identity_checks(f, fam, 20, 0)
    data = assemble_bounded_equivalence(f, fam, samples=8, time_steps=9)
    for eps in sorted({data._eps_at(t) for t in data.t_grid} | {fam.effective_comesh / 2.0}):
        want = control_oracle.slice_controls(fam, eps, 8, 0, 9)
        pts_x = sample_points(f.source, 8, seed=1)
        want["h1"] = control_oracle.sampled_sup(f.target, pts_x, np.linspace(0.0, 1.0, 9), _h1_through_h2(f, eps))[0]
        assert data.controls_at(eps) == want
        g, h1, h2 = fam.at(eps)
        for u, p, q in ((g, None, f), (h1, f, f), (h2, None, None)):
            rep = measure_control(u, p, q, samples=8, seed=1, time_steps=9)
            old = control_oracle.measure_control(u, p, q, samples=8, seed=1, time_steps=9)
            assert (rep.measured_control, rep.samples) == old
            assert _witness_distance(u, p, q, rep.witness) == rep.measured_control


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_verify_control_rows_match_the_old_loop(name):
    """The default verify's control table, from sample sets drawn once, is bit
    for bit the table of one measure_control call per (eps, map), with the
    h1 column the old loop on (f(x), h2(f(x), min(2t, 1))), which the table
    reads (``homotopies._h1_column``)."""
    from plcontrol import run_verify
    from plcontrol.cone import TIME_STEPS

    f = getattr(fixtures, name)()
    rows = run_verify(f).control_rows
    old = control_oracle.control_rows(f, build_family(f), epsilon_schedule(f.target), 120, 0, 17, 1e-4)
    pts_x, times = sample_points(f.source, 40, seed=0), np.linspace(0.0, 1.0, TIME_STEPS)
    for row in old:
        row.h1 = control_oracle.sampled_sup(f.target, pts_x, times, _h1_through_h2(f, row.eps))[0]
    assert len(rows) == 5 and rows == old


def test_lift_discrepancy_matches_the_old_loop(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    H, h = _edge_slide(f)
    lifted = approximate_lift(f, build_family(f), H, h, 0.15, samples=20)
    for samples, steps in ((20, 33), (7, 65)):
        new = lift_discrepancy(f, H, lifted, samples=samples, time_steps=steps)
        assert new == control_oracle.lift_discrepancy(f, H, lifted, samples=samples, time_steps=steps)
        assert new > 0.0


def test_family_rejects_eps_outside_range_with_typed_error():
    from plcontrol import EpsilonRangeError

    fam = build_family(fixtures.map_collapse())
    for eps in (0.0, -0.1, fam.comesh):
        with pytest.raises(EpsilonRangeError):
            fam.at(eps)


# -- one inversion per point per at(eps), per-point sups shared across a run -----------

def _bits(p):
    return p.carrier, tuple(float(c).hex() for c in p.coords)


def _assert_family_matches_oracle(f, fam, eps, pts_y, pts_x, times):
    """g(y), h2.track(y)(t) and h1.track(x)(t) of one ``fam.at(eps)`` equal,
    bit for bit, the closures that invert on every call."""
    g, h1, h2 = fam.at(eps)
    og, oh1, oh2 = family_oracle.family_at(fam, eps)
    for y in pts_y:
        assert _bits(g(y)) == _bits(og(y))
        tr, otr = h2.track(y), oh2.track(y)
        assert [_bits(tr(t)) for t in times] == [_bits(otr(t)) for t in times]
    for x in pts_x:
        tr, otr = h1.track(x), oh1.track(x)
        assert [_bits(tr(t)) for t in times] == [_bits(otr(t)) for t in times]
    # the other order: h1 locates first, then g and h2 read its points
    g, h1, h2 = fam.at(eps)
    for x in pts_x:
        y = fam.gamma.trivialization.split(x)[1]
        assert _bits(h1.track(x)(0.75)) == _bits(oh1.track(x)(0.75))
        assert _bits(g(y)) == _bits(og(y)) and _bits(h2.track(y)(0.5)) == _bits(oh2.track(y)(0.5))


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_shared_inversion_matches_the_per_closure_oracle(name):
    f = getattr(fixtures, name)()
    fam = build_family(f)
    pts_y = sample_points(f.target, 15, seed=3)
    pts_x = sample_points(f.source, 6, seed=4)
    times = [float(t) for t in np.linspace(0.0, 1.0, 9)]
    for eps in epsilon_schedule(f.target)[::2]:
        _assert_family_matches_oracle(f, fam, eps, pts_y, pts_x, times)


@given(random_simplicial_maps())
@settings(max_examples=10, deadline=None)
def test_shared_inversion_matches_the_per_closure_oracle_on_random_maps(f):
    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    pts_y = sample_points(f.target, 6, seed=1)
    pts_x = sample_points(f.source, 4, seed=2)
    times = [0.0, 0.3, 0.5, 0.8, 1.0]
    _assert_family_matches_oracle(f, fam, fam.effective_comesh / 3.0, pts_y, pts_x, times)


@given(random_simplicial_maps())
@settings(max_examples=10, deadline=None)
def test_step_kernel_matches_the_oracle_over_the_time_grid(f):
    """h1 and h2 of one ``fam.at(eps)``, which share one image dict, and the
    public ``build_h1`` and ``straightline_homotopy``, which own one each,
    equal the oracle's ``FlagCell.evaluate`` path bit for bit at every time
    of ``cone.TIME_STEPS`` (so h1' runs at the times k/8)."""
    from plcontrol import build_h1, straightline_homotopy
    from plcontrol.cone import TIME_STEPS

    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    times = [float(t) for t in np.linspace(0.0, 1.0, TIME_STEPS)]
    pts_y = sample_points(f.target, 6, seed=1)
    pts_x = sample_points(f.source, 4, seed=2)
    for eps in epsilon_schedule(f.target)[::2]:
        _assert_family_matches_oracle(f, fam, eps, pts_y, pts_x, times)
        _, oh1, oh2 = family_oracle.family_at(fam, eps)
        h1, h2 = build_h1(f, eps, fam.gamma), straightline_homotopy(f.target, eps)
        for u, ou, pts in ((h2, oh2, pts_y), (h1, oh1, pts_x)):
            for z in pts:
                tr, otr = u.track(z), ou.track(z)
                assert [_bits(tr(t)) for t in times] == [_bits(otr(t)) for t in times]


def test_one_at_inverts_each_distinct_point_once(PROJ):
    f = PROJ
    fam = build_family(f)
    eps = fam.effective_comesh / 4.0
    pts_y = sample_points(f.target, 20, seed=0)
    pts_x = sample_points(f.source, 10, seed=1)
    with load_script("ladder").work_counts() as counts:
        g, h1, h2 = fam.at(eps)
        for y in pts_y + pts_y:
            g(y)
            h2.track(y)(0.5)
        for x in pts_x:
            h1.track(x)(0.9)
        one_at = counts["inversions"]
        fam.at(eps)[0](pts_y[0])
    split = {fam.gamma.trivialization.split(x)[1] for x in pts_x}
    assert one_at == len(set(pts_y) | split)
    assert split & set(pts_y)  # h1 read some of the points g and h2 located
    assert counts["inversions"] == one_at + 1  # a new at() has a new memo


def test_one_at_builds_each_cell_image_once(PROJ, monkeypatch):
    """h1 and h2 of one ``at(eps)`` read one image dict: each (cell, eps')
    array is built once, h1' at time u reads the array h2 built at u, and a
    new ``at()`` has a new dict.  The view's stack memo, one stacked array
    per (cell, eps' grid), is filled from that dict, so it builds no image
    again.  The inversions build no images: the cellulation holds no
    arrays."""
    from plcontrol.cellulation import FlagCell

    f = PROJ
    fam = build_family(f)
    eps = fam.effective_comesh / 4.0
    built = []
    real = FlagCell.vertex_images

    def counting(cell, e):  # e is one eps' or a sequence of them
        built.extend((cell.flag, x) for x in np.ravel(e).tolist())
        return real(cell, e)

    monkeypatch.setattr(FlagCell, "vertex_images", counting)
    pts_y = sample_points(f.target, 20, seed=0)
    pts_x = sample_points(f.source, 10, seed=1)
    g, h1, h2 = fam.at(eps)
    for y in pts_y:
        g(y)
    assert not built  # g located every y
    for y in pts_y + pts_y:
        tr = h2.track(y)
        tr(0.25), tr(0.5)
    from_h2 = len(built)
    for x in pts_x:
        h1.track(x)(0.25)  # h1'(x, 0.5): the step eps * (1 - 0.5) of h2 at 0.5
    assert 0 < len(built) == len(set(built))
    assert from_h2 < 2 * len(pts_y) and len(built) - from_h2 < len(pts_x)
    fam.at(eps)[2].track(pts_y[0])(0.5)
    assert len(built) == len(set(built)) + 1


def _tie_tracks(K):
    """Tracks whose distance is the same at two times of each point and the
    same at two points: every sup is attained more than once."""
    a, b = vertex_point(K, "a"), vertex_point(K, "b")
    mid = make_point(K, {"a": 0.5, "b": 0.5})
    far = {0.0: a, 0.25: mid, 0.5: b, 0.75: mid, 1.0: b}

    def tracks(z):
        return (lambda t: a), (lambda t: far[t])

    return tracks


@pytest.mark.parametrize("case", ["family", "ties"])
def test_sampled_sup_memo_empty_partial_and_full(case, D1):
    """A per-point table folded by ``_fold`` gives the memo-free loop's
    (sup, witness, pairs) whatever the table already holds, and
    ``_pair_sups`` calls the tracks of each distinct point it lacks once."""
    from plcontrol.homotopies import _fold, _pair_sups, sampled_sup

    if case == "family":
        f = fixtures.map_collapse()
        M = f.target
        h2 = build_family(f).at(comesh_of(M) / 2.0)[2]
        pts = sample_points(M, 12, seed=5)
        times = np.linspace(0.0, 1.0, 9)

        def tracks(z):
            return (lambda t: z), h2.track(z)
    else:
        M = D1
        pts = [vertex_point(D1, "a"), make_point(D1, {"a": 0.5, "b": 0.5}), vertex_point(D1, "b")] * 2
        times = (0.0, 0.25, 0.5, 0.75, 1.0)
        tracks = _tie_tracks(D1)
    want = control_oracle.sampled_sup(M, pts, times, tracks)
    assert sampled_sup(M, pts, times, tracks) == want
    calls = []

    def counted(z):
        calls.append(z)
        return tracks(z)

    for prefix in (0, len(pts) // 2, len(pts)):
        memo = _pair_sups(M, pts[:prefix], times, tracks)
        calls.clear()
        memo.update(_pair_sups(M, [z for z in pts if z not in memo], times, counted))
        assert _fold(pts, memo) == want
        assert len(calls) == len(set(pts) - set(pts[:prefix]))
    if case == "ties":
        assert want[1] == (pts[0], 0.5) and want[2] == 5 * len(pts)


def _closure_value(fn, name):
    """The value of the free variable ``name`` of the closure ``fn``."""
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))[name]


def test_sampled_control_kernel_matches_the_moved_oracles(D1, MAP_COLLAPSE):
    """``sampled_sup``, ``_control_report`` with its table empty, partly
    filled and full, and ``approximate_lift``'s initial interval eta give
    the moved kernels' results, by ``repr``: the pair-loop factory with the
    callable-or-memo fold, and the 17-time loop of the lift, on point
    tracks of one and three segments and on the edge slide."""
    from plcontrol.homotopies import _control_report, sampled_sup

    f = MAP_COLLAPSE
    Y = f.target
    fam = build_family(f)
    eps = fam.effective_comesh / 2.0
    g, h1, h2 = fam.at(eps)
    a, b = vertex_point(Y, "a"), vertex_point(Y, "b")
    mid = make_point(Y, {"a": 0.5, "b": 0.5})
    three = _point_track(Y, [a, mid, b, make_point(Y, {"a": 0.25, "b": 0.75})])
    times = tuple(map(float, np.linspace(0.0, 1.0, 9)))
    z = vertex_point(three.domain, "z")
    pts_y = sample_points(Y, 10, seed=3)
    for M, pts, ts, tracks in (
        (Y, [z, z], times, lambda w: (three.track(w), lambda t: a)),
        (Y, pts_y + pts_y[:4], times, lambda y: ((lambda t: y), h2.track(y))),
        (D1, [vertex_point(D1, "a"), vertex_point(D1, "b")] * 2, (0.0, 0.25, 0.5, 0.75, 1.0), _tie_tracks(D1)),
    ):
        want = control_oracle.fold_sup(pts, control_oracle.pair_sup(M, ts, tracks), None)
        assert repr(sampled_sup(M, pts, ts, tracks)) == repr(want)

    pts_x = sample_points(f.source, 10, seed=4)
    rows = (
        (g, None, f, pts_y, (0.0,), control_oracle.pair_sup(Y, (0.0,), lambda y: ((lambda t: y), lambda t: evaluate_map(f, g(y))))),
        (h1, f, f, pts_x, times, control_oracle.pair_sup(Y, times, _oracle_h1_tracks(f, fam, eps))),
        (h2, None, None, pts_y, times, control_oracle.pair_sup(Y, times, lambda y: ((lambda t: y), h2.track(y)))),
        (h1, None, None, pts_x[:5], times, control_oracle.pair_sup(f.source, times, lambda x: ((lambda t: x), h1.track(x)))),
    )
    for u, p, q, pts, ts, point_sup in rows:
        pts = pts + pts[:3]
        rep = _control_report(u, p, q, pts, ts, eps)
        assert repr((rep.measured_control, rep.witness, rep.samples)) == repr(control_oracle.fold_sup(pts, point_sup, None))
        for prefix in (0, len(pts) // 2, len(pts)):
            memo, old = {}, {}
            _control_report(u, p, q, pts[:prefix], ts, eps, memo)
            control_oracle.fold_sup(pts[:prefix], point_sup, old)
            rep = _control_report(u, p, q, pts, ts, eps, memo)
            want = control_oracle.fold_sup(pts, point_sup, old)
            assert repr((rep.measured_control, rep.witness, rep.samples)) == repr(want)
            assert {z: repr(v) for z, v in memo.items()} == {z: repr(v) for z, v in old.items()}

    x0 = vertex_point(f.source, "a")
    h = PLEvaluator(domain=three.domain, codomain=f.source, fn=lambda _: x0)
    edge, h_edge = _edge_slide(f)
    for H, start in ((_point_track(Y, [a, a]), h), (_point_track(Y, [a, b]), h), (three, h), (edge, h_edge)):
        for eps in (0.2, 0.05):
            lifted = approximate_lift(f, fam, H, start, eps)
            assert repr(_closure_value(lifted.track_factory, "eta")) == repr(control_oracle.lift_eta(f, H, eps))


def test_trivial_family_keeps_one_identity_map(D2):
    from plcontrol.homotopies import TrivialFamily

    fam = TrivialFamily(D2)
    assert fam.f is fam.f and fam.f.source is fam.f.target is D2


def test_an_eps_reads_its_own_cellulation_after_a_nearby_one():
    """On proj_map's target, 1/(2/cm) (the assembly's height 2/cm) and cm/2
    differ in the last bits.  A family that has read ``at(cm/2)`` gives at
    1/(2/cm) the g values and controls of a family that has not."""
    from plcontrol.homotopies import family_controls

    warm, cold = build_family(fresh(fixtures.proj_map())), build_family(fresh(fixtures.proj_map()))
    cm = warm.effective_comesh
    eps = 1.0 / (2.0 / cm)
    assert eps != cm / 2.0
    warm.at(cm / 2.0)
    times = np.linspace(0.0, 1.0, 9)
    values = []
    for fam in (warm, cold):
        Y, X = fam.f.target, fam.f.source
        pts_y, pts_x = sample_points(Y, 30, seed=0), sample_points(X, 20, seed=1)
        g = fam.at(eps)[0]
        values.append(([g(y) for y in pts_y], family_controls(fam, eps, pts_y, pts_x, times)))
    assert values[0] == values[1]


def test_controls_at_an_eps_read_no_sups_of_a_nearby_eps():
    """On proj_map's target, 1/(2/cm) and cm/2 differ in the last bits.  A
    family that has measured its controls at cm/2 measures them at 1/(2/cm)
    as a family that has not: the sups memo is keyed by the exact eps."""
    from plcontrol.homotopies import family_controls

    warm, cold = build_family(fresh(fixtures.proj_map())), build_family(fresh(fixtures.proj_map()))
    cm = warm.effective_comesh
    eps = 1.0 / (2.0 / cm)
    assert eps != cm / 2.0
    times = np.linspace(0.0, 1.0, 9)

    def controls(fam, e):
        pts_y, pts_x = sample_points(fam.f.target, 30, seed=0), sample_points(fam.f.source, 20, seed=1)
        return family_controls(fam, e, pts_y, pts_x, times)

    controls(warm, cm / 2.0)
    assert controls(warm, eps) == controls(cold, eps)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_warm_family_controls_equal_a_cold_family(name):
    """After a default verify's control table and assembly, family_controls
    at every schedule eps and every assembly eps equals a fresh family's,
    on the control table's and on the slices' sample sets."""
    from plcontrol import assemble_bounded_equivalence
    from plcontrol.cone import TIME_STEPS
    from plcontrol.homotopies import family_controls

    f = getattr(fixtures, name)()
    warm = build_family(f)
    times = np.linspace(0.0, 1.0, TIME_STEPS)
    table = (sample_points(f.target, 120, seed=0), sample_points(f.source, 40, seed=0))
    schedule = epsilon_schedule(f.target)
    for eps in schedule:
        family_controls(warm, eps, *table, times)
    data = assemble_bounded_equivalence(f, warm, samples=40, seed=0)
    slices = (sample_points(f.target, 40, seed=0), sample_points(f.source, 40, seed=1))
    cases = [(eps, table) for eps in schedule] + [(data._eps_at(t), slices) for t in data.t_grid]
    for eps, pts in cases:
        assert family_controls(warm, eps, *pts, times) == family_controls(build_family(f), eps, *pts, times)


# -- the h2 row as one array per sampled point ------------------------------------------

def _near_boundary_points(Y):
    """One point per positive-dimensional maximal simplex of Y with one
    coordinate just above TOL: as eps' shrinks its steps drop that coordinate
    to TOL or below, so ``canonical`` changes them and they take the scalar
    branch before t = 1."""
    pts = []
    for s in Y.maximal_simplices():
        if s.dim > 0:
            n = len(s.vertices)
            pts.append(make_point(Y, {v: 3e-9 if i == 0 else (1.0 - 3e-9) / (n - 1) for i, v in enumerate(s.vertices)}))
    return pts


def _based_off_carrier(Y, eps, pts):
    """The distinct points whose cell's base is not its carrier: their
    step at eps' = 0, the base point, is not canonical."""
    from plcontrol import build_cellulation

    cel = build_cellulation(Y, eps)
    return sum(cell.flag.base != cell.carrier for cell, _ in map(cel.invert, set(pts)))


def _assert_h2_rows_match_the_pair_loop(f, fam, eps, pts, times, monkeypatch):
    """The h2 row of ``_family_controls`` equals the memo-free pair loop on
    the straight-line tracks of ``family_oracle`` in sup, witness and pair
    count; returns the eps' of the steps that took the scalar branch."""
    from plcontrol import homotopies
    from plcontrol.homotopies import _family_controls

    scalar = []
    real = homotopies._EpsView.step

    def spy(view, cell, s, t, e):
        scalar.append(e)
        return real(view, cell, s, t, e)

    old_h2 = family_oracle.straightline_homotopy(f.target, eps)
    want = control_oracle.sampled_sup(f.target, pts, times, lambda z: ((lambda t: z), old_h2.track(z)))
    with monkeypatch.context() as m:
        m.setattr(homotopies._EpsView, "step", spy)
        rep = _family_controls(fam, eps, fam.at(eps), pts, [], times)["h2"]
    assert (rep.measured_control, rep.witness, rep.samples) == want
    return scalar


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_h2_rows_match_the_pair_loop(name, monkeypatch):
    """At every schedule eps and every assembly eps of a default verify, on
    its Y samples and on points whose steps leave Y's open carrier before
    t = 1; at t = 1 (eps' = 0) exactly the points whose cell's base is not
    its carrier take the scalar branch."""
    from plcontrol import assemble_bounded_equivalence
    from plcontrol.cone import TIME_STEPS

    f = getattr(fixtures, name)()
    fam = build_family(f)
    times = tuple(map(float, np.linspace(0.0, 1.0, TIME_STEPS)))
    pts = sample_points(f.target, 120, seed=0) + _near_boundary_points(f.target)
    data = assemble_bounded_equivalence(f, build_family(f), samples=40, seed=0)
    early = 0
    for eps in epsilon_schedule(f.target) + [data._eps_at(t) for t in data.t_grid]:
        scalar = _assert_h2_rows_match_the_pair_loop(f, build_family(f), eps, pts, times, monkeypatch)
        assert 0 < scalar.count(0.0) == _based_off_carrier(f.target, eps, pts) < len(set(pts))
        early += sum(e > 0.0 for e in scalar)
    assert early > 0


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_h2_rows_match_the_pair_loop_on_random_maps(f, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            fam = build_family(f)
        except CannotConstructError:
            return
        times = tuple(map(float, np.linspace(0.0, 1.0, 9)))
        pts = sample_points(f.target, 20, seed=seed) + _near_boundary_points(f.target)
        for eps in epsilon_schedule(f.target, steps=3):
            scalar = _assert_h2_rows_match_the_pair_loop(f, fam, eps, pts, times, monkeypatch)
            assert scalar.count(0.0) == _based_off_carrier(f.target, eps, pts)


# -- the rows of one cell's points against the per-point oracle ---------------------------

def _assert_cell_rows_match_the_per_point_oracle(Y, eps, pts):
    """At eps, over the control table's time grid, the h1 grids and the
    empty one: the rows of the points of each cell, one ``_EpsView.rows``
    call, and of the points of each carrier width, one ``rows_of`` block,
    are each point's own (``reduction_oracle.point_rows``, on a view of its
    own), compared by ``repr``, which writes a float exactly; the blocks
    hold every point once."""
    from plcontrol.cone import TIME_STEPS
    from plcontrol.homotopies import _EpsView

    view, alone = _EpsView(Y, eps), _EpsView(Y, eps)
    located = [view.locate(y) for y in pts]
    for times in (tuple(np.linspace(0.0, 1.0, TIME_STEPS).tolist()), *H1_GRIDS):
        epss = tuple(eps * (1.0 - time) for time in times)
        want = [reduction_oracle.point_rows(alone, cell, s, t, epss).tolist() for cell, (s, t) in located]
        for cell in dict.fromkeys(cell for cell, _ in located):
            ps = [p for p, (c, _) in enumerate(located) if c is cell]
            got = view.rows(cell, *zip(*(located[p][1] for p in ps)), epss)
            assert repr(got.tolist()) == repr([want[p] for p in ps]), (cell.flag, times)
        blocks = view.rows_of(located, epss)
        assert sorted(p for ps, _ in blocks for p in ps) == list(range(len(pts)))
        for ps, got in blocks:
            assert repr(got.tolist()) == repr([want[p] for p in ps]), times


@pytest.mark.parametrize("name", ["Prism(1)", "D_4"])
def test_cell_rows_match_the_per_point_oracle(name):
    """At every schedule eps and every assembly eps of a default verify, on
    Y samples and on points whose steps leave Y's open carrier."""
    from plcontrol import assemble_bounded_equivalence

    ladder = load_script("ladder")
    f = ladder.inputs.prism_map(1) if name == "Prism(1)" else ladder.simplex_prism(4)
    data = assemble_bounded_equivalence(f, build_family(f), samples=40, seed=0)
    pts = sample_points(f.target, 120, seed=0) + _near_boundary_points(f.target)
    for eps in epsilon_schedule(f.target) + [data._eps_at(t) for t in data.t_grid]:
        _assert_cell_rows_match_the_per_point_oracle(f.target, eps, pts)


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_cell_rows_match_the_per_point_oracle_on_random_maps(f, seed):
    pts = sample_points(f.target, 20, seed=seed) + _near_boundary_points(f.target)
    for eps in epsilon_schedule(f.target):
        _assert_cell_rows_match_the_per_point_oracle(f.target, eps, pts)


# -- the h1 row, read off h2 at min(2t, 1), against the pair loop ------------------------

def _oracle_h1_tracks(f, fam, eps):
    """x -> (f(x), f(h1(x, .))) on the h1 tracks of ``family_oracle``."""
    old_h1 = family_oracle.build_h1(f, eps, fam.gamma)

    def tracks(x):
        anchor, tr = evaluate_map(f, x), old_h1.track(x)
        return (lambda t: anchor), (lambda t: evaluate_map(f, tr(t)))

    return tracks


def _h1_through_h2(f, eps):
    """x -> (f(x), t -> h2(f(x), min(2t, 1))), on the straight line of
    ``family_oracle``: the tracks whose pair loop the h1 row of
    ``_family_controls`` is (``homotopies._h1_column``)."""
    h2 = family_oracle.straightline_homotopy(f.target, eps)

    def tracks(x):
        y = evaluate_map(f, x)
        tr = h2.track(y)
        return (lambda t: y), (lambda t: tr(min(2.0 * t, 1.0)))

    return tracks


def _assert_h1_rows_match_the_pair_loop(f, fam, eps, pts, times, monkeypatch):
    """The h1 row of ``_family_controls``, and each point's sup, witness time
    and pair count in the family's memo, equal the memo-free pair loop on
    (f(x), h2(f(x), min(2t, 1))); returns the number of rows that took the
    scalar branch (one ``distance`` each)."""
    from plcontrol import homotopies
    from plcontrol.homotopies import _family_controls

    tracks = _h1_through_h2(f, eps)
    want = control_oracle.sampled_sup(f.target, pts, times, tracks)
    scalar = []
    real = homotopies.distance

    def spy(*args):
        scalar.append(args)
        return real(*args)

    closures = fam.at(eps)
    assert isinstance(closures[1], homotopies._H1)
    with monkeypatch.context() as m:
        m.setattr(homotopies, "distance", spy)
        rep = _family_controls(fam, eps, closures, [], pts, times)["h1"]
    assert (rep.measured_control, rep.witness, rep.samples) == want
    for x, (best, arg, n) in fam._sups["h1", eps, times].items():
        assert (best, (x, arg), n) == control_oracle.sampled_sup(f.target, [x], times, tracks)
    return len(scalar)


def _tetrahedron_onto_edge():
    """Three vertices of a tetrahedron onto one end of an edge: three source
    coordinates add into one image coordinate, so the order of that sum
    shows in the rounding."""
    from plcontrol import SimplicialMap

    T = closure_complex([("a", "b", "c", "d")])
    E = closure_complex([("a", "b")])
    return SimplicialMap(T, E, {"a": "a", "b": "b", "c": "b", "d": "b"})


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "tetrahedron_onto_edge"])
def test_h1_rows_match_the_pair_loop(name, monkeypatch):
    """At every schedule eps and every assembly eps of a default verify, on
    its X samples and on points with one coordinate just above TOL, some of
    whose rows take the scalar branch."""
    from plcontrol import assemble_bounded_equivalence
    from plcontrol.cone import TIME_STEPS

    f = _tetrahedron_onto_edge() if name == "tetrahedron_onto_edge" else getattr(fixtures, name)()
    times = tuple(map(float, np.linspace(0.0, 1.0, TIME_STEPS)))
    pts = sample_points(f.source, 40, seed=0) + sample_points(f.source, 40, seed=1) + _near_boundary_points(f.source)
    data = assemble_bounded_equivalence(f, build_family(f), samples=40, seed=0)
    scalar = 0
    for eps in epsilon_schedule(f.target) + [data._eps_at(t) for t in data.t_grid]:
        n = _assert_h1_rows_match_the_pair_loop(f, build_family(f), eps, pts, times, monkeypatch)
        assert n < len(set(pts)) * len(times)
        scalar += n
    assert scalar > 0


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_h1_rows_match_the_pair_loop_on_random_maps(f, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            fam = build_family(f)
        except CannotConstructError:
            return
        times = tuple(map(float, np.linspace(0.0, 1.0, 9)))
        pts = sample_points(f.source, 12, seed=seed) + _near_boundary_points(f.source)
        for eps in epsilon_schedule(f.target, steps=3):
            _assert_h1_rows_match_the_pair_loop(f, fam, eps, pts, times, monkeypatch)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_h1_and_h2_rows_on_degenerate_time_grids(name):
    """An empty grid, a single time, and an unsorted grid with a repeat: h1
    through f (the pair loop on its own tracks) and the array row of h2
    give the pair loop's sup, witness and pair count, through
    ``measure_control`` and ``_control_report``, and so does the h1 row of
    ``_family_controls``, read off h2 at min(2t, 1)."""
    from plcontrol.homotopies import _control_report, _family_controls

    f = getattr(fixtures, name)()
    fam = build_family(f)
    eps = fam.effective_comesh / 2.0
    _, h1, h2 = fam.at(eps)
    old_h2 = family_oracle.straightline_homotopy(f.target, eps)
    rows = (
        (h1, f, _oracle_h1_tracks(f, fam, eps)),
        (h2, None, lambda z: ((lambda t: z), old_h2.track(z))),
    )
    for u, p, tracks in rows:
        for steps in (0, 1):
            rep = measure_control(u, p, p, samples=8, time_steps=steps)
            pts = sample_points(u.domain, 8)
            want = control_oracle.sampled_sup(f.target, pts, np.linspace(0.0, 1.0, steps), tracks)
            assert (rep.measured_control, rep.witness, rep.samples) == want
        pts = sample_points(u.domain, 8) + _near_boundary_points(u.domain)
        times = [1.0, 0.25, 0.75, 0.5, 0.0, 0.75]
        rep = _control_report(u, p, p, pts, times, eps)
        assert (rep.measured_control, rep.witness, rep.samples) == control_oracle.sampled_sup(
            f.target, pts, times, tracks
        )
    pts = sample_points(f.source, 8) + _near_boundary_points(f.source)
    for times in ((), (0.0,), (1.0, 0.25, 0.75, 0.5, 0.0, 0.75)):
        rep = _family_controls(fam, eps, fam.at(eps), [], pts, times)["h1"]
        want = control_oracle.sampled_sup(f.target, pts, times, _h1_through_h2(f, eps))
        assert (rep.measured_control, rep.witness, rep.samples) == want


def test_h1_row_reads_its_track_when_track_is_wrapped(monkeypatch):
    """``Homotopy.track``'s result may be wrapped into a plain callable, as a
    tracer that times track evaluations does; the group pass of the h1
    identities reads the state of the track its factory builds, so their
    tables stay the pair loop's, and the h1 row, read off h2, stays the
    pair loop's on (f(x), h2(f(x), min(2t, 1)))."""
    from plcontrol.homotopies import _family_controls

    f = fixtures.map_collapse()
    fam = build_family(f)
    eps = fam.effective_comesh / 2.0
    pts = sample_points(f.source, 10, seed=0) + _near_boundary_points(f.source)
    times = tuple(map(float, np.linspace(0.0, 1.0, 9)))
    want = control_oracle.sampled_sup(f.target, pts, times, _h1_through_h2(f, eps))
    real = Homotopy.track
    monkeypatch.setattr(Homotopy, "track", lambda self, p: (lambda t, tr=real(self, p): tr(t)))
    closures = fam.at(eps)
    rep = _family_controls(fam, eps, closures, [], pts, times)["h1"]
    assert (rep.measured_control, rep.witness, rep.samples) == want
    _assert_identity_tables_match_the_pair_loop(f, closures, pts)


def test_h1_row_of_another_trivialization_takes_the_pair_loop():
    """The h1 row is read off h2 only when gamma joins in f's own join
    coordinates, whose round trip the product certificate checks, so a
    family whose gamma uses another product structure is measured by the
    pair loop on h1's own tracks."""
    from plcontrol.homotopies import _family_controls, _joins

    fam = fixtures.proj_explicit_family()
    f = fam.f
    eps = fam.effective_comesh / 2.0
    closures = fam.at(eps)
    assert not _joins(fam.gamma)
    pts = sample_points(f.source, 10, seed=0)
    times = tuple(map(float, np.linspace(0.0, 1.0, 9)))
    want = control_oracle.sampled_sup(f.target, pts, times, _oracle_h1_tracks(f, fam, eps))
    rep = _family_controls(fam, eps, closures, [], pts, times)["h1"]
    assert (rep.measured_control, rep.witness, rep.samples) == want


# -- the h1 row read off h2, per point, against the per-point oracle ------------------

# no time, time 0 alone, a grid with 1/2 and one without it
H1_GRIDS = ((), (0.0,), tuple(map(float, np.linspace(0.0, 1.0, 9))), tuple(map(float, np.linspace(0.0, 1.0, 8))))


def _assert_h1_row_matches_the_per_point_oracle(fam, eps, xs, times):
    """The h1 row's table (``homotopies._h1_column``), filled for all of xs
    and for each x alone, gives every x the (sup, t, pairs) of the pair
    loop on (f(x), h2(f(x), min(2t, 1))), and the row of
    ``_family_controls`` its (sup, witness, pairs), byte for byte:
    ``repr`` writes a float exactly, with its sign."""
    from plcontrol.homotopies import _family_controls, _h1_column, _pair_sups

    f, closures = fam.f, fam.at(eps)
    got, h2 = {}, closures[2]
    _h1_column(fam.gamma, h2, xs, times, got)
    assert set(got) == set(xs)
    want = _pair_sups(f.target, xs, times, _h1_through_h2(f, eps))
    for x in xs:
        alone = {}
        _h1_column(fam.gamma, h2, [x], times, alone)
        assert repr(got[x]) == repr(alone[x]) == repr(want[x])
    rep = _family_controls(fam, eps, closures, [], xs, times)["h1"]
    assert repr((rep.measured_control, rep.witness, rep.samples)) == repr(control_oracle.fold_sup(xs, want.__getitem__, None))


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "tetrahedron_onto_edge"])
def test_h1_row_per_carrier_matches_the_per_point_oracle(name, monkeypatch):
    """At every schedule eps, on X samples and on points with one
    coordinate just above TOL, some of whose h2 rows take the scalar path
    (one ``distance`` each), the h1 row is the per-point oracle's on every
    grid of ``H1_GRIDS``.  The group pass of the h1 identities, which still
    runs per carrier, groups the points by a maximal simplex of Y over
    f(x)'s carrier, and some asserted group spans two or more carriers."""
    from plcontrol import homotopies

    f = _tetrahedron_onto_edge() if name == "tetrahedron_onto_edge" else getattr(fixtures, name)()
    fam = build_family(f)
    pts = sample_points(f.source, 40, seed=0) + _near_boundary_points(f.source)
    scalar, walks = [], []
    real, real_walk = homotopies.distance, homotopies._maximal_over
    monkeypatch.setattr(homotopies, "distance", lambda *args: scalar.append(args) or real(*args))
    monkeypatch.setattr(homotopies, "_maximal_over", lambda K, sigma: walks.append((sigma, real_walk(K, sigma))) or walks[-1][1])
    for eps in epsilon_schedule(f.target):
        for times in H1_GRIDS:
            _assert_h1_row_matches_the_per_point_oracle(fam, eps, pts, times)
    assert scalar
    for eps in epsilon_schedule(f.target)[:2]:
        _assert_identity_tables_match_the_pair_loop(f, fam.at(eps), pts)
    spans = {}
    for sigma, tau in walks:
        assert sigma <= tau and tau in f.target.maximal_simplices()
        spans.setdefault(tau, set()).add(sigma)
    assert max(map(len, spans.values())) >= 2


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_h1_row_per_carrier_matches_the_per_point_oracle_on_random_maps(f, seed):
    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    pts = sample_points(f.source, 12, seed=seed) + _near_boundary_points(f.source)
    for eps in epsilon_schedule(f.target, steps=3):
        for times in H1_GRIDS:
            _assert_h1_row_matches_the_per_point_oracle(fam, eps, pts, times)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)"])
def test_h1_row_per_carrier_matches_the_per_point_oracle_on_default_verifies(name, monkeypatch):
    """Every h1 row of a default seed-0 verify, at each of its 13 eps: each
    point's (sup, t, pairs) in the family's memo is the pair loop's on (f(x),
    h2(f(x), min(2t, 1))), and the row's (sup, witness, pairs) their fold,
    byte for byte."""
    from plcontrol import homotopies, run_verify
    from plcontrol.homotopies import _pair_sups
    from plcontrol.verify import THEOREM_CONSISTENT

    f = load_script("ladder").inputs.prism_map(1) if name == "Prism(1)" else fresh(getattr(fixtures, name)())
    real = homotopies._control_report
    measured = []

    def both(u, p, q, points, times, eps, memo=None):
        rep = real(u, p, q, points, times, eps, memo)
        if isinstance(u, homotopies._H1):
            want = _pair_sups(f.target, points, times, _h1_through_h2(f, eps))
            assert all(repr(memo[x]) == repr(want[x]) for x in points)
            fold = control_oracle.fold_sup(points, want.__getitem__, None)
            assert repr((rep.measured_control, rep.witness, rep.samples)) == repr(fold)
            measured.append(eps)
        return rep

    monkeypatch.setattr(homotopies, "_control_report", both)
    assert run_verify(f).overall == THEOREM_CONSISTENT
    assert len(set(measured)) == 13


def _h1_maps():
    return {
        "proj_map": lambda: fresh(fixtures.proj_map()),
        "map_collapse": lambda: fresh(fixtures.map_collapse()),
        "Prism(1)": lambda: load_script("ladder").inputs.prism_map(1),
    }


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)"])
def test_h1_row_read_off_h2_equals_h1_measured_on_its_own_tracks(name):
    """The independent check of the h1 row: ``measure_control(h1, f, f)``,
    which is ``_control_report`` on h1 with no memo, measures h1 itself
    with one ``distance`` per pair on its own tracks.  At every schedule
    eps, every point's sup and the row's sup lie within 1e-12 of the h1 row
    of ``family_controls``, read off h2, with the same pair counts."""
    from plcontrol.homotopies import _control_report, family_controls

    f = _h1_maps()[name]()
    fam = build_family(f)
    pts_x, times = sample_points(f.source, 40, seed=0), tuple(np.linspace(0.0, 1.0, 33).tolist())
    for eps in epsilon_schedule(f.target):
        own = {}
        rep = _control_report(fam.at(eps)[1], f, f, pts_x, times, eps, own)
        row = family_controls(fam, eps, [], pts_x, times)["h1"]
        read = fam._sups["h1", eps, times]
        assert all(abs(own[x][0] - read[x][0]) <= 1e-12 and own[x][2] == read[x][2] for x in pts_x)
        assert abs(rep.measured_control - row.measured_control) <= 1e-12 and rep.samples == row.samples
    assert repr(measure_control(fam.at(eps)[1], f, f, samples=40, epsilon_target=eps)) == repr(rep)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)"])
def test_h1_identities_hold_at_every_schedule_eps(name):
    """The two h1 identity tables, on which the h1 row read off h2 rests,
    read at most 1e-12 at every schedule eps, not only at the comesh/2 of
    ``verify``, on X samples and on points with one coordinate just above
    TOL."""
    f = _h1_maps()[name]()
    fam = build_family(f)
    xs = sample_points(f.source, 40, seed=0) + _near_boundary_points(f.source)
    for eps in epsilon_schedule(f.target):
        for table in fam.at(eps)[1].identity_sups(xs, IDENTITY_TIMES):
            assert set(table) == set(xs) and max(best for best, _, _ in table.values()) <= 1e-12


# -- the two h1 identities off the h1 group pass against the scalar pair loop ---------

IDENTITY_TIMES = tuple(np.linspace(0.0, 1.0, 9).tolist())


def _assert_identity_tables_match_the_pair_loop(f, closures, xs):
    """``h1.identity_sups`` gives, for every x, the (sup, t, pairs) of the
    scalar pair loop over the moved ``first_half`` and ``second_half``
    tracks, byte for byte (``repr`` writes a float exactly)."""
    from plcontrol.homotopies import _pair_sups

    _, h1, h2 = closures
    got = h1.identity_sups(xs, IDENTITY_TIMES)
    x_tracks = [(x, h1.track(x)) for x in dict.fromkeys(xs)]
    for table, tracks in zip(got, control_oracle.h1_identity_tracks(f, h2)):
        want = _pair_sups(f.target, x_tracks, IDENTITY_TIMES, tracks)
        assert set(table) == set(xs)
        for x, tr in x_tracks:
            assert repr(table[x]) == repr(want[x, tr])


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)", "D_3"])
def test_h1_identity_tables_match_the_pair_loop(name, monkeypatch):
    """At comesh/2 and every schedule eps, on two sample sets and on points
    with one coordinate just above TOL; some pairs take ``distance``."""
    from plcontrol import homotopies

    ladder = load_script("ladder")
    makers = {"Prism(1)": lambda: ladder.inputs.prism_map(1), "D_3": lambda: ladder.simplex_prism(3)}
    f = makers[name]() if name in makers else getattr(fixtures, name)()
    fam = build_family(f)
    scalar = []
    real = homotopies.distance
    monkeypatch.setattr(homotopies, "distance", lambda *args: scalar.append(args) or real(*args))
    for eps in [fam.effective_comesh / 2.0, *epsilon_schedule(f.target)]:
        closures = fam.at(eps)
        for seed in (0, 1):
            xs = sample_points(f.source, 30, seed=seed) + _near_boundary_points(f.source)
            _assert_identity_tables_match_the_pair_loop(f, closures, xs)
    assert scalar


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_h1_identity_tables_match_the_pair_loop_on_random_maps(f, seed):
    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    xs = sample_points(f.source, 12, seed=seed) + _near_boundary_points(f.source)
    for eps in epsilon_schedule(f.target, steps=3):
        _assert_identity_tables_match_the_pair_loop(f, fam.at(eps), xs)


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)"])
def test_identity_checks_match_the_scalar_oracle_on_default_verifies(name, monkeypatch):
    """The identity lines of a default seed-0 verify are the scalar
    ``_identity_checks``'s, value for value."""
    from plcontrol import run_verify, verify
    from plcontrol.verify import THEOREM_CONSISTENT

    f = load_script("ladder").inputs.prism_map(1) if name == "Prism(1)" else fresh(getattr(fixtures, name)())
    real, seen = verify._identity_checks, []

    def both(f, closures, samples, seed):
        got = real(f, closures, samples, seed)
        want = control_oracle.identity_checks_on(f, closures, samples, seed)
        assert repr(got) == repr(want)
        seen.append(got)
        return got

    monkeypatch.setattr(verify, "_identity_checks", both)
    assert run_verify(f).overall == THEOREM_CONSISTENT
    assert len(seen) == 1


# -- one reduction per group pass against the per-point reductions ---------------------

def _check_tables_against_the_per_point_oracle(monkeypatch, checked):
    """From here on, every per-point table of h2's ``sup_ats`` and both of
    h1's ``identity_sups`` is compared by ``repr`` (which writes a
    float exactly) with ``reduction_oracle``'s on the same points and
    times; ``checked`` collects the name of each table compared."""
    from plcontrol import homotopies

    for cls, name, oracle in (
        (homotopies._StraightLine, "sup_ats", reduction_oracle.h2_sups),
        (homotopies._H1, "identity_sups", reduction_oracle.identity_sups),
    ):
        def both(u, points, times, real=getattr(cls, name), oracle=oracle, name=f"{cls.__name__}.{name}"):
            got = real(u, points, times)
            assert repr(got) == repr(oracle(u, points, times)), name
            checked.append(name)
            return got

        monkeypatch.setattr(cls, name, both)


def _force_fast_off(monkeypatch):
    """Mark no row fast: every distance of the tables takes its pair."""
    from plcontrol import homotopies

    real = homotopies._joined_image_rows
    monkeypatch.setattr(homotopies, "_canonical_rows", lambda rows: np.zeros(len(rows), dtype=bool))
    monkeypatch.setattr(homotopies, "_joined_image_rows", lambda *args: (real(*args)[0], np.zeros(len(args[2]), dtype=bool)))


@pytest.mark.parametrize("name, fast", [
    ("proj_map", True), ("map_collapse", True), ("Prism(1)", True), ("D_3", True), ("D_4", True), ("map_collapse", False),
])
def test_group_reduction_matches_the_per_point_oracle_on_default_verifies(name, fast, monkeypatch):
    """Every table of the h2 row (which the h1 row reads too) and of the two
    h1 identities of a default seed-0 verify is the per-point reductions', byte for byte; with
    ``fast`` off, no row is marked fast (``_force_fast_off``)."""
    from plcontrol import run_verify
    from plcontrol.verify import THEOREM_CONSISTENT

    ladder = load_script("ladder")
    makers = {"Prism(1)": lambda: ladder.inputs.prism_map(1), "D_3": lambda: ladder.simplex_prism(3),
              "D_4": lambda: ladder.simplex_prism(4)}
    f = makers[name]() if name in makers else fresh(getattr(fixtures, name)())
    checked = []
    if not fast:
        _force_fast_off(monkeypatch)
    _check_tables_against_the_per_point_oracle(monkeypatch, checked)
    assert run_verify(f).overall == THEOREM_CONSISTENT
    assert set(checked) == {"_StraightLine.sup_ats", "_H1.identity_sups"}


@given(random_simplicial_maps(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=15, deadline=None)
def test_group_reduction_matches_the_per_point_oracle_on_random_maps(f, seed, fast):
    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        if not fast:
            _force_fast_off(monkeypatch)
        _check_tables_against_the_per_point_oracle(monkeypatch, [])
        xs = sample_points(f.source, 12, seed=seed) + _near_boundary_points(f.source)
        ys = sample_points(f.target, 12, seed=seed) + _near_boundary_points(f.target)
        for eps in epsilon_schedule(f.target, steps=3):
            _, h1, h2 = fam.at(eps)
            for times in H1_GRIDS:
                h2.sup_ats(ys, times)
            h1.identity_sups(xs, IDENTITY_TIMES)


@given(st.lists(st.integers(1, 5), max_size=6), st.integers(0, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_group_reduction_matches_the_per_point_one_on_edge_groups(widths, n, seed):
    """Points of mixed widths, in one block per width whose points are not
    consecutive, with repeated rows, all-zero rows and points, pairs that
    equal a fast row's norm, and empty grids: each point's (sup, first t,
    pairs) is ``_diff_sup``'s alone, byte for byte, an exact tie goes to the
    first t, and an empty grid gives (0.0, None, 0)."""
    from plcontrol.metrics import _row_sups

    rng = np.random.default_rng(seed)
    times = tuple(np.linspace(0.0, 1.0, n).tolist())
    diffs, fast, pairs = [], [], []
    for w in widths:
        d = rng.uniform(-1.0, 1.0, (n, w)) * 10.0 ** rng.uniform(-8.0, 1.0, (n, 1))
        if n:
            d[rng.integers(n, size=n // 2)] = d[rng.integers(n)]
            d[rng.integers(n)] = 0.0
        if rng.random() < 0.2:
            d[:] = 0.0
        norms = [math.sqrt(row.dot(row)) for row in d]
        diffs.append(d)
        fast.append(rng.random(n) < 0.7)
        pairs.append([norm if rng.random() < 0.5 else float(rng.uniform(0.0, 3.0)) for norm in norms])
    blocks = [(ps, np.stack([diffs[p] for p in ps]), np.array([fast[p] for p in ps]))
              for w in dict.fromkeys(reversed(widths)) for ps in [[p for p, v in enumerate(widths) if v == w]]]
    got = _row_sups(times, blocks, lambda p, k: pairs[p][k])
    want = [reduction_oracle._diff_sup(times, d, m, pr.__getitem__) for d, m, pr in zip(diffs, fast, pairs)]
    assert repr(got) == repr(want)
    for (best, arg, count), d, m, pr in zip(got, diffs, fast, pairs):
        dists = [math.sqrt(row.dot(row)) if ok else pair for row, ok, pair in zip(d, m, pr)]
        assert (best, arg, count) == ((max(dists), times[dists.index(max(dists))], n) if n else (0.0, None, 0))


# -- h1's start-ups and g's table against the per-point oracles -------------------------

def _late_reads(second, late):
    """The points h1's second half reads off a start-up (ybar, its two fiber
    tracks) at the times ``late`` > 1/2, with the tracks' start points
    w_a and w_b, as one ``repr``, which writes a float exactly."""
    ybar, tr_a, tr_b = second
    reads = [tr_a(2.0 * (2.0 * time - 1.0)) if time <= 0.75 else tr_b(2.0 - 2.0 * (2.0 * time - 1.0)) for time in late]
    return repr((ybar, tr_a(0.0), tr_b(0.0), reads))


def _assert_start_ups_and_g_table_match_the_oracles(f, fam, eps, xs, ys):
    """At one ``fam.at(eps)``: the start-up of every track of h1's group
    pass, and of a lone track, reads what the per-track oracle reads; the
    g row's per-point table is the oracle pair loop's; and the g table's
    f(g_eps(y)) and g_eps(y) itself are the scalar ones, all byte for
    byte.  Returns the number of tracks checked and the g table."""
    g, h1, _ = fam.at(eps)
    times = tuple(np.linspace(0.0, 1.0, 17).tolist())
    late = [time for time in times if time > 0.5]
    tracks = {x: tr for group, trs, *_ in h1._passes(xs, times) for x, tr in zip(group, trs)}
    for x, tr in tracks.items():
        want = _late_reads(start_oracle.second(h1.track_factory(x)), late)
        assert _late_reads(tr.second, late) == _late_reads(h1.track_factory(x).second, late) == want
    got = g.sup_ats(ys, (0.0,))
    assert repr(got) == repr(start_oracle.g_sups(f, fam.gamma, g.view, ys, (0.0,)))
    table = g.view.g_table(fam.gamma, ys)
    for y, entry in table.items():
        cell, (s, t) = g.view.locate(y)
        x = fam.gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)
        assert repr((entry[2](), g(y))) == repr((evaluate_map(f, x), x))
    return len(tracks), table


def _start_maps():
    ladder = load_script("ladder")
    return {
        "proj_map": lambda: fresh(fixtures.proj_map()),
        "map_collapse": lambda: fresh(fixtures.map_collapse()),
        "Prism(1)": lambda: ladder.inputs.prism_map(1),
        "D_3": lambda: ladder.simplex_prism(3),
        "D_4": lambda: ladder.simplex_prism(4),
    }


@pytest.mark.parametrize("name", ["proj_map", "map_collapse", "Prism(1)", "D_3", "D_4"])
def test_start_ups_and_g_table_match_the_per_point_oracles(name, monkeypatch):
    """At comesh/2 and comesh/8, on X and Y samples and on points with one
    coordinate just above TOL; every call of the join→image kernel
    reproduces rows, and the g table holds every point h1 started up
    from.  A lone track whose f(x) the g table holds starts up without
    the kernel."""
    from plcontrol import homotopies

    f = _start_maps()[name]()
    fam = build_family(f)
    rows = []
    real = homotopies._joined_image_rows
    monkeypatch.setattr(homotopies, "_joined_image_rows", lambda *args: rows.append(out := real(*args)) or out)
    for eps in (fam.effective_comesh / 2.0, fam.effective_comesh / 8.0):
        xs = sample_points(f.source, 30, seed=0) + _near_boundary_points(f.source)
        ys = sample_points(f.target, 60, seed=0) + _near_boundary_points(f.target)
        n_tracks, table = _assert_start_ups_and_g_table_match_the_oracles(f, fam, eps, xs, ys)
        assert n_tracks == len(set(xs)) and len(table) >= len(set(ys))
    assert rows and all(row[1].any() for row in rows)
    _, h1, _ = fam.at(fam.effective_comesh / 2.0)
    tr = h1.track_factory(xs[0])
    h1.view.g_table(fam.gamma, (tr.y,))
    kernel_calls = len(rows)
    assert tr.second and len(rows) == kernel_calls


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_start_ups_and_g_table_match_the_per_point_oracles_on_random_maps(f, seed):
    try:
        fam = build_family(f)
    except CannotConstructError:
        return
    xs = sample_points(f.source, 12, seed=seed) + _near_boundary_points(f.source)
    ys = sample_points(f.target, 12, seed=seed) + _near_boundary_points(f.target)
    for eps in epsilon_schedule(f.target, steps=3):
        _assert_start_ups_and_g_table_match_the_oracles(f, fam, eps, xs, ys)


@pytest.mark.parametrize("name", ["map_collapse", "D_3"])
def test_start_ups_and_g_table_rows_the_kernel_does_not_reproduce_take_the_scalar_path(name, monkeypatch):
    """With no row marked fast (``_force_fast_off``), each g table entry
    takes the scalar join and image (and the g row ``distance``), and each
    start-up and entry reads what the oracles read."""
    _force_fast_off(monkeypatch)
    f = _start_maps()[name]()
    fam = build_family(f)
    xs = sample_points(f.source, 20, seed=0) + _near_boundary_points(f.source)
    ys = sample_points(f.target, 20, seed=0) + _near_boundary_points(f.target)
    assert _assert_start_ups_and_g_table_match_the_oracles(f, fam, fam.effective_comesh / 4.0, xs, ys)[0] > 0


def test_start_ups_and_g_table_of_another_trivialization_take_the_scalar_path(monkeypatch):
    """gamma of the worked example joins by heights, not in f's join
    coordinates: every start-up and g table entry reads what the oracles
    read, and a fill of that g table's points reads no kernel."""
    from plcontrol import homotopies

    fam = fixtures.proj_explicit_family()
    f = fam.f
    xs, ys = sample_points(f.source, 10, seed=0), sample_points(f.target, 10, seed=0)
    n_tracks, table = _assert_start_ups_and_g_table_match_the_oracles(f, fam, fam.effective_comesh / 2.0, xs, ys)
    monkeypatch.setattr(homotopies, "_joined_image_rows", lambda *args: pytest.fail("read the kernel"))
    g, _, _ = fam.at(fam.effective_comesh / 2.0)
    assert n_tracks > 0 and len(g.view.g_table(fam.gamma, list(table))) == len(table)


def test_h1_identities_of_another_trivialization_are_the_all_scalar_ones(monkeypatch):
    """gamma of the worked example joins by heights: at comesh/2 both h1
    identity tables of its group pass read no row kernel and equal, bit for
    bit, the same call with no row marked fast (``_force_fast_off``)."""
    from plcontrol import homotopies

    def tables():
        fam = fixtures.proj_explicit_family()
        _, h1, _ = fam.at(fam.effective_comesh / 2.0)
        return h1.identity_sups(sample_points(fam.f.source, 30, seed=1), IDENTITY_TIMES)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopies, "_joined_image_rows", lambda *args: pytest.fail("read the kernel"))
        got = tables()
    _force_fast_off(monkeypatch)
    assert repr(got) == repr(tables())


def test_one_at_evaluates_gamma_once_per_located_point(PROJ, monkeypatch):
    """One ``family.at(eps)`` of proj_map evaluates gamma (a top-level
    ``FlagMap.gamma_chain`` call) once per distinct point it locates for
    g: the g row's samples, the g identity's and the y = f(x) of every h1
    track whose second half starts up for the h1 identities.  The h1 row
    reads h2, so its points start nothing up."""
    from plcontrol import homotopies, verify
    from plcontrol.homotopies import FlagMap, _family_controls

    f = PROJ
    fam = build_family(f)
    eps = fam.effective_comesh / 2.0
    calls, depth = [], [0]
    real = FlagMap.gamma_chain

    def gamma_chain(gamma, chain, t):
        if not depth[0]:
            calls.append(chain)
        depth[0] += 1
        try:
            return real(gamma, chain, t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FlagMap, "gamma_chain", gamma_chain)
    closures = fam.at(eps)
    pts_y, pts_x = sample_points(f.target, 120, seed=0), sample_points(f.source, 40, seed=0)
    _family_controls(fam, eps, closures, pts_y, pts_x, np.linspace(0.0, 1.0, 17))
    verify._identity_checks(f, closures, samples=120, seed=0)
    located = set(pts_y) | set(sample_points(f.target, 60, seed=0))
    located |= {fam.gamma.split(x)[1] for x in sample_points(f.source, 60, seed=1)}
    assert isinstance(closures[0], homotopies._GInverse)
    assert len(calls) == len(located) == len(closures[0].view._g)


def test_sample_points_drawn_in_a_vertex_are_its_point():
    """A point drawn in a 0-dimensional maximal simplex is that vertex's
    point (the Dirichlet draw over one weight may read 1 - 2**-53), alone
    and beside an edge; every draw keeps its place in the random stream,
    so the edge's draws keep their bits."""
    K = closure_complex([("z",)])
    z = vertex_point(K, "z")
    pts = sample_points(K, 40, subdivision_rounds=0)
    assert len(pts) == 41 and all(p == z and p.coords == (1.0,) for p in pts)
    K = closure_complex([("a", "b"), ("z",)])
    z = vertex_point(K, "z")
    pts = sample_points(K, 60, seed=1, subdivision_rounds=0)
    rng, maxs = np.random.default_rng(1), K.maximal_simplices()
    drawn = []
    for p in pts[3:]:
        s = maxs[int(rng.integers(len(maxs)))]
        w = tuple(rng.dirichlet(np.ones(len(s.vertices))))
        drawn.append(s.dim)
        assert p == (z if s.dim == 0 else canonical(K, Point(s, w)))
    assert len(pts) == 63 and 0 in drawn and 1 in drawn


def test_sampling_counts_below_zero_raise_typed_errors():
    """A negative subdivision round count sampled as if it were 0, and a
    negative time step count escaped as numpy's untyped ``ValueError``
    (from ``measure_control``, ``lift_discrepancy`` and the assembly): all
    are refused as malformed input."""
    from plcontrol import MalformedInputError, assemble_bounded_equivalence, straightline_homotopy
    from plcontrol.homotopies import effective_comesh

    D2 = fixtures.d2()
    with pytest.raises(MalformedInputError, match="^subdivision_rounds must be >= 0, got -3$"):
        sample_points(D2, 0, subdivision_rounds=-3)
    with pytest.raises(MalformedInputError, match="^time_steps must be >= 0, got -1$"):
        measure_control(straightline_homotopy(D2, effective_comesh(D2) / 2.0), time_steps=-1)
    f = fixtures.map_collapse()
    fam = build_family(f)
    H = _point_track(f.target, [vertex_point(f.target, "a"), vertex_point(f.target, "b")])
    x0 = vertex_point(f.source, "a")
    lifted = approximate_lift(f, fam, H, PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0), 0.1)
    with pytest.raises(MalformedInputError, match="^time_steps must be >= 0, got -1$"):
        lift_discrepancy(f, H, lifted, time_steps=-1)
    with pytest.raises(MalformedInputError, match="^time_steps must be >= 0, got -1$"):
        assemble_bounded_equivalence(f, fam, time_steps=-1)


def test_canonical_rows_sum_in_pythons_order():
    """Rows whose sum lies within rounding of the 1e-12 bound: the test
    agrees with ``canonical`` on each, including rows on which a sum in
    another order would land on the other side of the bound."""
    from plcontrol.complexes import _canonical_rows

    K = closure_complex([("a", "b", "c", "d")])
    top = K.maximal_simplices()[0]
    rng = np.random.default_rng(3)
    rows = []
    while len(rows) < 40:
        w = rng.dirichlet(np.ones(4))
        total = 1.0 + rng.choice([-1.0, 1.0]) * (1e-12 + rng.uniform(-4e-16, 4e-16))
        row = [float(c) for c in w / w.sum() * total]
        if (abs(sum(row) - 1.0) <= 1e-12) != (abs(sum(row[::-1]) - 1.0) <= 1e-12):
            rows.append(row)
    rows += [[0.25] * 4, [0.5, 0.5, 1e-9, 0.0], [0.5, 0.5 - 2e-9, 2e-9, 0.0]]
    got = _canonical_rows(np.array(rows))
    for row, ok in zip(rows, got):
        p = Point(top, tuple(row))
        assert ok == (canonical(K, p) is p)
