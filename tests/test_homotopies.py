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
    ev = PLEvaluator(domain=D2, codomain=D2, fn=lambda p: p, name="id")
    rep = measure_control(ev, None, None, samples=60)
    assert rep.measured_control == 0.0
    assert rep.samples > 60


def test_measure_control_constant_shift(D1):
    """A toy evaluator shifting points 0.3 along the edge measures 0.3."""
    shift = 0.3 / math.sqrt(2.0)  # metric length 0.3 in coordinate units

    def fn(p):
        b = min(1.0, p.coord_of("b") + shift)
        return make_point(D1, {"a": 1.0 - b, "b": b}, tol=-1.0) if b < 1.0 else vertex_point(D1, "b")

    ev = PLEvaluator(domain=D1, codomain=D1, fn=fn, name="shift")
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

    return Homotopy(domain=Z, codomain=Y, fn=fn, name="track")


def test_lift_constant_homotopy(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    fam = build_family(f)
    Y = f.target
    y0 = make_point(Y, {"a": 0.4, "b": 0.6})
    H = _point_track(Y, [y0, y0])
    x0 = make_point(f.source, {"a": 0.4, "b": 0.3, "c": 0.3})
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0, name="start")
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
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0, name="start")
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
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x_bad, name="bad")
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
        w = z.coord_of("q")
        target = combine_points(Y, [(1.0 - w, vertex_point(Y, "a")), (w, b_half)])
        start = combine_points(Y, [(1.0 - w, vertex_point(Y, "a")), (w, vertex_point(Y, "b"))])
        return combine_points(Y, [(1.0 - t, start), (t, target)])

    H = Homotopy(domain=Z, codomain=Y, fn=H_fn, name="edge slide")

    def h_fn(z):
        w = z.coord_of("q")
        return canonical(
            X, combine_points(X, [(1.0 - w, vertex_point(X, "a")), (w, vertex_point(X, "b"))])
        )

    return H, PLEvaluator(domain=Z, codomain=X, fn=h_fn, name="initial")


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
def random_simplicial_maps(draw):
    """Random source complex with a random vertex identification; the target
    is the image complex, so the map is simplicial and surjective by
    construction."""
    from plcontrol import SimplicialMap

    labels = "abcdef"
    gens = draw(
        st.lists(
            st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    src = closure_complex([tuple(g) for g in gens])
    targets = ["u", "v", "w"]
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
    """Bit-identical sups at comesh/2 and at every eps of the assembly."""
    from plcontrol import assemble_bounded_equivalence
    from plcontrol.cone import _slice_controls
    from plcontrol.verify import _identity_checks

    f = getattr(fixtures, name)()
    fam = build_family(f)
    assert _identity_checks(f, fam, 20, 0) == control_oracle.identity_checks(f, fam, 20, 0)
    data = assemble_bounded_equivalence(f, fam, samples=8, time_steps=9)
    eps_values = {fam.effective_comesh / 2.0} | {data._eps_at(t) for t in data.t_grid if t > 0}
    for eps in sorted(eps_values):
        assert _slice_controls(fam, eps, 8, 0, 9) == control_oracle.slice_controls(fam, eps, 8, 0, 9)
        g, h1, h2 = fam.at(eps)
        for u, p, q in ((g, None, f), (h1, f, f), (h2, None, None)):
            rep = measure_control(u, p, q, samples=8, seed=1, time_steps=9)
            old = control_oracle.measure_control(u, p, q, samples=8, seed=1, time_steps=9)
            assert (rep.measured_control, rep.samples) == old
            assert _witness_distance(u, p, q, rep.witness) == rep.measured_control


def test_lift_discrepancy_matches_the_old_loop(MAP_COLLAPSE):
    f = MAP_COLLAPSE
    H, h = _edge_slide(f)
    lifted = approximate_lift(f, build_family(f), H, h, 0.15, samples=20)
    for samples, steps in ((20, 33), (7, 65)):
        new = lift_discrepancy(f, H, lifted, samples=samples, time_steps=steps)
        assert new == control_oracle.lift_discrepancy(f, H, lifted, samples=samples, time_steps=steps)
        assert new > 0.0
