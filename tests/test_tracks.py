"""A homotopy is its tracks.  The tracks of the collapse contraction, the
star retraction and gamma's fiber contraction against the per-call kernels
they replaced (tests/homotopy_oracle.py), bit for bit; and, for every
homotopy the package builds, H(p, t) equal to H.track(p)(t) and a track that
returns the same point however often and in whatever order it is read."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import homotopy_oracle as oracle
from plcontrol import (
    NotFoundError,
    PLEvaluator,
    Point,
    TrivialFamily,
    approximate_lift,
    build_family,
    build_gamma_map,
    build_star_retraction,
    canonical,
    closure_complex,
    contraction_from_collapse,
    derive_contraction,
    evaluate_map,
    fixtures,
    greedy_collapse,
    load_track,
    make_point,
    sample_points,
    vertex_point,
)
from plcontrol import contract, homotopies
from test_contract import shuffled_closures
from test_homotopies import random_simplicial_maps
from test_point_kernel import bits, outcome
from helpers import coord_of


def step_times(n: int) -> list[float]:
    """Before the start, the start, every step boundary k/n, every midpoint
    between steps, the end and past the end."""
    n = max(n, 1)
    return [-0.5, 0.0, *(k / n for k in range(n + 1)), *((k + 0.5) / n for k in range(n)), 1.0, 1.5]


def points_of(K, rng, count: int) -> list[Point]:
    """Every vertex and ``count`` random points of maximal simplices."""
    maxs = K.maximal_simplices()
    pts = [vertex_point(K, v) for v in K.vertex_order]
    for _ in range(count):
        s = maxs[int(rng.integers(len(maxs)))]
        pts.append(canonical(K, Point(s, tuple(rng.dirichlet(np.ones(len(s.vertices)))))))
    return pts


def assert_tracks_match(H, old, points, times):
    """H's tracks, read forwards and backwards, and H(p, t) all equal the
    per-call kernel ``old(p, t)`` bit for bit (or raise as it does)."""
    for p in points:
        want = [outcome(old, p, t) for t in times]
        if any(w[0] != "ok" for w in want):
            assert [outcome(H, p, t) for t in times] == want
            continue
        expected = [bits(w[1]) for w in want]
        fwd, bwd = H.track(p), H.track(p)
        assert [bits(fwd(t)) for t in times] == expected
        assert [bits(bwd(t)) for t in reversed(times)] == expected[::-1]
        assert [bits(H(p, t)) for t in times] == expected


# -- the collapse contraction --------------------------------------------------------

@st.composite
def collapsible_closures(draw):
    """Cones over random closures: collapsible, with up to 8 vertices."""
    L = draw(shuffled_closures())
    K = closure_complex([s.vertices + ("o",) for s in L.maximal_simplices()])
    seq = greedy_collapse(K)
    assume(seq.complete)  # a greedy collapse can stick on a collapsible complex
    return K, seq


@given(collapsible_closures(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_collapse_contraction_tracks_match_the_replay(Kseq, seed):
    K, seq = Kseq
    C = contraction_from_collapse(K, seq)
    old = oracle.contraction_from_collapse(K, seq)
    assert_tracks_match(C, old, points_of(K, np.random.default_rng(seed), 4), step_times(len(seq.steps)))


def test_a_collapse_track_squashes_as_the_replay_does(monkeypatch):
    """A fresh track read at one time makes the replay's _squash calls in
    the replay's order, and one track read at every time squashes each
    step at most once."""
    real = contract._squash
    calls = []

    def spy(K, p, free, coface):
        calls.append((bits(p), free, coface))
        return real(K, p, free, coface)

    monkeypatch.setattr(contract, "_squash", spy)
    monkeypatch.setattr(oracle, "_squash", spy)
    rng = np.random.default_rng(1)
    for K in (fixtures.d2(), fixtures.cone_bd2()):
        seq = greedy_collapse(K)
        C, old = contraction_from_collapse(K, seq), oracle.contraction_from_collapse(K, seq)
        times = step_times(len(seq.steps))
        for p in points_of(K, rng, 3):
            for t in times:
                calls.clear()
                old(p, t)
                want = list(calls)
                calls.clear()
                C.track(p)(t)
                assert calls == want, t
            calls.clear()
            tr = C.track(p)
            for t in times:
                tr(t)
            assert len(calls) <= len(seq.steps)


FIXTURE_MAPS = {"map_collapse": fixtures.map_collapse, "proj_map": fixtures.proj_map}


@pytest.mark.parametrize("name", sorted(FIXTURE_MAPS))
def test_fiber_tracks_match_the_per_call_kernels(name):
    """On every fiber of the fixture maps: the collapse contraction of the
    fiber's triangulation, and gamma's fiber track and contract_in_fiber at
    the embedded points, against the replay and the locate-per-call kernel."""
    f = FIXTURE_MAPS[name]()
    gamma = build_gamma_map(f)
    rng = np.random.default_rng(5)
    for sigma in f.target.sorted_simplices():
        fiber = gamma.fibers[sigma]
        tri, seq = fiber.triangulation, fiber.verdict.sequence
        times = step_times(len(seq.steps))
        pts = points_of(tri, rng, 6)
        assert_tracks_match(
            gamma.contractions[sigma], oracle.contraction_from_collapse(tri, seq), pts, times
        )
        for p in pts:
            w = fiber.embed(p.carrier.vertices, p.coords)
            expected = [bits(oracle.contract_in_fiber(gamma, sigma, w, t)) for t in times]
            tr = gamma.fiber_track(sigma, w)
            assert [bits(tr(t)) for t in reversed(times)] == expected[::-1]
            assert [bits(gamma.contract_in_fiber(sigma, w, t)) for t in times] == expected


def fiber_points(gamma, sigma, rng, count: int) -> list[Point]:
    """Embedded vertices and random points of the fiber over sigma, each
    also with its coordinates as numpy floats."""
    fiber = gamma.fibers[sigma]
    out = []
    for p in points_of(fiber.triangulation, rng, count):
        w = fiber.embed(p.carrier.vertices, p.coords)
        out += [Point(w.carrier, tuple(map(float, w.coords))), Point(w.carrier, tuple(map(np.float64, w.coords)))]
    return out


def assert_kept_tracks_match(f, rng, count: int):
    """Every fiber of f: the kept track of each (sigma, w), read forwards by
    one caller, backwards by a second caller of an equal w, interleaved
    between the two, and at numpy-float times, equals the per-call track bit
    for bit; every fiber point asked over another target simplex raises
    what the per-call track raises."""
    gamma = build_gamma_map(f)
    sigmas = f.target.sorted_simplices()
    for sigma in sigmas:
        steps = gamma.fibers[sigma].verdict.sequence.steps
        times = step_times(len(steps))
        for w in fiber_points(gamma, sigma, rng, count):
            expected = [bits(oracle.fiber_track(gamma, sigma, w)(t)) for t in times]
            twin = Point(w.carrier, w.coords)
            a, b = gamma.fiber_track(sigma, w), gamma.fiber_track(sigma, twin)
            assert a is b
            got_a, got_b = [], []
            for t, u in zip(times, reversed(times)):
                got_a.append(bits(a(t)))
                got_b.append(bits(b(u)))
            assert got_a == expected and got_b == expected[::-1]
            assert [bits(gamma.contract_in_fiber(sigma, w, t)) for t in reversed(times)] == expected[::-1]
            np_times = [np.float64(t) for t in times]
            assert [bits(a(t)) for t in np_times] == [bits(oracle.fiber_track(gamma, sigma, w)(t)) for t in np_times]
            for tau in sigmas:
                if tau != sigma:
                    want = outcome(oracle.fiber_track, gamma, tau, w)
                    got = outcome(gamma.fiber_track, tau, w)
                    assert got[0] == want[0] and (want[0] == "ok" or got == want)


@pytest.mark.parametrize("name", sorted(FIXTURE_MAPS))
def test_kept_fiber_tracks_match_the_per_call_track(name):
    assert_kept_tracks_match(FIXTURE_MAPS[name](), np.random.default_rng(7), 3)


@given(random_simplicial_maps(), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_kept_fiber_tracks_match_the_per_call_track_on_random_maps(f, seed):
    try:
        assert_kept_tracks_match(f, np.random.default_rng(seed), 2)
    except homotopies.CannotConstructError:
        pass


def test_gamma_locates_each_fiber_point_once(monkeypatch):
    """g and h1 at two eps, each read twice, locate each fiber point once:
    one track per (sigma, w, coordinate types) serves every ``at``."""
    from plcontrol import maps

    located = []
    real = maps.FiberComplex.locate

    def locate(fiber, w, *args):
        located.append((fiber.sigma, w, tuple(map(type, w.coords))))
        return real(fiber, w, *args)

    monkeypatch.setattr(maps.FiberComplex, "locate", locate)
    f = fixtures.map_collapse()
    fam = build_family(f)
    pts_y, pts_x = sample_points(f.target, 30, seed=2), sample_points(f.source, 10, seed=2)
    for eps in (fam.effective_comesh / 2.0, fam.effective_comesh / 4.0) * 2:
        g, h1, _ = fam.at(eps)
        for y in pts_y:
            g(y)
        for x in pts_x:
            tr = h1.track(x)
            for t in np.linspace(0.0, 1.0, 9):
                tr(float(t))
    assert located and len(located) == len(set(located)) == len(fam.gamma._tracks)


# -- the star retraction --------------------------------------------------------------

STAR_TIMES = [-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5]


def collapse_fiber_points(ws):
    """Points of the fiber of map_collapse over the midpoint of {a,b}."""
    X = fixtures.map_collapse().source
    return [canonical(X, make_point(X, {"a": 0.5, "b": 0.5 * (1 - w), "c": 0.5 * w}, tol=-1.0)) for w in ws]


def retraction_cases():
    """(f, family, y, points of the fiber over y), as in the derive_contraction tests."""
    y_ab = make_point(fixtures.d1(), {"a": 0.5, "b": 0.5})
    y_proj = make_point(fixtures.proj_Y(), {"0": 0.4, "e1+e2": 0.6})
    triv = fixtures.proj_trivialization()
    proj_pts = [triv.join(fixtures.proj_fiber_point(y_proj.carrier, h), y_proj) for h in np.linspace(0, 1, 7)]
    return [
        (fixtures.map_collapse(), build_family(fixtures.map_collapse()), y_ab, collapse_fiber_points(np.linspace(0, 1, 7))),
        (fixtures.proj_map(), fixtures.proj_explicit_family(), y_proj, proj_pts),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["map_collapse", "proj_map"])
def test_star_retraction_tracks_match_the_per_call_kernel(case, monkeypatch):
    """At the points derive_contraction hands its retraction: h1 track
    points of the fiber over y."""
    f, fam, y, fiber_pts = retraction_cases()[case]
    seen = []
    real = homotopies.build_star_retraction

    def recording(f_, sigma):
        R = real(f_, sigma)
        factory = R.track_factory

        def track_factory(x):
            seen.append(x)
            return factory(x)

        R.track_factory = track_factory
        return R

    monkeypatch.setattr(homotopies, "build_star_retraction", recording)
    C = derive_contraction(f, y, fam)
    for x in fiber_pts:
        tr = C.track(x)
        for t in np.linspace(0.0, 1.0, 5):
            tr(float(t))
    assert len(seen) > 20
    sigma = canonical(f.target, y).carrier
    R = build_star_retraction(f, sigma)
    old = oracle.build_star_retraction(f, sigma)
    assert_tracks_match(R, old, seen, STAR_TIMES)


def test_star_retractions_match_the_per_call_kernel_everywhere():
    """Over every simplex of the fixture targets, at sample points of the
    whole source: some lie outside the star preimage, where both raise."""
    raised = 0
    for f in (fixtures.map_collapse(), fixtures.proj_map()):
        others = sample_points(f.source, 12, seed=4)
        for sigma in f.target.sorted_simplices():
            old = oracle.build_star_retraction(f, sigma)
            raised += sum(outcome(old, x, 0.5)[0] is NotFoundError for x in others)
            assert_tracks_match(build_star_retraction(f, sigma), old, others, STAR_TIMES)
    assert raised > 0


# -- one representation ---------------------------------------------------------------

def package_homotopies(tmp_path):
    """(name, homotopy, points) for every kind of homotopy the package builds."""
    f = fixtures.map_collapse()
    X, Y = f.source, f.target
    fam = build_family(f)
    g, h1, h2 = fam.at(0.1)
    track = tmp_path / "track.json"
    track.write_text(json.dumps({
        "times": [0.0, 0.4, 1.0],
        "points": [{"simplex": ["a"], "coords": [1.0]}, {"simplex": ["a", "b"], "coords": [0.5, 0.5]},
                   {"simplex": ["b"], "coords": [1.0]}],
    }))
    H, _ = load_track(track, Y)
    z = sample_points(H.domain, 0)[0]
    x0 = g(H(z, 0.0))
    lift = approximate_lift(f, fam, H, PLEvaluator(domain=H.domain, codomain=X, fn=lambda _: x0), 0.2)
    y = make_point(Y, {"a": 0.5, "b": 0.5})
    a = Y.simplex(["a"])
    star_pts = [x for x in sample_points(X, 10, seed=1) if coord_of(evaluate_map(f, x), "a") > 0.1]
    D2 = fixtures.d2()
    return [
        ("h1", h1, sample_points(X, 6, seed=3)),
        ("h2", h2, sample_points(Y, 6, seed=3)),
        ("approximate lift", lift, [z]),
        ("derived contraction", derive_contraction(f, y, fam), collapse_fiber_points((0.0, 0.3, 1.0))),
        ("star retraction", build_star_retraction(f, a), star_pts),
        ("collapse contraction", contraction_from_collapse(D2, greedy_collapse(D2)), sample_points(D2, 6)),
        ("fiber contraction", fam.gamma.contractions[Y.simplex(["a", "b"])], None),
        ("load_track", H, [z]),
        ("TrivialFamily", TrivialFamily(D2).at(0.1)[1], sample_points(D2, 4)),
    ]


def test_every_homotopy_is_its_tracks(tmp_path):
    """H(p, t) == H.track(p)(t) bit for bit, and one track read forwards,
    then backwards, then shuffled gives the same point at each time."""
    times = [float(t) for t in np.linspace(0.0, 1.0, 9)] + [0.3, 0.61, 0.9999]
    shuffled = list(np.random.default_rng(0).permutation(len(times)))
    for name, H, pts in package_homotopies(tmp_path):
        if pts is None:
            pts = sample_points(H.domain, 4, seed=1)
        for p in pts:
            tr = H.track(p)
            first = [bits(tr(t)) for t in times]
            assert [bits(tr(t)) for t in reversed(times)] == first[::-1], name
            assert [bits(tr(times[i])) for i in shuffled] == [first[i] for i in shuffled], name
            assert [bits(H(p, t)) for t in times] == first, name
