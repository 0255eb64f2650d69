import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcontrol import (
    ConePoint,
    Point,
    alpha_schedule,
    assemble_bounded_equivalence,
    build_family,
    canonical,
    comesh_of,
    complex_metric,
    cone_distance,
    coning_map,
    distance,
    epsilon_schedule,
    identity_map,
    slice_equivalence,
    vertex_point,
)
from plcontrol import fixtures
from plcontrol.homotopies import TrivialFamily


def metric_stub(value):
    return lambda p, q: value


def test_formula_same_height():
    # both points at height 2, base distance 1
    d = cone_distance(metric_stub(1.0), ConePoint(base=_pt(), height=2.0), ConePoint(base=_pt(), height=2.0))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_formula_negative_heights():
    d = cone_distance(metric_stub(99.0), coning_map(None, -1.0), coning_map(None, -3.0))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_formula_same_base():
    d = cone_distance(metric_stub(0.0), ConePoint(base=_pt(), height=1.0), ConePoint(base=_pt(), height=5.0))
    assert d == pytest.approx(4.0, abs=1e-12)


def _pt():
    D2 = fixtures.d2()
    return vertex_point(D2, "a")


@pytest.mark.parametrize("height", [1.0, float("inf"), float("nan")])
def test_cone_point_off_the_ray_needs_a_base(height):
    """Only heights <= 0 form the baseless ray; a NaN height used to pass
    without a base and reach ``cone_distance``."""
    with pytest.raises(ValueError, match="needs a base point"):
        ConePoint(base=None, height=height)


@pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
def test_coning_map_rejects_a_non_finite_height(height):
    from plcontrol import MalformedInputError

    for base in (None, _pt()):
        with pytest.raises(MalformedInputError, match="cone height must be finite"):
            coning_map(base, height)


def test_complex_metric_rejects_a_negative_refinement():
    from plcontrol import MalformedInputError

    for refinement in (-1, -5):
        with pytest.raises(MalformedInputError, match="refinement must be >= 0"):
            complex_metric(fixtures.d2(), refinement=refinement)
    assert complex_metric(fixtures.d2(), refinement=0)(_pt(), _pt()) == 0.0


def test_coning_identification():
    D2 = fixtures.d2()
    a = coning_map(vertex_point(D2, "a"), -2.0)
    b = coning_map(vertex_point(D2, "b"), -2.0)
    assert a == b
    c = coning_map(vertex_point(D2, "a"), 1.0)
    assert c.base == vertex_point(D2, "a") and c.height == 1.0


def test_unit_slice_recovers_base_metric(rng):
    D2 = fixtures.d2()
    dM = complex_metric(D2)
    s = D2.simplex(["a", "b", "c"])
    for _ in range(20):
        p = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        q = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        da = cone_distance(dM, coning_map(p, 1.0), coning_map(q, 1.0))
        assert da == pytest.approx(distance(D2, p, q), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_scaling_law(t, base_d):
    a = cone_distance(metric_stub(base_d), ConePoint(_pt(), t), ConePoint(_pt(), t))
    unit = cone_distance(metric_stub(base_d), ConePoint(_pt(), 1.0), ConePoint(_pt(), 1.0))
    assert a == t * unit  # exact scaling, no tolerance


def test_triangle_inequality_sampled(rng):
    D2 = fixtures.d2()
    dM = complex_metric(D2)
    s = D2.simplex(["a", "b", "c"])

    def rand_cone():
        h = float(rng.uniform(-2.0, 6.0))
        p = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        return coning_map(p if h > 0 else None, h)

    for _ in range(800):
        a, b, c = rand_cone(), rand_cone(), rand_cone()
        assert cone_distance(dM, a, c) <= cone_distance(dM, a, b) + cone_distance(dM, b, c) + 1e-9


def test_symmetry_sampled(rng):
    D2 = fixtures.d2()
    dM = complex_metric(D2)
    s = D2.simplex(["a", "b", "c"])
    for _ in range(200):
        h1, h2 = (float(rng.uniform(-2, 6)) for _ in range(2))
        p = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        q = canonical(D2, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        a = coning_map(p if h1 > 0 else None, h1)
        b = coning_map(q if h2 > 0 else None, h2)
        assert cone_distance(dM, a, b) == cone_distance(dM, b, a)


def test_alpha_schedule_values():
    cm = 1.0 / math.sqrt(6.0)
    assert alpha_schedule(cm, 0.0) == pytest.approx(cm)
    assert alpha_schedule(cm, 10.0) == pytest.approx(0.1)
    knee = 1.0 / cm
    assert alpha_schedule(cm, knee) == alpha_schedule(cm, knee - 1e-12) == pytest.approx(cm)


@given(st.floats(1e-6, 10.0), st.sampled_from((2, 4, 8, 16, 1024)))
@example(0.408248290463863, 2)  # proj_map's comesh, where 1.0 / (2 / cm) != cm / 2
def test_alpha_schedule_is_exact_at_power_of_two_multiples_of_the_knee(cm, k):
    assert alpha_schedule(cm, k / cm) == cm / k


def test_slice_heights_read_the_control_tables_eps():
    """The heights SLICE_MULTIPLES / cm are on the assembly grid, and their
    eps are exactly the control table's cm/2, cm/4 and cm/8."""
    from plcontrol.cone import SLICE_MULTIPLES

    f = fixtures.proj_map()
    data = assemble_bounded_equivalence(f, build_family(f), samples=5, time_steps=5)
    cm = data.family.effective_comesh
    schedule = epsilon_schedule(f.target)
    for k in SLICE_MULTIPLES:
        assert k / cm in data.t_grid
        assert data._eps_at(k / cm) == cm / k and cm / k in schedule


def test_alpha_requires_positive_comesh():
    with pytest.raises(ValueError):
        alpha_schedule(0.0, 1.0)


@pytest.mark.parametrize("comesh", [math.inf, math.nan, -math.inf, -1.0])
def test_alpha_schedule_rejects_a_comesh_that_is_not_positive_and_finite(comesh):
    """An infinite comesh divided by zero at its knee 0, and a NaN one
    returned NaN."""
    from plcontrol import MalformedInputError

    with pytest.raises(MalformedInputError, match=f"^comesh must be positive and finite, got {comesh}$"):
        alpha_schedule(comesh, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_alpha_schedule_rejects_a_non_finite_height(t):
    """The one finite-height check of the assembly: a NaN height returned
    NaN, +inf the eps 0 and -inf the full comesh."""
    from plcontrol import MalformedInputError

    with pytest.raises(MalformedInputError, match=f"^cone height must be finite, got {t}$"):
        alpha_schedule(1.0, t)


def test_assembly_identity_map():
    D2 = fixtures.d2()
    f = identity_map(D2)
    data = assemble_bounded_equivalence(f, TrivialFamily(D2), samples=15, time_steps=9)
    assert data.bound <= 1e-6  # every track is constant
    # the constructed family also assembles, with the generic unit bound
    data2 = assemble_bounded_equivalence(f, build_family(f), samples=15, time_steps=9)
    assert data2.bound <= 1.0 + 1e-3


def test_assembly_and_slices_collapse(MAP_COLLAPSE):
    fam = build_family(MAP_COLLAPSE)
    data = assemble_bounded_equivalence(MAP_COLLAPSE, fam, samples=25, time_steps=9)
    assert data.bound <= 1.0 + 1e-3
    cm = fam.comesh
    for t in (2.0 / cm, 4.0 / cm, 8.0 / cm):
        sl = slice_equivalence(data, t)
        assert max(sl.controls.values()) <= data.bound / t * (1.0 + 1e-3)
    # round trip at t = 2/comesh lands within comesh/2 up to one percent
    sl = slice_equivalence(data, 2.0 / cm)
    assert max(sl.controls.values()) <= cm / 2.0 * (1.0 + 1e-2)


def test_slice_heights_preserved(MAP_COLLAPSE, rng):
    fam = build_family(MAP_COLLAPSE)
    data = assemble_bounded_equivalence(MAP_COLLAPSE, fam, samples=10, time_steps=5)
    Y = MAP_COLLAPSE.target
    y = canonical(Y, Point(Y.simplex(["a", "b"]), (0.3, 0.7)))
    for t in (0.5, 3.0, 7.0):
        _, height = data.g(y, t)
        assert height == t
        x, height = data.h1(data.g(y, t)[0], t, 0.5)
        assert height == t


def test_slice_rejects_nonpositive_height(MAP_COLLAPSE):
    fam = build_family(MAP_COLLAPSE)
    data = assemble_bounded_equivalence(MAP_COLLAPSE, fam, samples=5, time_steps=5)
    with pytest.raises(ValueError):
        slice_equivalence(data, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_slice_rejects_a_non_finite_height(MAP_COLLAPSE, t):
    """Named by slice_equivalence itself, not by the eps range check of
    family.at (eps=nan, or eps=0.0 for an infinite height)."""
    data = assemble_bounded_equivalence(MAP_COLLAPSE, build_family(MAP_COLLAPSE), samples=5, time_steps=5)
    with pytest.raises(ValueError, match=f"^slice height must be positive and finite, got {t}$"):
        slice_equivalence(data, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["g", "h1", "h2"])
def test_equivalence_data_rejects_a_non_finite_height(MAP_COLLAPSE, method, t):
    """g, h1 and h2 name the height themselves: without their check, the
    eps range check of family.at names eps=nan at NaN and eps=0.0 at +inf,
    and -inf evaluates at the eps below the knee."""
    data = assemble_bounded_equivalence(MAP_COLLAPSE, build_family(MAP_COLLAPSE), samples=5, time_steps=5)
    y = canonical(MAP_COLLAPSE.target, Point(MAP_COLLAPSE.target.simplex(["a", "b"]), (0.3, 0.7)))
    args = {"g": (y, t), "h1": (data.g(y, 1.0)[0], t, 0.5), "h2": (y, t, 0.5)}[method]
    with pytest.raises(ValueError, match=f"^cone height must be finite, got {t}$"):
        getattr(data, method)(*args)


def test_equivalence_data_takes_finite_heights_at_or_below_zero(MAP_COLLAPSE):
    data = assemble_bounded_equivalence(MAP_COLLAPSE, build_family(MAP_COLLAPSE), samples=5, time_steps=5)
    y = canonical(MAP_COLLAPSE.target, Point(MAP_COLLAPSE.target.simplex(["a", "b"]), (0.3, 0.7)))
    for t in (0.0, -2.5):
        x, height = data.g(y, t)
        assert height == t
        assert data.h1(x, t, 0.5)[1] == data.h2(y, t, 0.5)[1] == t


def test_slice_control_decays_on_identity():
    D2 = fixtures.d2()
    f = identity_map(D2)
    data = assemble_bounded_equivalence(f, TrivialFamily(D2), samples=10, time_steps=5)
    cm = comesh_of(D2)
    big = slice_equivalence(data, 64.0 / cm)
    assert max(big.controls.values()) <= 1e-6
    # the gamma-based family decays like 1/height
    data2 = assemble_bounded_equivalence(f, build_family(f), samples=10, time_steps=5)
    small = slice_equivalence(data2, 64.0 / cm)
    assert max(small.controls.values()) <= cm / 64.0 * (1.0 + 1e-3)


def test_height_projection_naturality(MAP_COLLAPSE, rng):
    """f x id commutes with the height projection p_t, checked on samples."""
    from plcontrol import evaluate_map

    X = MAP_COLLAPSE.source

    def p_t(point, height, t):
        return point, t

    def f_x_id(point, height):
        return evaluate_map(MAP_COLLAPSE, point), height

    for _ in range(20):
        s = X.maximal_simplices()[int(rng.integers(len(X.maximal_simplices())))]
        x = canonical(X, Point(s, tuple(rng.dirichlet(np.ones(3)))))
        t0 = float(rng.uniform(-2.0, 5.0))
        t = float(rng.uniform(0.1, 5.0))
        route_a = p_t(*f_x_id(x, t0), t)
        route_b = f_x_id(*p_t(x, t0, t))
        assert route_a == route_b
