"""The interned point kernel against the sort-and-validate kernel it replaced
(tests/point_oracle.py): bit-identical carriers and coordinates, the same
distances, and the same exception type and message on every bad input."""

import ast
import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import point_oracle as oracle
from plcontrol import (
    MalformedInputError,
    NotFoundError,
    Point,
    build_family,
    canonical,
    closure_complex,
    distance,
    epsilon_schedule,
    fixtures,
    make_point,
    sample_points,
)
from plcontrol import metrics
from plcontrol.cellulation import build_cellulation
from plcontrol.metrics import _l2_in_simplex, shared_carrier
from test_complexes import small_complexes
from test_contract import sd, staircase_prism
from helpers import contains_labels, fresh

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def bits(p: Point):
    """Everything that must match bit for bit: carrier, coordinate types and
    coordinate bit patterns."""
    return p.carrier, [type(c) for c in p.coords], [float(c).hex() for c in p.coords]


def outcome(fn, *args):
    """A call's result, or its exception type and message."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of what is compared
        return type(e), str(e)


def same_point_outcome(new, old):
    if new[0] == "ok" or old[0] == "ok":
        assert new[0] == old[0] == "ok"
        assert bits(new[1]) == bits(old[1])
    else:
        assert new == old


def assert_point_kernel_matches(K, points):
    """canonical, make_point, shared_carrier, _l2_in_simplex and distance
    agree with the oracle on every point and every pair of neighbours."""
    canon = []
    for p in points:
        same_point_outcome(outcome(canonical, K, p), outcome(oracle.canonical, K, p))
        same_point_outcome(outcome(make_point, K, p.as_dict()), outcome(oracle.make_point, K, p.as_dict()))
        canon.append(oracle.canonical(K, p))
    for p, q in zip(canon, canon[1:] + canon[:1]):
        c = shared_carrier(K, p, q)
        assert c == oracle.shared_carrier(K, p, q)
        if c is not None:
            assert _l2_in_simplex(p, q, c) == oracle._l2_in_simplex(p, q, c)
            assert type(_l2_in_simplex(p, q, c)) is float
            assert distance(K, p, q) == oracle._l2_in_simplex(p, q, c)


# -- labels and weights on hypothesis complexes ----------------------------------

labels = st.lists(st.sampled_from("abcdefz"), max_size=5)
weights = st.dictionaries(
    st.sampled_from("abcdefz"),
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1e-10, 0.25, 0.5, 1.0])),
    max_size=5,
)


@given(small_complexes, st.lists(labels, max_size=6), st.lists(weights, max_size=6))
@example(closure_complex([("a",)]), [], [{"a": -0.5, "b": 2.225073858507e-311}])
@settings(max_examples=200, deadline=None)
def test_label_lookups_and_make_point_match_oracle(K, label_lists, weight_maps):
    """When the positive weights sum to a subnormal number, rescaling turns
    a negative weight into -inf, which ``make_point`` rejects and the oracle
    drops; only all-finite maps are compared with the oracle."""
    for ls in label_lists + [list(s.vertices)[::-1] for s in K.simplices]:
        assert outcome(K.simplex, ls) == outcome(oracle.simplex, K, ls)
        assert outcome(contains_labels, K, ls) == outcome(oracle.contains_labels, K, ls)
    for w in weight_maps:
        total = sum(v for v in w.values() if v > 0)
        scaled = {k: v / total for k, v in w.items()} if total > 0 else w
        for mapping in (w, scaled):
            if all(map(math.isfinite, mapping.values())):
                same_point_outcome(outcome(make_point, K, mapping), outcome(oracle.make_point, K, mapping))
            else:
                with pytest.raises(MalformedInputError, match="non-finite weight"):
                    make_point(K, mapping)


@given(small_complexes, st.data())
@settings(max_examples=100, deadline=None)
def test_point_kernel_matches_oracle_on_small_complexes(K, data):
    seed = data.draw(st.integers(0, 2**16))
    points = sample_points(K, 12, seed=seed, subdivision_rounds=data.draw(st.integers(0, 1)))
    rng = np.random.default_rng(seed)
    for s in K.simplices - set(K.simplices_of_dim(0)):  # points with coordinates at and near zero
        w = rng.dirichlet(np.ones(len(s.vertices)))
        w[0] = rng.choice([0.0, 1e-12, 1e-9, 2e-9])
        points.append(Point(s, tuple(w / w.sum())))
    assert_point_kernel_matches(K, points)


# -- the benchmark's inputs ------------------------------------------------------

def targets():
    return {
        "proj_Y": fixtures.proj_Y(),
        "collapse_target": fixtures.map_collapse().target,
        "bad_target": fixtures.map_bad().target,
        "prism1_source": staircase_prism(sd(fixtures.d2())).source,
        "prism1_target": staircase_prism(sd(fixtures.d2())).target,
    }


@pytest.mark.parametrize("name", sorted(targets()))
@pytest.mark.parametrize("rounds", [0, 1])
def test_point_kernel_matches_oracle_on_sample_sets(name, rounds):
    K = targets()[name]
    assert_point_kernel_matches(K, sample_points(K, 40, seed=rounds, subdivision_rounds=rounds))


@pytest.mark.parametrize("f", [fixtures.proj_map, fixtures.map_collapse], ids=["proj_map", "map_collapse"])
def test_h2_cell_values_match_oracle(f):
    """canonical on the cell values of h2, and the distance each value moves."""
    Y = f().target
    pts = sample_points(Y, 10, seed=0)
    for eps in epsilon_schedule(Y):
        cel = build_cellulation(Y, eps)
        for y in pts:
            y = oracle.canonical(Y, y)
            cell, (s, t) = cel.invert(y)
            for time in (0.0, 0.25, 0.5, 1.0):
                v = cell.evaluate(eps * (1.0 - time), s, t)
                assert bits(canonical(Y, v)) == bits(oracle.canonical(Y, v))
                w = oracle.canonical(Y, v)
                c = oracle.shared_carrier(Y, y, w)
                if c is not None:
                    assert distance(Y, y, v) == oracle._l2_in_simplex(y, w, c)


def test_family_values_match_with_the_oracle_kernel(monkeypatch):
    """g, h1 and h2 values on proj_map, computed with the new kernel and with
    the oracle kernel swapped in everywhere, are bit-identical."""
    from plcontrol import cellulation, complexes, contract, homotopies, maps

    def values():
        f = fresh(fixtures.proj_map())  # new complexes, with nothing cached on them
        eps = epsilon_schedule(f.target)[0]
        g, h1, h2 = build_family(f).at(eps)
        ys, xs = sample_points(f.target, 6, seed=3), sample_points(f.source, 6, seed=4)
        out = [g(y) for y in ys] + [h2(y, t) for y in ys for t in (0.0, 0.5, 1.0)]
        return out + [h1(x, t) for x in xs for t in (0.0, 0.5, 1.0)]

    new = values()
    for mod in (complexes, maps, homotopies, contract):
        monkeypatch.setattr(mod, "make_point", oracle.make_point)
    for mod in (complexes, cellulation, homotopies, metrics):
        monkeypatch.setattr(mod, "canonical", oracle.canonical)
    monkeypatch.setattr(metrics, "shared_carrier", oracle.shared_carrier)
    monkeypatch.setattr(metrics, "_l2_in_simplex", oracle._l2_in_simplex)
    monkeypatch.setattr(complexes.SimplicialComplex, "simplex", oracle.simplex)
    old = values()
    assert [bits(p) for p in new] == [bits(p) for p in old]


@pytest.mark.parametrize("name", ["bd2", "sd2_d2"])
def test_steiner_query_matches_oracle(name):
    K = fixtures.bd2() if name == "bd2" else sd(sd(fixtures.d2()))
    graph = metrics._graph(K, 2)
    pts = [oracle.canonical(K, p) for p in sample_points(K, 6, seed=5, subdivision_rounds=0)]
    pairs = [(p, q) for p in pts for q in pts]
    assert any(oracle.shared_carrier(K, p, q) is None for p, q in pairs)
    for p, q in pairs:
        assert graph.query(K, p, q) == oracle.query(graph, K, p, q)


# -- errors ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "weights",
    [
        {},  # empty support
        {"a": 1e-12},  # empty support after dropping near-zero weights
        {"a": 0.5, "zz": 0.5},  # unknown vertex
        {"zz": 0.3, "a": 0.3, "yy": 0.2},  # the first unknown vertex is named; outranks a bad sum
        {"zz": 0.0, "a": 1.0},  # an unknown vertex with zero weight is dropped
        {"a": 0.5, "b": 0.4},  # bad sum on a simplex
        {"a": 0.5, "b": 0.4, "d": 0.3},  # bad sum outranks "spans no simplex"
        {"a": 0.5, "d": 0.5},  # spans no simplex
        {"a": float("inf")},
    ],
)
def test_make_point_errors_match_oracle(weights):
    K = closure_complex([("a", "b", "c"), ("c", "d")])
    new, old = outcome(make_point, K, weights), outcome(oracle.make_point, K, weights)
    same_point_outcome(new, old)


# ("a", "a") raises MalformedInputError in both, where a bare frozenset lookup says True
@pytest.mark.parametrize(
    "labels", [(), ("a", "a"), ("a", "b", "a"), ("zz",), ("a", "zz"), ("a", "d"), ("b", "a"), ("c", "d")]
)
def test_label_lookup_errors_match_oracle(labels):
    K = closure_complex([("a", "b", "c"), ("c", "d")])
    assert outcome(K.simplex, labels) == outcome(oracle.simplex, K, labels)
    assert outcome(contains_labels, K, labels) == outcome(oracle.contains_labels, K, labels)


def test_canonical_errors_match_oracle():
    K = closure_complex([("a", "b", "c")])
    other = closure_complex([("x", "y")])
    for p in (Point(other.simplex(["x", "y"]), (0.5, 0.5)), Point(other.simplex(["x", "y"]), (1.0, 0.0))):
        new, old = outcome(canonical, K, p), outcome(oracle.canonical, K, p)
        assert new == old and new[0] is NotFoundError


# -- the canonical flag: coordinates checked once per point ----------------------------

def test_canonical_flag_is_not_part_of_the_point():
    """The flag is kept out of ==, hash, repr and __init__, and a point
    built by Point(...), dataclasses.replace or make_point starts unflagged."""
    K = closure_complex([("a", "b", "c")])
    p = Point(K.simplex(["a", "b"]), (0.25, 0.75))
    twin = Point(K.simplex(["a", "b"]), (0.25, 0.75))
    assert not p._canonical and not make_point(K, {"a": 0.25, "b": 0.75})._canonical
    assert canonical(K, p) is p and p._canonical and not twin._canonical
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
    assert "_canonical" not in repr(p)
    flag = next(f for f in dataclasses.fields(Point) if f.name == "_canonical")
    assert (flag.init, flag.compare, flag.repr) == (False, False, False)
    with pytest.raises(TypeError):
        Point(p.carrier, p.coords, True)
    with pytest.raises(TypeError):
        Point(p.carrier, p.coords, _canonical=True)
    again = dataclasses.replace(p)
    assert again == p and not again._canonical


def test_equal_points_hash_alike_whatever_builds_them():
    """Equal points built by Point(...), make_point, _row_point,
    Point._prechecked and canonical compare and hash equal, each hash is
    hash((carrier, coords)), and the kept hash is kept out of ==, repr and
    __init__."""
    from plcontrol.complexes import _row_point

    K = closure_complex([("a", "b", "c")])
    ab, abc = K.simplex(["a", "b"]), K.simplex(["a", "b", "c"])
    built = [
        Point(ab, (0.25, 0.75)),
        make_point(K, {"a": 0.25, "b": 0.75}),
        _row_point(K, abc.vertices, np.array([0.25, 0.75, 0.0])),
        Point._prechecked(ab, (0.25, 0.75)),
        canonical(K, Point(ab, (0.25, 0.75))),
        canonical(K, Point(abc, (0.25, 0.75, 0.0))),
    ]
    unhashed = Point(ab, (0.25, 0.75))
    for p in built:
        assert p._hash is None and not p._canonical or p is built[4]
        assert hash(p) == hash((p.carrier, p.coords)) == p._hash == hash(built[0])
        assert p == unhashed and unhashed._hash is None and repr(p) == repr(unhashed)
    assert len(set(built)) == 1 and "_hash" not in repr(built[0])
    kept = next(f for f in dataclasses.fields(Point) if f.name == "_hash")
    assert (kept.init, kept.compare, kept.repr) == (False, False, False)
    with pytest.raises(TypeError):
        Point(ab, (0.25, 0.75), _hash=0)


def test_pickle_and_copy_rebuild_a_point_without_its_kept_hash():
    """A pickled or copied point is rebuilt from its carrier and coordinates:
    no kept hash or canonical flag comes along, and a process whose string
    hashes differ hashes the unpickled point as it hashes an equal new one."""
    import copy
    import pickle

    K = closure_complex([("a", "b", "c")])
    p = canonical(K, Point(K.simplex(["a", "b"]), (0.25, 0.75)))
    hash(p)
    assert p._hash is not None and p._canonical
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert q == p and q is not p and q._hash is None and not q._canonical
    code = f"""
import pickle
from plcontrol import Point
q = pickle.loads({pickle.dumps(p)!r})
assert q._hash is None and hash(q) == hash((q.carrier, q.coords))
assert q in {{Point(q.carrier, q.coords)}}
print("ok")
"""
    for seed in ("1", "2"):  # at most one of them can share this process's string hashes
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            check=False,
        )
        assert out.returncode == 0 and out.stdout == "ok\n", (seed, out.stdout, out.stderr)


def test_a_flagged_point_still_needs_its_carrier_in_the_complex():
    K = closure_complex([("a", "b", "c")])
    apart = closure_complex([("a", "c"), ("b", "c")])  # no edge ab
    p = canonical(K, Point(K.simplex(["a", "b"]), (0.5, 0.5)))
    assert p._canonical
    new, old = outcome(canonical, apart, p), outcome(oracle.canonical, apart, p)
    assert new == old and new[0] is NotFoundError


def test_canonical_flags_only_what_passed_at_the_default_tol():
    """A non-default tol takes the full path, on flagged and unflagged points
    alike, and flags nothing; a point that canonical renormalizes is left
    unflagged and returned as a new point."""
    K = closure_complex([("a", "b")])
    ab = K.simplex(["a", "b"])
    p = Point(ab, (1e-8, 1.0 - 1e-8))
    loose = canonical(K, p, tol=1e-7)
    assert not p._canonical and bits(loose) == bits(oracle.canonical(K, p, tol=1e-7))
    assert loose.carrier == K.simplex(["b"])
    assert canonical(K, p) is p and p._canonical
    for tol in (1e-7, 0.0):
        same_point_outcome(outcome(canonical, K, p, tol), outcome(oracle.canonical, K, p, tol))
    off = Point(ab, (0.5, 0.5 + 1e-10))
    q = canonical(K, off)
    assert not off._canonical and q is not off and bits(q) == bits(oracle.canonical(K, off))
    mid = Point(ab, (0.5, 0.5))
    assert canonical(K, mid, tol=1e-3) is mid and not mid._canonical


@given(small_complexes, st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_twice_matches_oracle(K, data):
    """The second call, on a flagged point, gives the oracle's bits too."""
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    points = sample_points(K, 6, seed=seed, subdivision_rounds=0)
    for s in K.sorted_simplices()[len(K.vertex_order):]:  # coordinates at and near zero
        w = rng.dirichlet(np.ones(len(s.vertices)))
        w[0] = rng.choice([w[0], 0.0, 1e-12, 1e-9, 2e-9])
        points.append(Point(s, tuple(w / w.sum())))
    for p in points:
        want = bits(oracle.canonical(K, p))
        first = canonical(K, p)
        assert bits(first) == want and bits(canonical(K, first)) == want
        assert bits(canonical(K, p)) == want


def test_make_point_with_a_negative_tol_still_validates():
    K = closure_complex([("a", "b")])
    for fn in (make_point, oracle.make_point):
        with pytest.raises(MalformedInputError, match="negative barycentric"):
            fn(K, {"a": 1.0 + 1e-8, "b": -1e-8}, -1.0)


# -- the public constructor validates; the private one has one caller -----------------

def _assert_prints_ok_with_and_without_O(code: str) -> None:
    """Runs code in a child interpreter on these sources, with and without
    ``-O``; the child keeps this environment (a PYTHONDONTWRITEBYTECODE=1
    too, so it leaves no bytecode in the sources)."""
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=False,
        )
        assert out.returncode == 0 and out.stdout == "ok\n", (flags, out.stdout, out.stderr)


def test_public_point_validates_even_under_python_O():
    code = """
from plcontrol import MalformedInputError, Point, closure_complex
s = closure_complex([("a", "b")]).simplex(["a", "b"])
for coords in [(1.5, -0.5), (1.0,), (0.5, 0.5, 0.0), (0.5, 0.4)]:
    try:
        Point(s, coords)
    except MalformedInputError:
        continue
    raise SystemExit(f"Point accepted {coords}")
print("ok")
"""
    _assert_prints_ok_with_and_without_O(code)


def test_public_point_rejects_non_finite_coordinates_even_under_python_O():
    code = """
from plcontrol import MalformedInputError, Point, closure_complex
inf, nan = float("inf"), float("nan")
s = closure_complex([("a", "b")]).simplex(["a", "b"])
for coords in [(nan, 1.0), (1.0, nan), (inf, 1.0), (-inf, 1.0), (inf, -inf)]:
    try:
        Point(s, coords)
    except MalformedInputError as e:
        if "non-finite" in str(e):
            continue
    raise SystemExit(f"Point accepted {coords} or named another fault")
print("ok")
"""
    _assert_prints_ok_with_and_without_O(code)


def test_make_point_rejects_non_finite_weights_even_under_python_O():
    """NaN and -inf fail the support filter, which once dropped them and
    returned the vertex of the other weight; +inf fails the sum check."""
    code = """
from plcontrol import MalformedInputError, closure_complex, combine_points, make_point, vertex_point
inf, nan = float("inf"), float("nan")
K = closure_complex([("a", "b")])
a, b = vertex_point(K, "a"), vertex_point(K, "b")
for w in [nan, -inf, inf]:
    for build in (lambda: make_point(K, {"a": w, "b": 1.0}), lambda: combine_points(K, [(w, a), (1.0, b)])):
        try:
            build()
        except MalformedInputError as e:
            if w == inf or "non-finite weight" in str(e):
                continue
        raise SystemExit(f"accepted the weight {w} or named another fault")
print("ok")
"""
    _assert_prints_ok_with_and_without_O(code)


def test_the_package_has_no_assert_statement():
    """Invariants raise typed errors, which `python -O` cannot strip."""
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_prechecked_points_are_built_only_by_make_point():
    """Every reference to the unchecked constructor in src/, by enclosing function."""
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and func.name != "_prechecked":
                refs += [
                    (path.name, func.name)
                    for node in ast.walk(func)
                    if getattr(node, "attr", getattr(node, "id", None)) == "_prechecked"
                ]
    assert refs == [("complexes.py", "make_point")]
