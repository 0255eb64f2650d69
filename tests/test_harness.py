import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from plcontrol import (
    CannotConstructError,
    FiberComplex,
    FileFormatError,
    MalformedInputError,
    Point,
    SimplicialComplex,
    SimplicialMap,
    UnsupportedDimensionError,
    barycentric_subdivision,
    build_cellulation,
    build_family,
    census_report,
    closure_complex,
    distance,
    emit_svg,
    fiber_over_barycenter,
    load_complex,
    load_map,
    parse_point,
    save_complex,
    save_map,
    run_verify,
    sample_points,
    vertex_point,
)
from plcontrol import fixtures
from plcontrol.cellulation import FlagCell
from plcontrol.cli import main
from plcontrol.verify import COUNTEREXAMPLE, THEOREM_CONSISTENT, UNKNOWN
import cellulation_oracle
import control_oracle
from helpers import coord_of, fresh, load_script, tie_map


def write_fixture_files(tmp_path):
    save_complex(fixtures.d1(), tmp_path / "d1.json")
    save_complex(fixtures.d2(), tmp_path / "d2.json", positions=fixtures.D2_POSITIONS)
    save_complex(fixtures.bd2(), tmp_path / "bd2.json")
    save_map(fixtures.map_collapse(), tmp_path / "collapse.json", "d2.json", "d1.json")
    save_map(fixtures.map_bad(), tmp_path / "bad.json", "bd2.json", "d1.json")
    return tmp_path


# -- file formats ------------------------------------------------------------------

def test_complex_roundtrip(tmp_path, D2):
    save_complex(D2, tmp_path / "k.json")
    K = load_complex(tmp_path / "k.json")
    assert {s.vertices for s in K.simplices} == {s.vertices for s in D2.simplices}
    assert K.vertex_order == D2.vertex_order


def test_loader_closes_and_warns(tmp_path):
    p = tmp_path / "open.json"
    p.write_text(json.dumps({"vertices": ["a", "b", "c"], "simplices": [["a", "b", "c"]]}))
    with pytest.warns(UserWarning, match="closure added 6 simplices"):
        K = load_complex(p)
    assert len(K.simplices) == 7


def test_loader_counts_a_face_listed_twice_once(tmp_path):
    """A face listed twice, in two vertex orders, counts once, and the
    warning's count is the number of faces no listed simplex names."""
    p = tmp_path / "twice.json"
    listed = [["a", "b", "c"], ["c", "d"], ["b", "a"], ["a", "b"]]
    p.write_text(json.dumps({"simplices": listed}))
    K = closure_complex([tuple(g) for g in listed])
    names = {tuple(sorted(g)) for g in listed}
    added = sum(1 for s in K.simplices if tuple(sorted(s.vertices)) not in names)
    assert added == 6
    with pytest.warns(UserWarning, match=f"closure added {added} simplices"):
        load_complex(p)


def test_loader_rejects_duplicate_vertex(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({"simplices": [["a", "a"]]}))
    with pytest.raises(FileFormatError, match="duplicate"):
        load_complex(p)


def test_loader_diagnoses_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError, match="bad.json:1:"):
        load_complex(p)


def test_map_roundtrip(tmp_path):
    write_fixture_files(tmp_path)
    f = load_map(tmp_path / "collapse.json")
    assert f.vertex_map == {"a": "a", "b": "b", "c": "b"}


def test_map_loader_rejects_nonsimplicial(tmp_path):
    save_complex(fixtures.d1(), tmp_path / "d1.json")
    save_complex(closure_complex([("x",), ("y",)]), tmp_path / "pts.json")
    (tmp_path / "m.json").write_text(
        json.dumps({"source": "d1.json", "target": "pts.json", "vertex_map": {"a": "x", "b": "y"}})
    )
    with pytest.raises(FileFormatError, match=r"\{a,b\}"):
        load_map(tmp_path / "m.json")


def test_parse_point(D2):
    p = parse_point(D2, '{"simplex": ["b", "a"], "coords": [0.25, 0.75]}')
    assert coord_of(p, "a") == 0.75 and coord_of(p, "b") == 0.25


@pytest.mark.parametrize("literal", [
    '{"simplex": ["a"], "coords": [1, 5]}',
    '{"simplex": ["a", "b"], "coords": [0.5, 0.5, 7]}',
])
def test_parse_point_rejects_length_mismatch(D2, literal):
    with pytest.raises(FileFormatError, match="coords"):
        parse_point(D2, literal)


def test_parse_point_rejects_duplicate_labels(D2):
    with pytest.raises(FileFormatError, match="duplicate"):
        parse_point(D2, '{"simplex": ["a", "a"], "coords": [0.5, 0.5]}')


@pytest.mark.parametrize("coords", ["[NaN, 1.0]", "[1.0, NaN]", "[Infinity, 1.0]", "[-Infinity, 2.0]"])
def test_parse_point_rejects_non_finite_coords(D2, coords):
    with pytest.raises(FileFormatError, match="non-finite"):
        parse_point(D2, '{"simplex": ["a", "b"], "coords": %s}' % coords)


def test_cli_cone_distance_rejects_a_nan_point(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        [
            "cone-distance", str(tmp_path / "d2.json"),
            '{"simplex": ["a", "b"], "coords": [NaN, 1.0]}', "1.0",
            '{"simplex": ["a"], "coords": [1.0]}', "1.0",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "non-finite" in captured.err


@pytest.mark.parametrize(
    "heights, extra, message",
    [
        (("nan", "1.0"), [], "cone height must be finite"),
        (("1.0", "inf"), [], "cone height must be finite"),
        (("inf", "2.0"), [], "cone height must be finite"),
        (("1.0", "2.0"), ["--refinement", "-1"], "refinement must be >= 0"),
        (("-inf", "1.0"), [], "cone height must be finite"),
        (("1.0", "-nan"), [], "cone height must be finite"),
    ],
)
def test_cli_cone_distance_rejects_unusable_heights_and_refinements(tmp_path, capsys, heights, extra, message):
    """A NaN height used to end in a ValueError traceback, an infinite one
    printed inf, argparse took ``-inf`` and ``-nan`` for options, and a
    negative refinement measured on a graph without lattice points; each
    now exits 1 with an error line."""
    write_fixture_files(tmp_path)
    point = '{"simplex": ["a"], "coords": [1.0]}'
    code = main(["cone-distance", str(tmp_path / "d2.json"), point, heights[0], point, heights[1], *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_cli_reports_unknown_point_vertex(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        [
            "cone-distance", str(tmp_path / "d2.json"),
            '{"simplex": ["zz"], "coords": [1.0]}', "1.0",
            '{"simplex": ["a"], "coords": [1.0]}', "1.0",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["inverse", "measure-control", "lift"])
def test_cli_reports_a_map_without_a_family(tmp_path, capsys, command):
    write_fixture_files(tmp_path)
    track = tmp_path / "track.json"
    track.write_text(json.dumps({"times": [0.0, 1.0], "points": [{"simplex": ["a"], "coords": [1.0]}] * 2}))
    extra = [str(track)] if command == "lift" else ["--epsilon", "0.1"]
    assert main([command, str(tmp_path / "bad.json"), *extra]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_file_positions_round_trip_and_drive_the_svg(tmp_path, capsys):
    write_fixture_files(tmp_path)
    K = load_complex(tmp_path / "d2.json")
    assert K.positions == fixtures.D2_POSITIONS
    # the layout is file data: loading it derives nothing from K
    assert (K._poset, K._comesh, K._component_of) == (None,) * 3
    assert not K._flag_cells and not K._fits and not K._cellulations and not K._metric_graphs
    save_complex(K, tmp_path / "again.json")
    assert load_complex(tmp_path / "again.json").positions == fixtures.D2_POSITIONS

    svg = tmp_path / "cli.svg"
    assert main(["cellulate", str(tmp_path / "again.json"), "--epsilon", "0.1", "--svg", str(svg)]) == 0
    cel = build_cellulation(fixtures.d2(), 0.1)
    emit_svg(cel, tmp_path / "layout.svg", positions=fixtures.D2_POSITIONS)
    emit_svg(cel, tmp_path / "circle.svg")
    assert svg.read_bytes() == (tmp_path / "layout.svg").read_bytes()
    assert svg.read_bytes() != (tmp_path / "circle.svg").read_bytes()


# -- run_verify --------------------------------------------------------------------

def test_verify_collapse_consistent():
    rep = run_verify(fixtures.map_collapse(), samples=30, certificate_samples=15)
    assert rep.overall == THEOREM_CONSISTENT
    assert rep.exit_code == 0
    assert all(r.ok for r in rep.control_rows)
    assert rep.bound is not None and rep.bound <= 1.0 + 1e-3
    assert all(v <= 1e-9 for v in rep.identity_sups.values())


def test_verify_bad_map_names_simplex():
    rep = run_verify(fixtures.map_bad(), map_label="MAP_BAD")
    assert rep.exit_code == 1
    assert rep.overall == COUNTEREXAMPLE
    bad = [s for s, v in rep.fiber_verdicts.items() if v.kind == "not_contractible"]
    assert [s.vertices for s in bad] == [("a", "b")]
    text = rep.render()
    assert "{a,b}" in text and "b~0=1" in text


@pytest.mark.parametrize("unknown_arcs", [False, True])
def test_verify_refusal_is_the_error_build_family_raises(monkeypatch, unknown_arcs):
    """The refuted route names the fiber that ``build_family`` refuses: the
    first one that is not contractible, an unknown one before the refuted
    one when there is such."""
    from plcontrol import maps as maps_mod
    from plcontrol.contract import Verdict

    real = maps_mod.contractibility_verdict

    def fake(K):
        v = real(K)
        if unknown_arcs and v.is_contractible:
            return Verdict(kind="unknown", reason="forced for test")
        return v

    monkeypatch.setattr(maps_mod, "contractibility_verdict", fake)
    f = fixtures.map_bad.__wrapped__()
    with pytest.raises(CannotConstructError) as refusal:
        build_family(f)
    assert (refusal.value.sigma.vertices == ("a",)) == unknown_arcs
    rep = run_verify(f)
    assert rep.overall == COUNTEREXAMPLE
    assert rep.messages == [
        f"controlled-family construction refuses: {refusal.value} (expected: contrapositive of the equivalence)"
    ]


def test_verify_refusal_builds_no_contraction(monkeypatch):
    """The refuted route constructs nothing of the family: no fiber
    contraction is built."""
    from plcontrol import homotopies

    calls = []
    real = homotopies.contraction_from_collapse
    monkeypatch.setattr(homotopies, "contraction_from_collapse", lambda *a: calls.append(a) or real(*a))
    assert run_verify(fixtures.map_bad.__wrapped__()).overall == COUNTEREXAMPLE
    assert calls == []


def test_verify_unknown_propagates(monkeypatch):
    from plcontrol import maps as maps_mod
    from plcontrol.contract import Verdict

    real = maps_mod.contractibility_verdict

    def fake(K):
        v = real(K)
        if v.is_contractible and K is not None and K.dimension >= 1:
            return Verdict(kind="unknown", reason="forced for test")
        return v

    monkeypatch.setattr(maps_mod, "contractibility_verdict", fake)
    # a fresh map: the shared fixture's fibers may already hold their verdicts
    rep = run_verify(fixtures.map_collapse.__wrapped__(), samples=10)
    assert rep.overall == UNKNOWN
    assert rep.exit_code == 2


def test_verify_decides_each_fiber_once(monkeypatch):
    """run_verify and the family construction share each fiber's verdict."""
    from plcontrol import contract

    calls = []
    real = contract.greedy_collapse
    monkeypatch.setattr(contract, "greedy_collapse", lambda K: calls.append(K) or real(K))
    f = fixtures.map_collapse.__wrapped__()
    rep = run_verify(f, samples=10)
    assert rep.overall == THEOREM_CONSISTENT
    assert len(calls) == len(f.target.simplices) == 3


def test_check_fibers_reduces_only_the_collapse_cores(tmp_path, monkeypatch, capsys):
    """check-fibers on the benchmark's slab runs homology once per fiber,
    and each fiber collapses to a vertex, so the Smith normal forms take
    one column per fiber, the augmentation's; on Sd^2(RP^2) -> point,
    whose one fiber has no free face, they take the 360 triangles, the 181
    of 540 edges that clearing leaves and one vertex of 361."""
    from plcontrol import contract

    ladder = load_script("ladder")
    paths, columns = ladder.inputs.write_inputs("fibers_slab", 0, tmp_path), []
    real = contract.sparse_smith_diagonal
    monkeypatch.setattr(contract, "sparse_smith_diagonal", lambda cols: columns.append(len(cols)) or real(cols))
    for path, (code, homology, reduced) in zip(paths, [(0, 3, 3), (1, 1, 360 + 181 + 1)]):
        columns[:] = []
        with ladder.work_counts() as counts:
            assert main(["check-fibers", str(path)]) == code
        assert (counts["homology runs"], sum(columns)) == (homology, reduced)
    capsys.readouterr()


def test_verify_work_stays_within_its_counts():
    """A default verify of map_collapse makes a nonzero count of every kind
    of work `scripts/ladder.py` counts, so a counted function that stops
    being called fails here.  Its inversions, distance queries, sample
    draws, cold cellulation builds, fiber locations, cell vertex-image
    builds, fiber-contraction tracks, ``make_point`` calls, fitting lists
    built, cell-point contractions and block inversion checks stay at or
    under 1672, 853, 6, 13, 65, 128, 65, 4535, 224, 889 and 74, the counts
    it makes: the sampled-sup
    kernel rebuilds no h1 track per identity, each of the identities, the
    control table and the assembly draws its Y and X sample sets once, each
    distinct eps builds one cellulation of Y, one ``family.at(eps)`` inverts
    each distinct point once and is shared by the identities and the
    table's comesh/2 row, the assembly reads the per-point sups the control
    table measured, the h2 row measures a point's canonical steps without
    ``distance``, the h1 row and the two h1 identities their reproduced
    rows without ``distance`` or a point, the h1 track reads ybar off its
    split of h1(x, 1/2), gamma keeps one fiber track per (sigma, w) for
    every eps, every point holds Python floats, so that equal fiber points
    share one track, h1 and h2 of one ``family.at(eps)`` build each (cell,
    eps') image array once, a cell's rows build the images their memo
    lacks in one call (the stack of a (cell, time grid) is built from that
    memo, so the stacks add no image build), an inversion builds no images:
    a cellulation holds no arrays, each of the 224 distinct points inverted
    at the 13 eps has its fitting list built once, on K, and the rows of
    the h2 row, of each h1 group pass and of the first h1 identity table
    take one contraction per cell and time grid (2 537 with one per point),
    g's base points are read off the inversion's weights, and each batch of
    points a view locates is checked with one block per (round, cell
    shape), not one per point (1 672).  A default verify of proj_map makes
    at most 243 ``_norms`` calls (2 303 with one per sampled point and
    table), 1 204 contractions (2 714 with one per point) and 218 block
    checks (1 769 points inverted): the h2 row measures every point with
    one call per row width, the h1 row and each h1 identity one per width
    in each group pass, and the g table one per carrier in each fill."""
    ladder = load_script("ladder")
    with ladder.work_counts() as counts:
        assert run_verify(fresh(fixtures.map_collapse())).overall == THEOREM_CONSISTENT
    assert min(counts.values()) > 0, counts
    assert counts["inversions"] <= 1672
    assert counts["control distances"] <= 853
    assert counts["sample draws"] <= 6
    assert counts["cellulations built"] <= 13
    assert counts["fiber locations"] <= 65
    assert counts["vertex image builds"] <= 128
    assert counts["fiber tracks"] <= 65
    assert counts["make_point"] <= 4535
    assert counts["fitting lists built"] <= 224
    assert counts["row contractions"] <= 889
    assert counts["inversion blocks"] <= 74
    with ladder.work_counts() as counts:
        assert run_verify(fresh(fixtures.proj_map())).overall == THEOREM_CONSISTENT
    assert counts["row norms"] <= 243
    assert counts["row contractions"] <= 1204
    assert counts["inversion blocks"] <= 218


def test_a_verify_keeps_the_cellulations_built_before_it():
    """A verify drops only the cellulations it built on the target: one the
    caller built before the run is still the target's after it."""
    from plcontrol import comesh_of

    f = fresh(fixtures.map_collapse())
    cel = build_cellulation(f.target, comesh_of(f.target) / 3.0)
    assert run_verify(f).overall == THEOREM_CONSISTENT
    assert list(f.target._cellulations.values()) == [cel]


def test_verify_builds_one_cellulation_per_exact_eps():
    """A default verify of proj_map builds 13 cellulations of Y: the five of
    the control table and the eight the assembly grid adds (one for the
    knee and half of it, seven geometric steps above it).  Its slice
    heights 2/cm, 4/cm and 8/cm read the control table's cm/2, cm/4 and
    cm/8 themselves, not eps that differ from them in the last bits."""
    with load_script("ladder").work_counts() as counts:
        assert run_verify(fresh(fixtures.proj_map())).overall == THEOREM_CONSISTENT
    assert counts["cellulations built"] == 13


def test_verify_splits_each_h1_sample_once_and_joins_its_rows_per_carrier():
    """A default verify of proj_map makes at most 1501 ``fiber_split`` calls
    (two of them per h1 second-half start-up), 2 h1 group passes and 32
    calls of the join→image row kernel (30 of them g table fills): gamma
    keeps each sampled x's split for every eps, the h1 row is read off
    h2's and makes no pass, and one pass of the two h1 identities joins
    the rows of all points whose f(x) lies on one maximal simplex of Y in
    one ``_joined_image_rows``, read by both identities.  (4219 splits and
    887 passes when every h1 track split its x again at every eps and
    every point had a pass of its own, 3372 and 152 with one pass per
    carrier of f(x) and an h1 row of its own.)"""
    with load_script("ladder").work_counts() as counts:
        assert run_verify(fresh(fixtures.proj_map())).overall == THEOREM_CONSISTENT
    assert counts["fiber_split"] <= 1501
    assert counts["h1 group passes"] <= 2
    assert counts["row kernel calls"] <= 32


def test_verify_builds_only_the_flag_cells_its_points_name(monkeypatch):
    """A default verify of D_4 builds at most 171 flag cells of its target,
    the distinct cells its inversions name (2 131 when every flag cell of
    the target was built before the first inversion), and D_5, whose
    target has 18 667 flag cells, renders its report to the byte."""
    import hashlib

    from plcontrol import cellulation

    ladder = load_script("ladder")
    built = []
    real = cellulation.FlagCell.__init__

    def counting(cell, *args, **kwargs):
        real(cell, *args, **kwargs)
        built.append(cell.flag)

    monkeypatch.setattr(cellulation.FlagCell, "__init__", counting)
    assert run_verify(ladder.simplex_prism(4)).overall == THEOREM_CONSISTENT
    assert 0 < len(built) == len(set(built)) <= 171
    text = run_verify(ladder.simplex_prism(5)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "be022d28af0b73952ebff0572b0d46aa24c53871bb8de0e64c716db99a5b8940"
    )


def test_verify_renders_d6_to_the_byte():
    """D_6 (1 023 source simplices onto Δ^6) renders its default report to
    the byte, beside D_5's pin above."""
    import hashlib

    text = run_verify(load_script("ladder").simplex_prism(6)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "52a39289454fe331dd1e081ec8d51f5d4b13822a709a07f8045c3fb002bdd233"
    )


def _block_traffic(monkeypatch, checks=(cellulation_oracle.try_cell,)):
    """While the test runs, each ``Cellulation.invert_block`` call compares
    every point it locates with ``cellulation_oracle.scalar_invert``
    through each cell check of ``checks``: the same cell, and s and t with
    the same bytes (``location_bytes``).  Returns the lists of the points
    located and of the (eps, check, point) triples that differ."""
    from plcontrol import cellulation

    real = cellulation.Cellulation.invert_block
    points, differ = [], []

    def both(cel, ys, tol=1e-9):
        got = real(cel, ys, tol)
        for y, located in zip(ys, got):
            points.append(y)
            for check in checks:
                want = cellulation_oracle.scalar_invert(cel, y, tol, check)
                if cellulation_oracle.location_bytes([located]) != cellulation_oracle.location_bytes([want]):
                    differ.append((cel.eps, check.__name__, y))
        return got

    monkeypatch.setattr(cellulation.Cellulation, "invert_block", both)
    return points, differ


def test_try_cell_matches_the_array_kernel_on_verify_traffic(monkeypatch):
    """Every point that the default seed-0 verifies of proj_map and
    map_collapse invert (3 441 points, 3 809 cells tried) is located by
    the block checks as by the float oracle and as by the array oracle,
    each one point and one cell check at a time."""
    checks = (cellulation_oracle.try_cell, cellulation_oracle.try_cell_arrays)
    points, differ = _block_traffic(monkeypatch, checks)
    for name in ("proj_map", "map_collapse"):
        assert run_verify(fresh(getattr(fixtures, name)())).overall == THEOREM_CONSISTENT
    assert len(points) == 1769 + 1672 and not differ, differ[:3]


@pytest.mark.parametrize("name, inverted", [("Prism(1)", 2491), ("D_4", 2998), ("tie(7, 3)", 8705)], ids=["Prism(1)", "D_4", "tie(7, 3)"])
def test_invert_block_matches_the_scalar_oracle_on_verify_traffic(name, inverted, monkeypatch):
    """Every point that the default verify of Prism(1), D_4 or the (7, 3)
    tie map inverts is located by the blocks as by the scalar oracle."""
    ladder = load_script("ladder")
    f = {"Prism(1)": lambda: ladder.inputs.prism_map(1), "D_4": lambda: ladder.simplex_prism(4), "tie(7, 3)": lambda: tie_map(7, 3)}[name]()
    points, differ = _block_traffic(monkeypatch)
    assert run_verify(f).overall == THEOREM_CONSISTENT
    assert len(points) == inverted and not differ, differ[:3]


def test_verify_work_per_source_simplex_does_not_grow_with_the_map():
    """A default verify of Prism(1) does no more inversions, cells tried,
    ``make_point`` or ``distance`` calls, fiber tracks, ``image_simplex``
    calls or g evaluations per source simplex than one of Prism(0), so work
    that grows as |X| * |Y|, like a per-simplex fiber scan, fails here."""
    ladder = load_script("ladder")
    per_simplex = []
    for k in (0, 1):
        f = fresh(ladder.inputs.prism_map(k))
        with ladder.work_counts() as counts:
            assert run_verify(f).overall == THEOREM_CONSISTENT
        per_simplex.append({name: n / len(f.source.simplices) for name, n in counts.items()})
    small, large = per_simplex
    names = ("inversions", "cells tried", "make_point", "control distances", "fiber tracks", "image_simplex", "g evaluations")
    for name in names:
        assert 0 < large[name] <= small[name], name


@pytest.mark.parametrize("name", ["proj_map", "map_collapse"])
def test_verify_text_matches_the_benchmark_reference(name):
    """The default render, byte for byte, as perfbench/reference.json pins it;
    map_bad's render is pinned by perfbench's own recorded-reference test."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())["verify_fixtures"][name]
    rep = run_verify(getattr(fixtures, name)(), map_label=f"{name}.json")
    assert rep.render() == ref["text"]
    assert rep.exit_code == ref["exit_code"]


@pytest.mark.parametrize("count", ["samples", "certificate_samples"])
@pytest.mark.parametrize("name", ["map_collapse", "map_bad"])
def test_verify_refuses_a_negative_sample_count(name, count, monkeypatch):
    """A negative certificate count would check no round trip and still
    render "0 sampled fibers isomorphic" under TheoremConsistent, and the
    refuted route draws no samples at all: either count is refused before
    any fiber is built."""
    from plcontrol import verify

    monkeypatch.setattr(verify, "fiber_over_barycenter", lambda *args: pytest.fail("built a fiber"))
    with pytest.raises(MalformedInputError, match=f"^{count} must be >= 0, got -3"):
        run_verify(getattr(fixtures, name)(), **{count: -3})


def test_malformed_tolerance_and_sample_count_raise():
    """A NaN, infinite or negative tolerance would turn every control row
    into a refutation, and a negative sample count draws nothing."""
    f = fixtures.map_collapse()
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(MalformedInputError, match="tolerance must be finite and >= 0"):
            run_verify(f, tol=tol)
    with pytest.raises(MalformedInputError, match="samples must be >= 0"):
        sample_points(f.target, -5)
    with pytest.raises(MalformedInputError, match="samples must be >= 0"):
        run_verify(f, samples=-5, certificate_samples=5)
    assert len(sample_points(f.target, 0)) == len(f.target.simplices)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "collapse.json", "--tol", "nan"],
        ["verify", "collapse.json", "--tol", "-1"],
        ["verify", "collapse.json", "--tol", "inf"],
        ["verify", "collapse.json", "--samples", "-5"],
        ["measure-control", "collapse.json", "--epsilon", "0.1", "--samples", "-5"],
        ["inverse", "collapse.json", "--epsilon", "0.1", "--samples", "-5"],
        ["verify", "collapse.json", "--tol", "-inf"],
        ["verify", "collapse.json", "--tol", "-nan"],
    ],
)
def test_cli_reports_a_malformed_tolerance_or_sample_count(tmp_path, capsys, argv):
    write_fixture_files(tmp_path)
    code = main([argv[0], str(tmp_path / argv[1]), *argv[2:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and ("tolerance" in captured.err or "samples" in captured.err)
    assert "overall:" not in captured.out and "Traceback" not in captured.err


def test_prism1_render_is_pinned():
    """The default verify of Prism(1), as scripts/ladder.py runs it, renders
    the text whose sha256 was recorded before any sample-kernel change."""
    r = load_script("ladder").rung(1)
    assert (r["source"], r["target"], r["overall"]) == (123, 25, THEOREM_CONSISTENT)
    assert r["sha256"] == "47953f2c7372b9349f40efb38a1cb7ca17d1c5929b36db3e66e11efb96cafd3f"


def test_verify_report_deterministic():
    a = run_verify(fixtures.map_collapse(), samples=20, certificate_samples=10, seed=3)
    b = run_verify(fixtures.map_collapse(), samples=20, certificate_samples=10, seed=3)
    assert a.render() == b.render()


# -- svg ---------------------------------------------------------------------------

def test_svg_cellulation_census(tmp_path, D2):
    cel = build_cellulation(D2, 0.1)
    out = tmp_path / "d2.svg"
    emit_svg(cel, out, positions=fixtures.D2_POSITIONS)
    text = out.read_text()
    assert text.count("<polygon") == 10
    assert text.count("<line") == 21
    assert text.count("<circle") == 12  # 43 cells in total
    emit_svg(cel, tmp_path / "again.svg", positions=fixtures.D2_POSITIONS)
    assert (tmp_path / "again.svg").read_bytes() == out.read_bytes()


def test_svg_single_vertex(tmp_path):
    K = closure_complex([("a",)])
    out = tmp_path / "pt.svg"
    emit_svg(K, out)
    assert out.read_text().count("<circle") == 1


def test_svg_proj_collar(tmp_path):
    Y = fixtures.proj_Y()
    cel = build_cellulation(Y, 0.05)
    out = tmp_path / "y.svg"
    emit_svg(cel, out, positions=fixtures.PROJ_Y_POSITIONS)
    text = out.read_text()
    assert text.count("<polygon") == len([c for c in cel.cells if c.dim == 2])
    assert "#f5e3c3" in text  # collar fill differs from the interior fill


def test_svg_rejects_high_dimension(tmp_path):
    K = closure_complex([("a", "b", "c", "d")])
    with pytest.raises(UnsupportedDimensionError):
        emit_svg(K, tmp_path / "no.svg")


def test_census_report(D2):
    cel = build_cellulation(D2, 0.1)
    text = census_report(cel)
    assert "cells: 43" in text
    assert "dim 0: 12, dim 1: 21, dim 2: 10" in text
    assert "euler characteristic: 1" in text


# -- CLI ----------------------------------------------------------------------------

def test_cli_check_fibers(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(["check-fibers", str(tmp_path / "collapse.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "contractible" in out
    code = main(["check-fibers", str(tmp_path / "bad.json")])
    assert code == 1


def test_cli_cellulate(tmp_path, capsys):
    write_fixture_files(tmp_path)
    svg = tmp_path / "out.svg"
    code = main(["cellulate", str(tmp_path / "d2.json"), "--epsilon", "0.1", "--svg", str(svg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cells: 43" in out
    assert svg.exists()


def test_cli_inverse_text_is_pinned(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(["inverse", str(tmp_path / "collapse.json"), "--epsilon", "0.1"])
    assert code == 0
    assert capsys.readouterr().out == (
        "g_eps on the barycenters of the target (eps=0.1):\n"
        "  {a}                      -> a:1.000000\n"
        "  {b}                      -> c:1.000000\n"
        "  {a,b}                    -> a:0.500000, c:0.500000\n"
        "control 0.099667338 (target eps 0.100000000, 203 samples)\n"
    )


def test_cli_inverse(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        [
            "inverse", str(tmp_path / "collapse.json"), "--epsilon", "0.1",
            "--point", '{"simplex": ["a", "b"], "coords": [0.5, 0.5]}', "--samples", "40",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        'g_eps({"simplex": ["a", "b"], "coords": [0.5, 0.5]}) = {\'a\': 0.5, \'c\': 0.5}\n'
        "control 0.095864766 (target eps 0.100000000, 43 samples)\n"
    )


def test_cli_measure_control(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(["measure-control", str(tmp_path / "collapse.json"), "--epsilon", "0.1", "--samples", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g_eps" in out and "h1_eps" in out and "h2_eps" in out


@pytest.mark.parametrize("args", [("0.1", "60", "0"), ("0.05", "30", "3")])
def test_cli_measure_control_matches_three_measure_control_calls(tmp_path, capsys, args):
    write_fixture_files(tmp_path)
    eps, samples, seed = args
    path = tmp_path / "collapse.json"
    code = main(["measure-control", str(path), "--epsilon", eps, "--samples", samples, "--seed", seed])
    old = control_oracle.measure_control_text(load_map(path), float(eps), int(samples), int(seed))
    assert (capsys.readouterr().out, code) == old


def test_cli_verify_exit_codes(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(["verify", str(tmp_path / "collapse.json"), "--samples", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: TheoremConsistent" in out
    code = main(["verify", str(tmp_path / "bad.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "{a,b}" in out


def test_cli_verify_custom_schedule(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        ["verify", str(tmp_path / "collapse.json"), "--schedule", "0.1,0.05", "--samples", "20"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.100000000" in out and "0.050000000" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["cellulate", "d2.json", "--epsilon", "5"],
        ["inverse", "collapse.json", "--epsilon", "5"],
        ["measure-control", "collapse.json", "--epsilon", "nan"],
        ["verify", "collapse.json", "--schedule", "5"],
        ["cellulate", "d2.json", "--epsilon", "-inf"],
        ["measure-control", "collapse.json", "--epsilon", "-1e-3"],
    ],
)
def test_cli_reports_an_eps_out_of_range(tmp_path, capsys, argv):
    write_fixture_files(tmp_path)
    code = main([argv[0], str(tmp_path / argv[1]), *argv[2:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: eps=") and "outside (0, comesh=" in err
    assert "Traceback" not in err


def test_verify_rejects_an_empty_or_out_of_range_schedule(tmp_path, capsys, monkeypatch):
    """Before any product certificate: an empty schedule would leave the
    control table empty, and an eps outside (0, comesh) has no cellulation."""
    from plcontrol import EpsilonRangeError, maps, verify

    certified = []
    real = maps.verify_product_decomposition
    monkeypatch.setattr(verify, "verify_product_decomposition", lambda *a, **k: certified.append(a) or real(*a, **k))
    f = fixtures.map_collapse()
    with pytest.raises(MalformedInputError, match="empty eps schedule"):
        run_verify(f, schedule=[])
    for schedule in ([0.1, float("nan")], [0.1, 5.0], [-0.1]):
        with pytest.raises(EpsilonRangeError, match="outside"):
            run_verify(f, schedule=schedule)
    assert certified == []
    assert run_verify(fixtures.map_bad(), schedule=[]).overall == COUNTEREXAMPLE

    write_fixture_files(tmp_path)
    assert main(["verify", str(tmp_path / "collapse.json"), "--schedule", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: empty eps schedule")


def test_cli_cone_distance(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        [
            "cone-distance", str(tmp_path / "d2.json"),
            '{"simplex": ["a"], "coords": [1.0]}', "2.0",
            '{"simplex": ["b"], "coords": [1.0]}', "2.0",
        ]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == f"{2 * np.sqrt(2):.9f}"


def test_cli_cone_distance_negative_heights(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(
        [
            "cone-distance", str(tmp_path / "d2.json"),
            '{"simplex": ["a"], "coords": [1.0]}', "-1.0",
            '{"simplex": ["b"], "coords": [1.0]}', "-3.0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "2.000000000"


def test_cli_lift(tmp_path, capsys):
    write_fixture_files(tmp_path)
    track = {
        "times": [0.0, 1.0],
        "points": [
            {"simplex": ["a"], "coords": [1.0]},
            {"simplex": ["b"], "coords": [1.0]},
        ],
    }
    (tmp_path / "track.json").write_text(json.dumps(track))
    code = main(
        ["lift", str(tmp_path / "collapse.json"), str(tmp_path / "track.json"), "--epsilon", "0.2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "max discrepancy" in out


def test_cli_lift_rejects_negative_steps(tmp_path, capsys):
    """``--steps -1`` ended in numpy's ValueError traceback."""
    write_fixture_files(tmp_path)
    track = tmp_path / "track.json"
    track.write_text(json.dumps({"times": [0.0, 1.0], "points": [{"simplex": ["a"], "coords": [1.0]}] * 2}))
    code = main(["lift", str(tmp_path / "collapse.json"), str(track), "--steps", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: steps must be >= 0")


def test_cli_lift_text_is_pinned(tmp_path, capsys):
    """The two-point track of test_cli_lift, through load_track,
    approximate_lift, h1 and g."""
    write_fixture_files(tmp_path)
    track = {"times": [0.0, 1.0], "points": [{"simplex": ["a"], "coords": [1.0]}, {"simplex": ["b"], "coords": [1.0]}]}
    (tmp_path / "track.json").write_text(json.dumps(track))
    code = main(["lift", str(tmp_path / "collapse.json"), str(tmp_path / "track.json"), "--epsilon", "0.2"])
    assert code == 0
    assert capsys.readouterr().out == (
        "approximate lift with eps=0.2: max discrepancy 0.138309986\n"
        "  t=0.0000  a:1.000000\n"
        "  t=0.1250  a:0.972800, c:0.027200\n"
        "  t=0.2500  a:0.822063, c:0.177937\n"
        "  t=0.3750  a:0.671326, c:0.328674\n"
        "  t=0.5000  a:0.520589, c:0.479411\n"
        "  t=0.6250  a:0.369853, c:0.630147\n"
        "  t=0.7500  a:0.219116, c:0.780884\n"
        "  t=0.8750  a:0.068379, c:0.931621\n"
        "  t=1.0000  c:1.000000\n"
    )


def test_cli_missing_file(capsys):
    code = main(["check-fibers", "/nonexistent/map.json"])
    assert code == 1
    assert "file not found" in capsys.readouterr().err


_POINT = '{"simplex": ["a"], "coords": [1.0]}'
# a listed vertex in no simplex, and a map on that complex
_STRAY = {
    "k.json": {"vertices": ["a", "b"], "simplices": [["a"]]},
    "m.json": {"source": "k.json", "target": "k.json", "vertex_map": {"a": "a", "b": "b"}},
}


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({}, ["verify", "collapse.json", "--schedule", "abc"], "--schedule takes comma-separated numbers"),
        ({"track.json": [0.0, 1.0]}, ["lift", "collapse.json", "track.json"], "top level must be a JSON object"),
        ({"k.json": {"simplices": [5]}}, ["cellulate", "k.json", "--epsilon", "0.1"], "'simplices' must be a list"),
        ({"k.json": {"simplices": "abc"}}, ["cellulate", "k.json", "--epsilon", "0.1"], "'simplices' must be a list"),
        (
            {"m.json": {"source": "d2.json", "target": "d1.json", "vertex_map": ["a"]}},
            ["check-fibers", "m.json"],
            "malformed 'vertex_map'",
        ),
        (
            {"k.json": {"simplices": [["a"]], "positions": {"a": [0]}}},
            ["cellulate", "k.json", "--epsilon", "0.1"],
            "'positions' must map every vertex",
        ),
        (
            {"k.json": {"simplices": [["a", "b"], ["a"], ["b"]], "positions": {"a": [0, 0]}}},
            ["cellulate", "k.json", "--epsilon", "0.1", "--svg", "k.svg"],
            "'positions' must map every vertex",
        ),
        ({}, ["inverse", "collapse.json", "--epsilon", "0.1", "--samples", "-3"], "samples must be >= 0"),
        ({}, ["cone-distance", "d2.json", "5", "1.0", _POINT, "1.0"], "point needs 'simplex' and 'coords'"),
        ({}, ["verify", "collapse.json", "--seed", "-1"], "seed must be >= 0"),
        ({}, ["measure-control", "collapse.json", "--epsilon", "0.1", "--seed", "-1"], "seed must be >= 0"),
        (_STRAY, ["cellulate", "k.json", "--epsilon", "0.1"], "'b' lies in no simplex"),
        (_STRAY, ["check-fibers", "m.json"], "'b' lies in no simplex"),
        (_STRAY, ["verify", "m.json"], "'b' lies in no simplex"),
        (
            {"m.json": {"source": "d1.json", "target": "d1.json", "vertex_map": {"a": "a", "b": "b", "zz": "b"}}},
            ["verify", "m.json"],
            "m.json: vertex map names 'zz', which is not a source vertex",
        ),
        (
            {"track.json": {"times": [0.0, float("nan"), 1.0], "points": [json.loads(_POINT)] * 3}},
            ["lift", "collapse.json", "track.json"],
            "track.json: times must be numbers increasing from 0 to 1",
        ),
    ],
)
def test_cli_reports_malformed_input_without_output(tmp_path, capsys, monkeypatch, files, argv, message):
    """Each of these ended in a traceback (ValueError, AttributeError,
    TypeError, IndexError or KeyError), was read silently (a string of
    simplices as one-vertex simplices, a listed vertex in no simplex, a
    vertex-map entry for no source vertex, a NaN track time, which then
    failed as a non-finite weight naming neither file nor field), or
    printed the g_eps table before its error; each now exits 1 with an
    error line and prints nothing."""
    write_fixture_files(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_cli_reports_an_unwritable_svg_path(tmp_path, capsys):
    """A FileNotFoundError traceback at the parent."""
    write_fixture_files(tmp_path)
    code = main(["cellulate", str(tmp_path / "d2.json"), "--epsilon", "0.1", "--svg", str(tmp_path / "no" / "x.svg")])
    captured = capsys.readouterr()
    assert code == 1 and "wrote" not in captured.out
    assert captured.err.startswith("error: ") and "x.svg" in captured.err


def test_console_entrypoint_runs():
    # the child finds the package where this process imported it, installed or not
    import plcontrol

    path = os.pathsep.join(filter(None, [str(Path(plcontrol.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plcontrol.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "check-fibers" in proc.stdout


def test_readme_scripts_run(tmp_path):
    import plcontrol

    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(Path(plcontrol.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for script, cwd in [(["write_fixtures.py", "--out", str(tmp_path)], None), (["reproduce_worked_example.py"], tmp_path)]:
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / script[0]), *script[1:]],
            capture_output=True, text=True, env=env, cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "proj_cellulation.svg").exists()
    assert main(["check-fibers", str(tmp_path / "proj_map.json")]) == 0


def test_code_line_counter_skips_blanks_comments_and_docstrings():
    counter = load_script("count_code_lines")
    source = (
        '"""Module\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "def f(x):  # counted\n"
        '    """Function docstring."""\n'
        "    s = '''a string\n"
        "    that is not a docstring'''\n"
        "    return (x,\n"
        "\n"
        "            s)\n"
    )
    assert counter.code_lines(source) == 5


def test_token_counter_counts_every_token_tokenize_reads():
    """ENCODING, NAME, OP, NUMBER, COMMENT and NEWLINE, then NL for the
    blank line and ENDMARKER; an empty source holds the first and last."""
    counter = load_script("count_code_lines")
    assert counter.token_count("x = 1  # one\n\n") == 8
    assert counter.token_count("") == 2


def _result_line(wall_s: float, rss: float, correct: bool = True) -> dict:
    """A result line of perfbench/run.py, as json.loads returns it."""
    return {
        "correct": correct, "attempted": 9, "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }


def test_ab_pairs_summary_on_canned_result_lines():
    """Medians, quartiles and pairs won per metric, in the direction the
    benchmark declares; no summary when any run is not correct."""
    ab = load_script("ab_pairs")
    parent = [_result_line(w, 40.0) for w in (4.0, 4.4, 4.2, 4.6, 4.8)]
    change = [_result_line(w, r) for w, r in ((3.0, 41.0), (3.4, 39.0), (4.3, 41.0), (3.2, 41.0), (3.6, 41.0))]
    lines = ab.summarize(parent, change, {"wall_s": "lower", "peak_rss_mb": "lower"})
    assert lines == [
        "wall_s: parent median 4.4000 (q1 4.2000, q3 4.6000), change median 3.4000 "
        "(q1 3.2000, q3 3.6000), -22.7 %, change better in 4/5 pairs (lower is better)",
        "peak_rss_mb: parent median 40.0000 (q1 40.0000, q3 40.0000), change median 41.0000 "
        "(q1 41.0000, q3 41.0000), +2.5 %, change better in 1/5 pairs (lower is better)",
    ]
    higher = ab.summarize(parent, change, {"wall_s": "higher"})
    assert higher[0].endswith("change better in 1/5 pairs (higher is better)")
    change[3] = _result_line(3.2, 41.0, correct=False)
    with pytest.raises(ValueError, match="not correct: change run 3"):
        ab.summarize(parent, change, {"wall_s": "lower"})
    with pytest.raises(ValueError, match="same positive number"):
        ab.summarize(parent, change[:4], {"wall_s": "lower"})
    root = Path(__file__).parents[1]
    assert set(ab.directions(root)) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_ab_pairs_verdicts_on_canned_result_lines():
    """Within bound, worse beyond it, and unresolved when the parent's runs
    spread wider than the bound, unless every change run beats every parent
    run."""
    ab = load_script("ab_pairs")
    parent = [_result_line(w, 40.0) for w in (4.0, 4.4, 4.2, 4.6, 4.8)]  # wall_s spread 0.4 / 4.4
    change = [_result_line(w, r) for w, r in ((3.0, 41.0), (3.4, 39.0), (4.3, 41.0), (3.2, 41.0), (3.6, 41.0))]

    def spec(wall_bound, rss_bound=0.01):
        return [
            {"name": "wall_s", "better": "lower", "bound": wall_bound},
            {"name": "peak_rss_mb", "better": "lower", "bound": rss_bound},
        ]

    assert ab.verdicts(parent, change, spec(0.2)) == [
        "wall_s: within bound (median -22.73% worse, parent spread 9.09%, bound 20.00%)",
        "peak_rss_mb: worse beyond bound (median +2.50% worse, parent spread 0.00%, bound 1.00%)",
    ]
    assert ab.verdicts(parent, change, spec(0.2, rss_bound=0.1))[1].startswith("peak_rss_mb: within bound")
    # 4.3 does not beat the parent's 4.0, so a 5 % bound is not resolved
    assert ab.verdicts(parent, change, spec(0.05))[0].startswith("wall_s: unresolved")
    change[2] = _result_line(3.9, 41.0)
    assert ab.verdicts(parent, change, spec(0.05))[0].startswith("wall_s: within bound")
    slower = [_result_line(w, 40.0) for w in (4.0, 4.4, 4.2, 4.6, 4.8)]
    assert ab.verdicts(parent, slower, [{"name": "wall_s", "better": "higher", "bound": 0.05}]) == [
        "wall_s: unresolved (median +0.00% worse, parent spread 9.09%, bound 5.00%)"
    ]


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_ab_pairs_refuses_a_checkout_that_holds_bytecode(cached, tmp_path, monkeypatch, capsys):
    """Bytecode in one checkout only would speed up that side's timed
    imports, so the script stops before any run."""
    ab = load_script("ab_pairs")
    monkeypatch.setattr(ab, "run_once", lambda *args: pytest.fail("ran a benchmark"))
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "plcontrol").mkdir(parents=True)
    (tmp_path / cached / "src" / "plcontrol" / "__pycache__").mkdir()
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "verify_fixtures"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / cached) in err


def _cyclic_garbage() -> list[tuple[type, int]]:
    """(type, id) of every object only reference cycles keep alive; the
    objects themselves are then freed."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [(type(o), id(o)) for o in gc.garbage]
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.collect()


def test_runs_leave_no_cyclic_garbage(tmp_path):
    """Caches point one way: a finished run frees its complexes by reference
    counting, the target with the cellulations the run built on it (each
    names the target, which names it) included, and with them every point
    and flag cell they hold."""
    write_fixture_files(tmp_path)
    save_complex(fixtures.proj_X(), tmp_path / "proj_x.json")
    save_complex(fixtures.proj_Y(), tmp_path / "proj_y.json")
    save_map(fixtures.proj_map(), tmp_path / "proj.json", "proj_x.json", "proj_y.json")
    gc.collect()
    gc.disable()
    try:
        for name in ("proj.json", "collapse.json"):
            f = load_map(tmp_path / name)
            report = run_verify(f, samples=30, certificate_samples=15)
            del f, report
            kinds = (types.FunctionType, types.CellType, SimplicialMap, FiberComplex, SimplicialComplex, Point, FlagCell)
            assert not [t for t, _ in _cyclic_garbage() if issubclass(t, kinds)]

        f = load_map(tmp_path / "proj.json")
        for sigma in f.target.sorted_simplices():
            fiber_over_barycenter(f, sigma).verdict
        del f
        assert gc.collect() == 0

        K = barycentric_subdivision(barycentric_subdivision(fixtures.d2())[0])[0]
        p, q = vertex_point(K, "{{a}}"), vertex_point(K, "{{b}}")
        assert 0.0 < distance(K, p, q) < float("inf")
        del K, p, q
        assert gc.collect() == 0

        # the CLI, as the benchmark calls it: the parser is built once
        a, b = '{"simplex":["a"],"coords":[1.0]}', '{"simplex":["b","c"],"coords":[0.5,0.5]}'
        for argv in (
            ["check-fibers", str(tmp_path / "collapse.json")],
            ["cone-distance", str(tmp_path / "d2.json"), a, "1.0", b, "2.0"],
        ):
            assert main(argv) == 0
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- degenerate shapes through the pipeline ------------------------------------------

def test_verify_map_onto_single_vertex():
    """A 0-dimensional target has no positive-dimensional simplex, so the
    comesh is infinite; schedules fall back to a unit base and everything
    has zero control."""
    from plcontrol import SimplicialMap

    T = closure_complex([("a", "b", "c", "d")])
    P = closure_complex([("p",)])
    f = SimplicialMap(T, P, {v: "p" for v in T.vertex_order})
    rep = run_verify(f, samples=10, certificate_samples=5)
    assert rep.exit_code == 0
    assert rep.bound <= 1e-9


def test_verify_disconnected_components():
    from plcontrol import SimplicialMap

    S = closure_complex([("a", "b"), ("x", "y")])
    T = closure_complex([("u",), ("v",)])
    f = SimplicialMap(S, T, {"a": "u", "b": "u", "x": "v", "y": "v"})
    rep = run_verify(f, samples=8, certificate_samples=4)
    assert rep.exit_code == 0


def test_verify_nonsurjective_map_refuted():
    from plcontrol import SimplicialMap, surjectivity_check

    S = closure_complex([("a", "b")])
    T = closure_complex([("u",), ("v",)])
    f = SimplicialMap(S, T, {"a": "u", "b": "u"})
    assert [s.vertices for s in surjectivity_check(f)] == [("v",)]
    rep = run_verify(f, samples=6)
    assert rep.exit_code == 1
    assert any(v.kind == "not_contractible" for v in rep.fiber_verdicts.values())
