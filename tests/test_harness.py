import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plcontrol import (
    FileFormatError,
    MalformedInputError,
    UnsupportedDimensionError,
    build_cellulation,
    census_report,
    closure_complex,
    emit_svg,
    load_complex,
    load_map,
    parse_point,
    save_complex,
    save_map,
    run_verify,
)
from plcontrol import fixtures
from plcontrol.cli import main
from plcontrol.verify import COUNTEREXAMPLE, THEOREM_CONSISTENT, UNKNOWN


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
    with pytest.warns(UserWarning, match="closure added"):
        K = load_complex(p)
    assert len(K.simplices) == 7


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
    assert p.coord_of("a") == 0.75 and p.coord_of("b") == 0.25


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
    real = contract.homology
    monkeypatch.setattr(contract, "homology", lambda K: calls.append(K) or real(K))
    f = fixtures.map_collapse.__wrapped__()
    rep = run_verify(f, samples=10)
    assert rep.overall == THEOREM_CONSISTENT
    assert len(calls) == len(f.target.simplices) == 3


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
    assert "g_eps(" in out and "control" in out


def test_cli_measure_control(tmp_path, capsys):
    write_fixture_files(tmp_path)
    code = main(["measure-control", str(tmp_path / "collapse.json"), "--epsilon", "0.1", "--samples", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g_eps" in out and "h1_eps" in out and "h2_eps" in out


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


def test_cli_missing_file(capsys):
    code = main(["check-fibers", "/nonexistent/map.json"])
    assert code == 1
    assert "file not found" in capsys.readouterr().err


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
