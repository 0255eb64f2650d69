"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests
"""

import copy
import gzip
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from plcontrol import (  # noqa: E402
    barycenter,
    closure_complex,
    contractibility_verdict,
    fiber_over_barycenter,
    parse_point,
    save_complex,
    save_map,
)
from plcontrol.fixtures import d2, proj_Y  # noqa: E402
from plcontrol.metrics import shared_carrier  # noqa: E402
from workload import Loop, fibers_op, load_reference  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 3),
        ("e", 7.5, 8.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    totals = tracing.group_totals(spans + [("a", 11.0, 12.5, -1)])
    assert totals["a"] == (2, pytest.approx(3.5))


@pytest.fixture(scope="module")
def map_bad_path(tmp_path_factory):
    return inputs.write_inputs("verify_fixtures", 0, tmp_path_factory.mktemp("vf"))[2]


def _run(path, reference, batches=2):
    loop = Loop("verify_fixtures", 0, [path], reference)
    for _ in range(batches):
        loop.run_batch()
    return loop


def test_recorded_reference_passes(map_bad_path):
    assert _run(map_bad_path, load_reference(BENCH / "reference.json", "verify_fixtures")).fail_ratio == 0.0


@pytest.mark.parametrize("field,value", [("text", "overall: TheoremConsistent\n"), ("exit_code", 0), ("kinds", {})])
def test_corrupted_reference_fails_every_operation(map_bad_path, field, value):
    reference = copy.deepcopy(load_reference(BENCH / "reference.json", "verify_fixtures"))
    reference["map_bad"][field] = value
    loop = _run(map_bad_path, reference)
    assert loop.attempted == 2
    assert loop.fail_ratio == 1.0


@pytest.mark.parametrize("text,fail_ratio", [(None, 0.0), ("0.000000000\n", 1.0)])
def test_seed_free_text_is_checked_for_every_seed(map_bad_path, text, fail_ratio):
    reference = copy.deepcopy(load_reference(BENCH / "reference.json", "verify_fixtures"))
    if text is not None:
        reference["sd2_d2"]["text"] = text
    loop = Loop("verify_fixtures", 5, [map_bad_path.parent / "sd2_d2.json"], reference)
    loop.run_batch()
    assert loop.fail_ratio == fail_ratio


def test_timeout_counts_as_failure(map_bad_path, monkeypatch):
    import workload

    def stuck(path, seed):
        while True:
            pass

    monkeypatch.setitem(workload.OPERATIONS, "verify", stuck)
    monkeypatch.setattr(workload, "OP_LIMIT_S", 0.2)
    loop = Loop("verify_fixtures", 0, [map_bad_path], {})
    loop.run_batch()
    assert loop.fail_ratio == 1.0
    assert "limit" in loop.failures[0][1]


def test_small_prism():
    f = inputs.prism_map(0)
    inputs.check_sizes(f, 31, 7, fibers=[3, 3, 3, 5, 5, 5, 7])
    for s in f.target.sorted_simplices():
        assert contractibility_verdict(fiber_over_barycenter(f, s).triangulation).kind == "contractible"
    inputs.check_sizes(inputs.prism_map(1), 123, 25)


def test_sizing_slip_fails_loudly():
    with pytest.raises(ValueError):
        inputs.check_sizes(inputs.prism_map(0), 31, 7, fibers=[3, 3, 3, 5, 5, 5, 8])
    with pytest.raises(ValueError):
        inputs.check_sizes(inputs.slab_map(1), 124, 3)


def test_cone_distance_points_share_no_simplex():
    K = inputs.sd(d2(), 2)
    a, b = parse_point(K, inputs.CONE_ARGS[0]), parse_point(K, inputs.CONE_ARGS[2])
    assert shared_carrier(K, a, b) is None  # so distance takes the Steiner-graph path


def test_speed_clock_probes_and_restores_sigprof():
    import signal

    previous = signal.getsignal(signal.SIGPROF)
    clock = speed.SpeedClock()
    clock.start()
    try:
        r0, t0 = clock.now(), time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            speed.probe()
        reference, raw = clock.now() - r0, time.perf_counter() - t0
        ticks = clock._state
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGPROF) == previous
    assert ticks[1] > t0  # the handler probed while the loop ran
    assert 0.2 < reference / raw < 5.0


def _write(f, directory, stem):
    save_complex(f.source, directory / f"{stem}.source.json")
    save_complex(f.target, directory / f"{stem}.target.json")
    save_map(f, directory / f"{stem}.json", f"{stem}.source.json", f"{stem}.target.json")
    return directory / f"{stem}.json"


@pytest.mark.parametrize("seed", [0, 7])
def test_small_slab_check_fibers(tmp_path, seed):
    f = inputs.slab_map(1)
    inputs.check_sizes(f, 123, 3, fibers=[25, 25, 85])
    if seed:
        f = inputs.permuted(f, random.Random(seed))
    out = fibers_op(_write(f, tmp_path, "slab1"), seed)
    assert out.exit_code == 0
    assert out.kinds == {"0": "contractible", "1": "contractible", "0,1": "contractible"}


def test_rp2_is_refuted_by_torsion():
    f = inputs.rp2_map(0)
    v = contractibility_verdict(fiber_over_barycenter(f, f.target.sorted_simplices()[0]).triangulation)
    assert (v.kind, v.reason) == ("not_contractible", "torsion in degree 1")


def test_tracing_counts_and_undo(tmp_path):
    import plcontrol.cellulation as cellulation
    import plcontrol.contract as contract
    import plcontrol.metrics as metrics
    import plcontrol.verify as verify

    originals = (contract.greedy_collapse, verify.fiber_over_barycenter)
    path = _write(inputs.slab_map(1), tmp_path, "slab1")
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        fibers_op(path, 0)
        Y = closure_complex([s.vertices for s in proj_Y().simplices_of_dim(2)])  # no cached state
        inner, outer = barycenter(Y, Y.simplex(["0", "e1", "e1+e2"])), barycenter(Y, Y.simplex(["0", "e2", "e1+e2"]))
        metrics.distance(Y, inner, inner)
        metrics.distance(Y, inner, outer)  # no common simplex: the Steiner-graph path
        for _ in range(2):  # one cold build, then a cache hit
            cellulation.build_cellulation(Y, 0.05)
    finally:
        patch.undo()
    assert (contract.greedy_collapse, verify.fiber_over_barycenter) == originals
    m = tracing.layer_metrics(tracer)
    assert m["contract.collapse.calls"] == 3
    assert m["contract.collapse.complete_ratio"] == 1.0
    assert m["contract.homology.simplices"] == 25 + 25 + 85
    assert m["maps.fiber.calls"] == 3
    assert m["cellulation.invert.calls"] == 0
    assert m["contract.collapse.self_s"] > 0.0
    assert (m["metrics.distance.calls"], m["metrics.distance.steiner_share"]) == (2, 0.5)
    assert (m["cellulation.build.calls"], m["cellulation.build.cold"], m["cellulation.build.hit_ratio"]) == (2, 1, 0.5)
    assert m["cellulation.cells"] == len(cellulation.build_cellulation(Y, 0.05).cells) > 0
    out = tmp_path / "trace.json.gz"
    tracer.write(out, {"metrics": m})
    doc = json.load(gzip.open(out, "rt"))
    assert len(doc["span_start"]) == len(doc["span_parent"]) > 0
