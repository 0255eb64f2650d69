"""Input generator: the benchmark's maps and complexes, built from public
API and written as the JSON files the CLI reads.

verify_fixtures runs `verify` on the bundled fixture maps, with its seed
passed to `run_verify`, and `cone-distance` between two far-apart points of
Sd^2(D2), which share no simplex (the Steiner-graph path of `distance`).
fibers_slab runs on the slab Sd^2(D2) x [0,1] -> [0,1] and on
Sd^2(RP^2_6) -> point, whose one fiber has Z/2 torsion in H1; its seed
permutes the vertex orders of both maps, which changes no verdict but does
change the collapse and pivot order (seed 0 keeps the generated order).
Products use the staircase triangulation.  Prism(k), the projection
Sd^k(D2) x [0,1] -> Sd^k(D2), is built for the tests.
"""

from __future__ import annotations

import random
from pathlib import Path

from plcontrol import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    closure_complex,
    fiber_over_barycenter,
    save_complex,
    save_map,
)
from plcontrol.fixtures import d2, map_bad, map_collapse, proj_map

# the 6-vertex real projective plane
RP2_6 = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")

# (file stem, operation) of one batch of each workload, in batch order
BATCHES = {
    "verify_fixtures": (
        ("proj_map", "verify"),
        ("map_collapse", "verify"),
        ("map_bad", "verify"),
        ("sd2_d2", "cone_distance"),
    ),
    "fibers_slab": (("slab2", "check_fibers"), ("rp2_sd2", "check_fibers")),
}

# the cone-distance arguments after the complex: points in the corner
# triangles of Sd^2(D2) at a and at c, at heights 1 and 2
CONE_ARGS = (
    '{"simplex": ["{{a}}", "{{a},{a,b}}", "{{a},{a,b},{a,b,c}}"], "coords": [0.5, 0.25, 0.25]}',
    "1.0",
    '{"simplex": ["{{c}}", "{{c},{b,c}}", "{{c},{b,c},{a,b,c}}"], "coords": [0.5, 0.25, 0.25]}',
    "2.0",
)


def sd(K: SimplicialComplex, rounds: int) -> SimplicialComplex:
    for _ in range(rounds):
        K, _ = barycentric_subdivision(K)
    return K


def top_simplices(K: SimplicialComplex):
    """The maximal simplices of a pure complex (every complex built here is
    pure), without the quadratic scan of `maximal_simplices`."""
    return K.simplices_of_dim(K.dimension)


def staircase_product(K: SimplicialComplex) -> SimplicialComplex:
    """K x [0,1] on the vertices v@0, v@1: each maximal simplex (v0..vn), in
    K's vertex order, contributes the facets (v0@0..vi@0, vi@1..vn@1)."""
    facets = []
    for m in top_simplices(K):
        vs = m.vertices
        for i in range(len(vs)):
            facets.append(tuple(f"{v}@0" for v in vs[: i + 1]) + tuple(f"{v}@1" for v in vs[i:]))
    order = [f"{v}@0" for v in K.vertex_order] + [f"{v}@1" for v in K.vertex_order]
    return closure_complex(facets, vertex_order=order)


def prism_map(k: int) -> SimplicialMap:
    Y = sd(d2(), k)
    X = staircase_product(Y)
    return SimplicialMap(X, Y, {v: v.rsplit("@", 1)[0] for v in X.vertex_order})


def slab_map(k: int) -> SimplicialMap:
    X = staircase_product(sd(d2(), k))
    return SimplicialMap(X, closure_complex([("0", "1")]), {v: v.rsplit("@", 1)[1] for v in X.vertex_order})


def rp2_map(k: int) -> SimplicialMap:
    X = sd(closure_complex([tuple(f) for f in RP2_6]), k)
    return SimplicialMap(X, closure_complex([("pt",)]), {v: "pt" for v in X.vertex_order})


def permuted(f: SimplicialMap, rng: random.Random) -> SimplicialMap:
    """The same map with the vertex orders of both complexes shuffled."""

    def shuffle(K: SimplicialComplex) -> SimplicialComplex:
        order = list(K.vertex_order)
        rng.shuffle(order)
        return closure_complex([s.vertices for s in top_simplices(K)], vertex_order=order)

    return SimplicialMap(shuffle(f.source), shuffle(f.target), dict(f.vertex_map))


def fiber_sizes(f: SimplicialMap) -> list[int]:
    return [len(fiber_over_barycenter(f, s).triangulation.simplices) for s in f.target.sorted_simplices()]


def check_sizes(f: SimplicialMap, source: int, target: int, fibers: list[int] | None = None) -> None:
    """Raise when a generated map does not have the stated size."""
    got = (len(f.source.simplices), len(f.target.simplices))
    if got != (source, target):
        raise ValueError(f"generated map has {got[0]}/{got[1]} simplices, expected {source}/{target}")
    if fibers is not None and (sizes := fiber_sizes(f)) != fibers:
        raise ValueError(f"generated fibers have {sizes} simplices, expected {fibers}")


def workload_inputs(workload: str, seed: int) -> list[SimplicialMap | SimplicialComplex]:
    """The map or complex of each operation of one batch, in batch order."""
    if workload == "verify_fixtures":
        disc = sd(d2(), 2)
        if len(disc.simplices) != 121:
            raise ValueError(f"generated Sd^2(D2) has {len(disc.simplices)} simplices, expected 121")
        return [proj_map(), map_collapse(), map_bad(), disc]
    if workload == "fibers_slab":
        slab, rp2 = slab_map(2), rp2_map(2)
        check_sizes(slab, 627, 3, fibers=[121, 121, 457])
        check_sizes(rp2, 1081, 1)
        if seed:
            rng = random.Random(seed)
            slab, rp2 = permuted(slab, rng), permuted(rp2, rng)
        return [slab, rp2]
    raise ValueError(f"unknown workload {workload!r}")


def input_paths(workload: str, directory: Path) -> list[Path]:
    """The file each operation of one batch reads, in batch order."""
    return [directory / f"{stem}.json" for stem, _ in BATCHES[workload]]


def write_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write each map of the workload as <stem>.json with its complexes
    beside it, and each complex as <stem>.json; return `input_paths`."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = input_paths(workload, directory)
    for path, f in zip(paths, workload_inputs(workload, seed)):
        if isinstance(f, SimplicialComplex):
            save_complex(f, path)
            continue
        stem = path.stem
        save_complex(f.source, directory / f"{stem}.source.json")
        save_complex(f.target, directory / f"{stem}.target.json")
        save_map(f, path, f"{stem}.source.json", f"{stem}.target.json")
    return paths
