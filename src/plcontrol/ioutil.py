"""File formats: complexes, maps, points and single-point homotopy tracks.

Complex files are JSON: {"vertices": [...], "simplices": [["a","b"], ...]},
with an optional "positions" table used by the SVG renderer.  Generator lists
are closed under faces automatically (a warning records when closure added
anything).  Map files point at their complexes: {"source": ..., "target": ...,
"vertex_map": {...}}, paths resolved relative to the map file.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .complexes import (
    MalformedInputError,
    NotFoundError,
    Point,
    SimplicialComplex,
    canonical,
    closure_complex,
    combine_points,
)
from .evaluators import Homotopy
from .maps import SimplicialMap, validate_map


class FileFormatError(ValueError):
    pass


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise FileFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return data


def _is_list(value, of=object) -> bool:
    return isinstance(value, list) and all(isinstance(item, of) for item in value)


def load_complex(path: str | Path) -> SimplicialComplex:
    data = _load_json(path)
    if "simplices" not in data or not data["simplices"]:
        raise FileFormatError(f"{path}: missing or empty 'simplices' field")
    if not (_is_list(data["simplices"], list) and _is_list(data.get("vertices", []))):
        raise FileFormatError(f"{path}: 'simplices' must be a list of vertex lists and 'vertices' a list")
    gens = [tuple(str(v) for v in s) for s in data["simplices"]]
    for g in gens:
        if len(set(g)) != len(g):
            raise FileFormatError(f"{path}: duplicate vertex inside simplex {list(g)}")
    order = [str(v) for v in data.get("vertices", [])]
    try:
        K = closure_complex(gens, vertex_order=order or None)
    except MalformedInputError as e:
        raise FileFormatError(f"{path}: {e}") from None
    closure_added = len(K.simplices) - len({frozenset(g) for g in gens})  # every generator is a simplex of K
    if closure_added:
        warnings.warn(
            f"{path}: face closure added {closure_added} simplices not listed in the file",
            stacklevel=2,
        )
    if "positions" in data:
        pos = data["positions"]
        xys = isinstance(pos, dict) and all(_is_list(xy, (int, float)) and len(xy) == 2 for xy in pos.values())
        if not (xys and set(K.vertex_order) <= set(pos)):
            raise FileFormatError(f"{path}: 'positions' must map every vertex to [x, y]")
        K.positions = {v: (float(x), float(y)) for v, (x, y) in pos.items()}
    return K


def save_complex(K: SimplicialComplex, path: str | Path, positions: dict | None = None) -> None:
    data = {
        "vertices": list(K.vertex_order),
        "simplices": [list(s.vertices) for s in K.sorted_simplices()],
    }
    positions = positions or K.positions
    if positions:
        data["positions"] = {v: list(xy) for v, xy in positions.items()}
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def load_map(path: str | Path) -> SimplicialMap:
    path = Path(path)
    data = _load_json(path)
    for k, kind in (("source", str), ("target", str), ("vertex_map", dict)):
        if not isinstance(data.get(k), kind):
            raise FileFormatError(f"{path}: missing or malformed '{k}' field")
    src = load_complex(path.parent / data["source"])
    tgt = load_complex(path.parent / data["target"])
    try:
        f = SimplicialMap(src, tgt, {str(a): str(b) for a, b in data["vertex_map"].items()})
    except MalformedInputError as e:
        raise FileFormatError(f"{path}: {e}") from None
    bad = validate_map(f)
    if bad:
        raise FileFormatError(
            f"{path}: vertex map is not simplicial on {', '.join(str(s) for s in bad)}"
        )
    return f


def save_map(f: SimplicialMap, path: str | Path, source_name: str, target_name: str) -> None:
    data = {"source": source_name, "target": target_name, "vertex_map": dict(f.vertex_map)}
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def parse_point(K: SimplicialComplex, data: dict | str) -> Point:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"point literal: {e.msg}") from None
    if not isinstance(data, dict) or "simplex" not in data or "coords" not in data:
        raise FileFormatError("point needs 'simplex' and 'coords' fields")
    try:
        labels = [str(v) for v in data["simplex"]]
        coords = [float(c) for c in data["coords"]]
        if len(labels) != len(coords):
            raise MalformedInputError(f"{len(labels)} vertices but {len(coords)} coords")
        if len(set(labels)) != len(labels):
            raise MalformedInputError("duplicate vertex")
        s = K.simplex(labels)
        weights = dict(zip(labels, coords))
        return canonical(K, Point(s, tuple(weights[v] for v in s.vertices)))
    except (NotFoundError, TypeError, ValueError) as e:
        raise FileFormatError(f"point {data['simplex']}: {e.args[0]}") from None


def load_track(path: str | Path, Y: SimplicialComplex) -> tuple[Homotopy, Point | None]:
    """A single-point homotopy into Y: {"times": [...], "points": [...]},
    interpolated piecewise linearly; optional "start" is a point of the
    lifting problem's source complex."""
    data = _load_json(path)
    times, pts = data.get("times", []), data.get("points", [])
    if not (_is_list(times, (int, float)) and _is_list(pts)):
        raise FileFormatError(f"{path}: 'times' must be a list of numbers and 'points' a list")
    times = [float(t) for t in times]
    pts = [parse_point(Y, p) for p in pts]
    if len(times) != len(pts) or len(pts) < 2:
        raise FileFormatError(f"{path}: need matching 'times' and 'points' (at least two)")
    # every comparison with NaN is false, so a NaN time fails `a < b`
    if times[0] != 0.0 or times[-1] != 1.0 or not all(a < b for a, b in zip(times, times[1:])):
        raise FileFormatError(f"{path}: times must be numbers increasing from 0 to 1")
    Z = closure_complex([("z",)])

    def at(t: float) -> Point:
        t = min(max(t, 0.0), 1.0)
        for (t1, p1), (t2, p2) in zip(zip(times, pts), zip(times[1:], pts[1:])):
            if t <= t2:
                lam = (t - t1) / (t2 - t1)
                return combine_points(Y, [(1.0 - lam, p1), (lam, p2)])
        return pts[-1]

    H = Homotopy(domain=Z, codomain=Y, track_factory=lambda _: at)
    start = data.get("start")
    return H, start
