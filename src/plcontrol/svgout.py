"""Deterministic SVG rendering of 2-dimensional complexes and their
epsilon-subdivision cellulations: one polygon per cell, collar cells (flag
length >= 1) tinted by length so the epsilon structure is visible.
"""

from __future__ import annotations

import math
from pathlib import Path

from .cellulation import Cellulation, gamma_vertex
from .complexes import Point, SimplicialComplex


class UnsupportedDimensionError(ValueError):
    pass


SIZE = 640.0
MARGIN = 40.0
FILL_BY_LENGTH = {0: "#dce8f5", 1: "#f5e3c3", 2: "#e8c8c8", 3: "#d8c3e8"}


def default_positions(K: SimplicialComplex) -> dict[str, tuple[float, float]]:
    """Vertices on a circle in complex order (used when no layout is given)."""
    n = len(K.vertex_order)
    out = {}
    for i, v in enumerate(K.vertex_order):
        ang = 2.0 * math.pi * i / max(n, 1) - math.pi / 2.0
        out[v] = (math.cos(ang), math.sin(ang))
    return out


def _transform(positions: dict[str, tuple[float, float]]):
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    scale = (SIZE - 2 * MARGIN) / span

    def tr(xy: tuple[float, float]) -> tuple[float, float]:
        # flip y so the figure reads with y upward
        return (
            MARGIN + (xy[0] - x0) * scale,
            SIZE - MARGIN - (xy[1] - y0) * scale,
        )

    return tr


def _point_xy(p: Point, positions) -> tuple[float, float]:
    x = sum(c * positions[v][0] for v, c in zip(p.carrier.vertices, p.coords))
    y = sum(c * positions[v][1] for v, c in zip(p.carrier.vertices, p.coords))
    return (x, y)


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _cell_cycle(cell) -> list[tuple[str, int]]:
    """Boundary vertex cycle of the cell's product polytope as (vertex label,
    chain level) pairs.  In a complex of dimension <= 2 every cell is the
    square or a simplex in one factor, the other being a point."""
    base = cell.flag.base.vertices
    m = len(cell.flag.chain)
    if len(base) == 2 and m == 2:
        return [(base[0], 0), (base[1], 0), (base[1], 1), (base[0], 1)]
    return [(v, level) for v in base for level in range(m)]


def render_cellulation_svg(cel: Cellulation, positions=None) -> str:
    K = cel.K
    if K.dimension > 2:
        raise UnsupportedDimensionError(f"complex has dimension {K.dimension} > 2")
    positions = positions or K.positions or default_positions(K)
    tr = _transform(positions)
    images: dict[tuple, tuple[float, float]] = {}

    def corner(cell, v: str, level: int):
        key = (v, cell.flag.chain[level])
        if key not in images:
            p = gamma_vertex(K, cel.eps, v, key[1])
            images[key] = tr(_point_xy(p, positions))
        return images[key]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" height="{int(SIZE)}" '
        f'viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f"<!-- eps-subdivision cellulation, eps={_fmt(cel.eps)}, {len(cel.cells)} cells -->",
    ]
    for dim in (2, 1, 0):
        for cell in cel.cells:
            if cell.dim != dim:
                continue
            pts = [corner(cell, v, lv) for v, lv in _cell_cycle(cell)]
            if dim == 2:
                path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
                fill = FILL_BY_LENGTH.get(cell.flag.length, "#cccccc")
                lines.append(
                    f'<polygon points="{path}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
                )
            elif dim == 1:
                (x1, y1), (x2, y2) = pts
                lines.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                    f'stroke="#111111" stroke-width="1.5"/>'
                )
            else:
                ((x, y),) = pts
                lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_complex_svg(K: SimplicialComplex, positions=None) -> str:
    if K.dimension > 2:
        raise UnsupportedDimensionError(f"complex has dimension {K.dimension} > 2")
    positions = positions or K.positions or default_positions(K)
    tr = _transform(positions)

    def vxy(v: str):
        return tr(positions[v])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" height="{int(SIZE)}" '
        f'viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
    ]
    for s in K.simplices_of_dim(2):
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (vxy(v) for v in s.vertices))
        lines.append(f'<polygon points="{path}" fill="#dce8f5" stroke="none"/>')
    for s in K.simplices_of_dim(1):
        (x1, y1), (x2, y2) = (vxy(v) for v in s.vertices)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#111111" stroke-width="1.5"/>'
        )
    for s in K.simplices_of_dim(0):
        x, y = vxy(s.vertices[0])
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(obj, path: str | Path, positions=None) -> None:
    """Write a deterministic SVG for a complex or a cellulation."""
    if isinstance(obj, Cellulation):
        text = render_cellulation_svg(obj, positions=positions)
    else:
        text = render_complex_svg(obj, positions=positions)
    Path(path).write_text(text, encoding="utf-8")


def census_report(cel: Cellulation) -> str:
    census = cel.census()
    total = sum(census.values())
    lines = [
        f"cells: {total}",
        "by dimension: "
        + ", ".join(f"dim {d}: {census[d]}" for d in sorted(census)),
        f"euler characteristic: {sum((-1) ** d * n for d, n in census.items())}",
        f"epsilon: {cel.eps:.9f}",
    ]
    by_len: dict[int, int] = {}
    for c in cel.cells:
        by_len[c.flag.length] = by_len.get(c.flag.length, 0) + 1
    lines.append(
        "by flag length: " + ", ".join(f"len {m}: {by_len[m]}" for m in sorted(by_len))
    )
    return "\n".join(lines) + "\n"
