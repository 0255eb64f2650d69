"""Flags, the flag cellulation, and the fundamental epsilon-subdivision
cellulation realized by the piecewise-bilinear vertex-sphere map.

Each flag (sigma <= sigma_0 < ... < sigma_m) contributes one cell; the cell's
vertex images place v_i at the point of the segment from v_i to the barycenter
of sigma_j at distance epsilon from v_i.  Because the barycenters of a chain
have nested supports, inverting the bilinear map on a cell reduces to reading
off level averages, which makes the inversion exact rather than iterative.

The same structure locates the cell directly.  On a cell, the vertices
entering at one chain level share one value (at most eps/sqrt(2)), these level
values do not increase up the chain, and base values sit at or above them.  A
cell that reproduces y to tol keeps that pattern in y's sorted coordinates up
to 2 tol, so each level lies in one run of coordinates whose neighbours differ
by at most the slack plus 2 tol.  Inversion reads the flags that fit the runs
from a (base, chain) index over y's carrier and checks them in index order:
O(d log d) for the sort and, away from ties, O(dim) cell checks.  Unless y has
a coordinate within 2 tol, a cell over a larger carrier reproduces y only with
zero weight on top levels made of the extra vertices, and then its truncated
flag, of lower index, reproduces y with the same s and nonzero t.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .complexes import (
    MalformedInputError,
    NotFoundError,
    Point,
    Simplex,
    SimplicialComplex,
    canonical,
    vertex_point,
)
from .evaluators import Homotopy
from .metrics import mesh_comesh, vertex_barycenter_distance


class EpsilonRangeError(ValueError):
    """epsilon outside [0, comesh) where the vertex spheres are defined."""


class InversionError(RuntimeError):
    """No cell reproduces the point within tolerance."""


def comesh_of(K: SimplicialComplex) -> float:
    if "comesh" not in K._cache:
        K._cache["comesh"] = mesh_comesh(K)[1]
    return K._cache["comesh"]


@dataclass(frozen=True)
class Flag:
    """A chain sigma_0 < ... < sigma_m together with a face sigma <= sigma_0."""

    base: Simplex
    chain: tuple[Simplex, ...]

    def __post_init__(self):
        if not self.base <= self.chain[0]:
            raise MalformedInputError(f"base {self.base} is not a face of {self.chain[0]}")
        for a, b in zip(self.chain, self.chain[1:]):
            if not a < b:
                raise MalformedInputError("chain inclusions must be strict")

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    @property
    def dim(self) -> int:
        return self.base.dim + self.length

    def __str__(self) -> str:
        return f"{self.base} x <{' < '.join(str(s) for s in self.chain)}>"


def enumerate_flags(K: SimplicialComplex) -> list[Flag]:
    """All flags, ordered by (base, chain) in the complex's vertex order."""
    simps = K.sorted_simplices()
    chains: list[tuple[Simplex, ...]] = []

    def extend(chain: list[Simplex]):
        chains.append(tuple(chain))
        for t in simps:
            if chain[-1] < t:
                chain.append(t)
                extend(chain)
                chain.pop()

    for s in simps:
        extend([s])
    flags = [
        Flag(base=b, chain=c)
        for c in chains
        for b in sorted(c[0].faces(), key=K.sort_key)
    ]
    flags.sort(key=lambda fl: (K.sort_key(fl.base), tuple(K.sort_key(s) for s in fl.chain)))
    return flags


def gamma_vertex(K: SimplicialComplex, eps: float, v: str, tau: Simplex) -> Point:
    """The point of the segment from v to the barycenter of tau at standard
    distance eps from v (the sphere of radius eps about v, met along the
    segment).  eps = 0 returns v itself."""
    if tau not in K.simplices:
        raise NotFoundError(f"simplex {tau} not in complex")
    if v not in tau.vertices:
        raise MalformedInputError(f"vertex {v!r} is not a vertex of {tau}")
    cm = comesh_of(K)
    if not (0.0 <= eps < cm - 1e-12) and eps != 0.0:
        raise EpsilonRangeError(f"eps={eps} outside [0, comesh={cm})")
    n = tau.dim
    if n == 0 or eps == 0.0:
        return vertex_point(K, v)
    ell = vertex_barycenter_distance(n)
    s = eps / ell
    coords = [s / (n + 1) + (1.0 - s if w == v else 0.0) for w in tau.vertices]
    return Point(tau, tuple(coords))


@dataclass
class FlagCell:
    """One cell of the cellulation, with the numeric kernel of its bilinear map.

    carrier is the top chain simplex; E holds the base-vertex coordinate rows,
    chat the chain barycenter rows, both over the carrier's vertices.
    """

    index: int
    flag: Flag
    carrier: Simplex
    E: np.ndarray          # (n+1, d)
    chat: np.ndarray       # (m+1, d)
    lengths: np.ndarray    # (m+1,) vertex-to-barycenter distance per level
    own: list[list[int]]   # per level, carrier coord positions new at that level
    base_pos: list[int]    # carrier coord positions of the base vertices
    sizes: np.ndarray      # (m+1,) vertex count per chain simplex

    @property
    def dim(self) -> int:
        return self.flag.dim

    def a_coeffs(self, eps: float) -> np.ndarray:
        a = np.zeros(len(self.lengths))
        nz = self.lengths > 0.0
        a[nz] = eps / self.lengths[nz]
        return a

    def vertex_images(self, eps: float) -> np.ndarray:
        """P[i, j] = image of (v_i, sigma_j-hat) in carrier coordinates."""
        a = self.a_coeffs(eps)
        return self.E[:, None, :] * (1.0 - a)[None, :, None] + a[None, :, None] * self.chat[None, :, :]

    def evaluate(self, eps: float, s: np.ndarray, t: np.ndarray) -> Point:
        coords = np.einsum("i,j,ijd->d", s, t, self.vertex_images(eps))
        return Point(self.carrier, tuple(coords))


_SLACK = 1e-7


def _ordered_partitions(items: list[int]):
    """Ordered partitions of the positions into nonempty blocks (bitmasks)."""
    if not items:
        yield ()
    for pick in range(1, 1 << len(items)):
        block = sum(1 << p for i, p in enumerate(items) if pick >> i & 1)
        rest = [p for i, p in enumerate(items) if not pick >> i & 1]
        for tail in _ordered_partitions(rest):
            yield (block, *tail)


def _flag_cells(K: SimplicialComplex):
    """The eps-free cells of every flag of K and their index, carrier ->
    (base mask, chain masks) -> cell with masks over carrier positions; built
    once and shared by the cellulations of K at every eps."""
    if "flag_cells" not in K._cache:
        cells: list[FlagCell] = []
        index: dict[Simplex, dict[tuple[int, tuple[int, ...]], FlagCell]] = {}
        for idx, fl in enumerate(enumerate_flags(K)):
            carrier = fl.chain[-1]
            pos = {v: i for i, v in enumerate(carrier.vertices)}
            base_pos = [pos[v] for v in fl.base.vertices]
            chat = np.zeros((len(fl.chain), len(pos)))
            own: list[list[int]] = []
            prev: set[str] = set(fl.base.vertices)
            for j, s in enumerate(fl.chain):
                chat[j, [pos[v] for v in s.vertices]] = 1.0 / len(s.vertices)
                own.append([pos[v] for v in s.vertices if v not in prev])
                prev |= set(s.vertices)
            cell = FlagCell(
                index=idx, flag=fl, carrier=carrier, E=np.eye(len(pos))[base_pos], chat=chat,
                lengths=np.array([vertex_barycenter_distance(s.dim) for s in fl.chain]),
                own=own, base_pos=base_pos,
                sizes=np.array([len(s.vertices) for s in fl.chain], dtype=float),
            )
            cells.append(cell)
            masks = tuple(sum(1 << pos[v] for v in s.vertices) for s in (fl.base, *fl.chain))
            index.setdefault(carrier, {})[masks[0], masks[1:]] = cell
        K._cache["flag_cells"] = (cells, index)
    return K._cache["flag_cells"]


class Cellulation:
    """The fundamental epsilon-subdivision cellulation of a complex.

    ``inversions`` and ``cells_tried`` count the calls of :meth:`invert` and
    the cells it checked, so their ratio is the attempts per inversion.
    """

    def __init__(self, K: SimplicialComplex, eps: float):
        cm = comesh_of(K)
        if not (0.0 < eps < cm - 1e-12):
            raise EpsilonRangeError(f"eps={eps} outside (0, comesh={cm})")
        self.K = K
        self.eps = eps
        self.cells, self._index = _flag_cells(K)
        for cell in self.cells:
            for s, ell in zip(cell.flag.chain, cell.lengths):
                if ell > 0.0 and not eps < ell:
                    raise EpsilonRangeError(f"eps={eps}: the vertex sphere would swallow the barycenter of {s}")
        # per cell, by index: a_coeffs and vertex_images at this eps
        self._a = [cell.a_coeffs(eps) for cell in self.cells]
        self._images = [cell.vertex_images(eps) for cell in self.cells]
        # level values are t-averages of eps / sqrt(n (n + 1)), chain dims n >= 1
        self._level_cap = eps / math.sqrt(2.0) + _SLACK
        self.inversions = 0
        self.cells_tried = 0

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, cell: FlagCell, s, t, eps: float | None = None) -> Point:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if s.shape != (len(cell.flag.base.vertices),) or t.shape != (len(cell.flag.chain),):
            raise MalformedInputError(
                f"coordinate lengths {s.shape}/{t.shape} do not match cell {cell.flag}"
            )
        return cell.evaluate(self.eps if eps is None else eps, s, t)

    # -- inversion ----------------------------------------------------------------

    def invert(self, y: Point, tol: float = 1e-9) -> tuple[FlagCell, tuple[np.ndarray, np.ndarray]]:
        """The cell and (s, t) coordinates with evaluate(cell, s, t) == y.

        Exact per-cell linear recovery: level averages of y's coordinates on
        the vertices entering at each chain level determine t, then the base
        part determines s.  On cell boundaries the lowest-index cell wins.
        """
        y = canonical(self.K, y)
        self.inversions += 1
        fitting = self._fitting_cells(y, tol)
        for cell in fitting:
            self.cells_tried += 1
            out = self._try_cell(cell, y, tol)
            if out is not None:
                return cell, out
        raise InversionError(
            f"no cell of the eps={self.eps} cellulation reproduces {y} "
            f"(carrier {y.carrier}, flags tried: {len(fitting)})"
        )

    def _fitting_cells(self, y: Point, tol: float) -> list[FlagCell]:
        """The cells over y's carrier whose flag fits y's sorted coordinates
        (see the module docstring), in ascending index."""
        index = self._index[y.carrier]
        vals = y.coords
        order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
        runs = [[order[0]]]
        for i, j in zip(order, order[1:]):
            if vals[i] - vals[j] > _SLACK + 2.0 * tol:
                runs.append([])
            runs[-1].append(j)
        cap = self._level_cap + tol
        found = []
        for r, run in enumerate(runs):
            head = sum(1 << p for above in runs[:r] for p in above)
            for pick in range(1, 1 << len(run)):
                base = head | sum(1 << p for i, p in enumerate(run) if pick >> i & 1)
                levels = [[p for i, p in enumerate(run) if not pick >> i & 1], *runs[r + 1 :]]
                if any(vals[p] > cap for part in levels for p in part):
                    continue
                for parts in itertools.product(*map(_ordered_partitions, levels)):
                    flat = (block for part in parts for block in part)
                    chain = tuple(itertools.accumulate(flat, operator.or_, initial=base))
                    found.append(index[base, chain])  # level 0 adds no vertex
                    if len(chain) > 1:
                        found.append(index[base, chain[1:]])
        return sorted(found, key=lambda cell: cell.index)

    def _try_cell(self, cell: FlagCell, y: Point, tol: float):
        slack = _SLACK
        yv = np.array(y.coords)
        m1 = len(cell.flag.chain)
        a = self._a[cell.index]
        sizes = cell.sizes

        mu = np.zeros(m1 + 1)
        for j in range(m1 - 1, -1, -1):
            ownj = cell.own[j]
            if ownj:
                vals = yv[ownj]
                if np.ptp(vals) > slack:
                    return None
                mu[j] = float(vals.mean())
            else:
                mu[j] = -1.0  # filled below (only possible at level 0)
        t = np.zeros(m1)
        for j in range(m1 - 1, 0, -1):
            ta = (mu[j] - mu[j + 1]) * sizes[j]
            if ta < -slack:
                return None
            t[j] = ta / a[j]
        if cell.own[0]:
            ta0 = (mu[0] - mu[1]) * sizes[0]
            if a[0] <= 0.0:
                if abs(ta0) > slack:
                    return None
                t[0] = 1.0 - t[1:].sum()
            else:
                t[0] = ta0 / a[0]
        else:
            t[0] = 1.0 - t[1:].sum()
            mu[0] = mu[1] + t[0] * a[0] / sizes[0]
        if np.any(t < -slack) or abs(t.sum() - 1.0) > 1e-6:
            return None
        mu0 = float((t * a / sizes).sum())
        if cell.own[0] and abs(mu0 - mu[0]) > slack:
            return None
        beta = 1.0 - float((t * a).sum())
        if beta <= slack:
            return None
        s = (yv[cell.base_pos] - mu0) / beta
        if np.any(s < -slack):
            return None
        s = np.clip(s, 0.0, None)
        total = s.sum()
        if abs(total - 1.0) > 1e-6:
            return None
        s /= total
        t = np.clip(t, 0.0, None)
        t /= t.sum()
        res = np.einsum("i,j,ijd->d", s, t, self._images[cell.index]) - yv
        if float(np.linalg.norm(res)) > tol:
            return None
        return s, t

    # -- reporting ----------------------------------------------------------------

    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.cells:
            out[c.dim] = out.get(c.dim, 0) + 1
        return out

    def proper_vertex_images(self) -> list[tuple[str, Simplex, Point]]:
        """All (v, tau, image) with v a proper face of tau: the cellulation
        vertices that actually moved distance eps away from v."""
        out = []
        seen = set()
        for c in self.cells:
            for v in c.flag.base.vertices:
                for s in c.flag.chain:
                    if s.dim > 0 and (v, s) not in seen:
                        seen.add((v, s))
                        out.append((v, s, gamma_vertex(self.K, self.eps, v, s)))
        return out


def build_cellulation(K: SimplicialComplex, eps: float) -> Cellulation:
    key = ("cellulation", round(eps, 15))
    if key not in K._cache:
        K._cache[key] = Cellulation(K, eps)
    return K._cache[key]


def straightline_homotopy(K: SimplicialComplex, eps: float) -> Homotopy:
    """h(y, t) = Gamma_{eps(1-t)} applied to the eps-cell coordinates of y:
    the straight-line homotopy from the cellulation back to the complex."""
    cel = build_cellulation(K, eps)

    def track_factory(y: Point):
        cell, (s, t) = cel.invert(y)

        def tr(time: float) -> Point:
            return canonical(K, cell.evaluate(eps * (1.0 - time), s, t))

        return tr

    return Homotopy(
        domain=K,
        codomain=K,
        fn=lambda y, time: track_factory(y)(time),
        name=f"straight-line homotopy eps={eps}",
        track_factory=track_factory,
    )
