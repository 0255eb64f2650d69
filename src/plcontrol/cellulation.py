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
by at most the slack plus 2 tol.  Inversion names the flags over y's carrier
that fit the runs by their (base, chain) vertex masks, builds the cells it has
not met before, and checks them in flag order (``enumerate_flags``' order):
O(d log d) for the sort and, away from ties, O(dim) cell checks; at a run of
r tied coordinates under the level cap the list holds about 4 times the
ordered Bell number of r flags.  Unless y has a coordinate within 2 tol, a
cell over a larger carrier reproduces y only with zero weight on top levels
made of the extra vertices, and then its truncated flag, earlier in flag
order, reproduces y with the same s and nonzero t.

Points are inverted in blocks (``Cellulation.invert_block``; ``invert`` is
a block of one).  In round k every point still open checks the k-th cell
of its list, and a point still open after ``_ROUNDS`` rounds checks the
rest in one round, the first in flag order that passes winning.  The
(point, cell) pairs of a round are grouped by the cell's shape, its sizes
and number of base vertices: gathered in its cell's level order (base
positions, then those new at each level, ``FlagCell.level_order``), the
points of a group share one column layout, whatever their cells, and one
numpy cell check (``Cellulation._check_block``) reads them, with a_j = eps
/ len_j.  Its sums add one column at a time, left to right (``_add``), the
order in which numpy reduces fewer than 8 elements, so its (s, t) have the
bits of the one-point checks on Python floats and on numpy arrays
(``tests/cellulation_oracle.try_cell``, ``try_cell_arrays``).  The
residual is read only against tol.

What is kept, and for how long: the eps-free cell of a flag is built the
first time an inversion names it (or ``Cellulation.cells`` lists every flag)
and kept per complex (``K._flag_cells``), shared by its cellulations at every
eps, so a verify builds only the cells over the carriers its points have.
So is each inverted point's fitting list (``K._fits``, per (point, tol)):
the flags that fit it at some eps, in flag order, each with the largest
coordinate it puts on a chain level, so that an inversion at any eps keeps
the entries under its level cap and enumerates nothing;
``build_cellulation`` keeps one cellulation per exact eps in
``K._cellulations`` while K lives, so a cellulation is a value of (K, eps)
and holds no arrays: an inversion reads a cell's level coefficients
a_j = eps / len_j and checks its residual in closed form.  Vertex images
are built only by ``FlagCell.vertex_images``, whose callers keep them
(``homotopies._EpsView``) or drop them (``FlagCell.evaluate``), and a cell
point is one ``_contract`` of them.
"""

from __future__ import annotations

import functools
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
    face_chains,
    vertex_point,
)
from .metrics import mesh_comesh, vertex_barycenter_distance


class EpsilonRangeError(ValueError):
    """epsilon outside [0, comesh) where the vertex spheres are defined."""


class InversionError(RuntimeError):
    """No cell reproduces the point within tolerance."""


def comesh_of(K: SimplicialComplex) -> float:
    if K._comesh is None:
        K._comesh = mesh_comesh(K)[1]
    return K._comesh


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
    flags = [
        Flag(base=b, chain=c)
        for c in face_chains(K)
        for b in sorted(c[0].faces(), key=K.sort_key)
    ]
    flags.sort(key=lambda fl: (K.sort_key(fl.base), tuple(map(K.sort_key, fl.chain))))
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


def _contract(S, T, P) -> np.ndarray:
    """The cell points sum_ij S[p, i] T[p, j] P[k, i, j, :] of a stack P of
    vertex images, one row per point p and image k."""
    return np.einsum("pi,pj,kijd->pkd", S, T, P)


@dataclass(eq=False)
class FlagCell:
    """One cell of the cellulation, with the numeric kernel of its bilinear map.

    carrier is the top chain simplex; E holds the base-vertex coordinate rows,
    chat the chain barycenter rows, both over the carrier's vertices.  K keeps
    one cell per flag, so a cell compares and hashes by identity.
    """

    flag: Flag
    carrier: Simplex
    E: np.ndarray          # (n+1, d)
    chat: np.ndarray       # (m+1, d)
    lengths: np.ndarray    # (m+1,) vertex-to-barycenter distance per level
    own: list[list[int]]   # per level, carrier coord positions new at that level
    base_pos: list[int]    # carrier coord positions of the base vertices
    sizes: tuple[float, ...]  # (m+1,) vertex count per chain simplex

    @property
    def dim(self) -> int:
        return self.flag.dim

    @functools.cached_property
    def level_order(self) -> list[int]:
        """The carrier positions of the base vertices, then of those new at
        each chain level in turn."""
        return [*self.base_pos, *itertools.chain(*self.own)]

    def a_coeffs(self, eps) -> np.ndarray:
        """a[..., j] = eps / |v - sigma_j-hat| (0 where sigma_j is a vertex),
        for one eps or a sequence of them."""
        eps = np.asarray(eps, dtype=float)
        a = np.zeros((*eps.shape, len(self.lengths)))
        nz = self.lengths > 0.0
        a[..., nz] = eps[..., None] / self.lengths[nz]
        return a

    def vertex_images(self, eps) -> np.ndarray:
        """P[..., i, j] = image of (v_i, sigma_j-hat) in carrier coordinates,
        for one eps or a sequence of them.  The work is elementwise, so each
        eps gets the bits it gets alone."""
        a = self.a_coeffs(eps)[..., None, :, None]
        return self.E[:, None, :] * (1.0 - a) + a * self.chat[None, :, :]

    def evaluate(self, eps: float, s: np.ndarray, t: np.ndarray) -> Point:
        return Point(self.carrier, tuple(_contract([s], [t], self.vertex_images([eps]))[0, 0]))


_SLACK = 1e-7
_ROUNDS = 16  # the rounds of one candidate per point before a point checks all it has left


def _add(xs):
    """The sum of xs, floats or the columns of a block, added left to right
    from 0.0 (Python >= 3.12 ``sum`` compensates, so it may differ in the
    last bits)."""
    return functools.reduce(operator.add, xs, 0.0)


def _ordered_partitions(items: list[int]):
    """Ordered partitions of the positions into nonempty blocks (bitmasks)."""
    if not items:
        yield ()
    for pick in range(1, 1 << len(items)):
        block = sum(1 << p for i, p in enumerate(items) if pick >> i & 1)
        rest = [p for i, p in enumerate(items) if not pick >> i & 1]
        for tail in _ordered_partitions(rest):
            yield (block, *tail)


def _flag_cell(K: SimplicialComplex, carrier: Simplex, masks: tuple[int, ...]) -> FlagCell:
    """Build the eps-free cell of the flag over carrier whose base and chain
    simplices have the vertex masks (base, *chain), bit p standing for
    carrier.vertices[p], and keep it in ``K._flag_cells``, carrier -> masks
    -> cell, where the cellulations of K at every eps look it up first."""
    base, *chain = (K.simplex([v for p, v in enumerate(carrier.vertices) if m >> p & 1]) for m in masks)
    fl = Flag(base=base, chain=tuple(chain))
    pos = {v: i for i, v in enumerate(carrier.vertices)}
    base_pos = [pos[v] for v in base.vertices]
    chat = np.zeros((len(chain), len(pos)))
    own: list[list[int]] = []
    prev: set[str] = set(base.vertices)
    for j, s in enumerate(chain):
        chat[j, [pos[v] for v in s.vertices]] = 1.0 / len(s.vertices)
        own.append([pos[v] for v in s.vertices if v not in prev])
        prev |= set(s.vertices)
    cell = K._flag_cells.setdefault(carrier, {})[masks] = FlagCell(
        flag=fl, carrier=carrier, E=np.eye(len(pos))[base_pos], chat=chat,
        lengths=np.array([vertex_barycenter_distance(s.dim) for s in chain]),
        own=own, base_pos=base_pos, sizes=tuple(float(len(s.vertices)) for s in chain),
    )
    return cell


def _fits(K: SimplicialComplex, y: Point, tol: float) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The flags over canonical y's carrier that fit y's sorted coordinates
    (see the module docstring) at some eps, in flag order, each as (its
    vertex masks (base, *chain), bit p standing for y.carrier.vertices[p],
    the largest coordinate of y that the flag puts on a chain level, 0.0
    if none).  Only the level cap eps / sqrt(2) + slack + tol of
    ``Cellulation._fitting_cells`` depends on eps, so the list drops only
    the flags above the cap of every eps < comesh."""
    vals = y.coords
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    runs = [[order[0]]]
    for i, j in zip(order, order[1:]):
        if vals[i] - vals[j] > _SLACK + 2.0 * tol:
            runs.append([])
        runs[-1].append(j)
    ceiling = comesh_of(K) / math.sqrt(2.0) + _SLACK + tol
    found = []
    for r, run in enumerate(runs):
        head = sum(1 << p for above in runs[:r] for p in above)
        for pick in range(1, 1 << len(run)):
            base = head | sum(1 << p for i, p in enumerate(run) if pick >> i & 1)
            levels = [[p for i, p in enumerate(run) if not pick >> i & 1], *runs[r + 1 :]]
            top = max((vals[p] for part in levels for p in part), default=0.0)
            if top > ceiling:
                continue
            for parts in itertools.product(*map(_ordered_partitions, levels)):
                flat = (block for part in parts for block in part)
                chain = tuple(itertools.accumulate(flat, operator.or_, initial=base))
                # sigma_0 is the base (level 0 adds no vertex) or the first level, if any
                found.extend((masks, top) for masks in ((base, *chain), chain)[: len(chain)])
    index = [K.vertex_index(v) for v in y.carrier.vertices]

    def key(mask):  # K.sort_key of the face with this vertex mask
        face = tuple(i for p, i in enumerate(index) if mask >> p & 1)
        return (len(face) - 1, face)

    # flag order: the sort keys of the base and of each chain simplex, in turn
    return tuple(sorted(found, key=lambda fit: tuple(map(key, fit[0]))))


def _check_eps(K: SimplicialComplex, eps: float) -> None:
    """The range every cellulation of K needs: 0 < eps < comesh.

    It also keeps every vertex sphere short of the barycenters: the comesh
    is the least radius of a positive-dimensional simplex, and the radius
    of the standard n-simplex, sqrt(1/(n(n+1))), is at most its
    vertex-to-barycenter distance sqrt(n/(n+1)) (equal for an edge), so
    eps < comesh - 1e-12, whose margin covers the rounding of the computed
    radii, puts eps below that distance for every chain simplex of every
    cell."""
    cm = comesh_of(K)
    if not (0.0 < eps < cm - 1e-12):
        raise EpsilonRangeError(f"eps={eps} outside (0, comesh={cm})")


class Cellulation:
    """The fundamental epsilon-subdivision cellulation of a complex."""

    def __init__(self, K: SimplicialComplex, eps: float):
        _check_eps(K, eps)
        self.K = K
        self.eps = eps
        # level values are t-averages of eps / sqrt(n (n + 1)), chain dims n >= 1
        self._level_cap = eps / math.sqrt(2.0) + _SLACK

    @functools.cached_property
    def cells(self) -> list[FlagCell]:
        """Every cell of the cellulation, in flag order; no inversion reads it."""
        out = []
        for fl in enumerate_flags(self.K):
            carrier = fl.chain[-1]
            bit = {v: 1 << p for p, v in enumerate(carrier.vertices)}
            masks = tuple(sum(bit[v] for v in s.vertices) for s in (fl.base, *fl.chain))
            out.append(self.K._flag_cells.get(carrier, {}).get(masks) or _flag_cell(self.K, carrier, masks))
        return out

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, cell: FlagCell, s, t, eps: float | None = None) -> Point:
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        if s.shape != (len(cell.flag.base.vertices),) or t.shape != (len(cell.flag.chain),):
            raise MalformedInputError(
                f"coordinate lengths {s.shape}/{t.shape} do not match cell {cell.flag}"
            )
        return cell.evaluate(self.eps if eps is None else eps, s, t)

    # -- inversion ----------------------------------------------------------------

    def invert(self, y: Point, tol: float = 1e-9) -> tuple[FlagCell, tuple[np.ndarray, np.ndarray]]:
        """The cell and (s, t) coordinates with evaluate(cell, s, t) == y:
        ``invert_block`` of y alone."""
        return self.invert_block([y], tol)[0]

    def invert_block(self, ys, tol: float = 1e-9) -> list[tuple[FlagCell, tuple[np.ndarray, np.ndarray]]]:
        """``invert`` of each point of ``ys``: the first cell of its fitting
        list (``_fitting_cells``), in flag order, that reproduces it, with
        its (s, t).  A cell's check is exact linear recovery: the level
        averages of y's coordinates on the vertices entering at each chain
        level give t, then the base part gives s.

        In round k every point still open checks its k-th cell; a point
        still open after ``_ROUNDS`` rounds, which only a tie reaches, checks
        all its cells left in one round.  The (point, cell) pairs of a round
        are grouped by the cell's shape (its sizes and number of base
        vertices), each point's coordinates gathered in its cell's level
        order (``FlagCell.level_order``), and one ``_check_block`` checks a
        group."""
        ys = [canonical(self.K, y) for y in ys]
        fits = [self._fitting_cells(y, tol) for y in ys]
        found, todo = {}, range(len(ys))
        for k in range(_ROUNDS + 1):
            groups = {}
            for r in todo:
                for i, cell in enumerate(fits[r][k : None if k == _ROUNDS else k + 1], k):
                    groups.setdefault((cell.sizes, len(cell.base_pos)), []).append((r, i, cell))
            for group in groups.values():
                C = np.array([[ys[r].coords[p] for p in cell.level_order] for r, _, cell in group])
                ok, S, T = self._check_block(group[0][2], C, tol)
                for g in np.flatnonzero(ok).tolist():
                    r, i, cell = group[g]
                    if i < found.get(r, (i + 1,))[0]:  # the first in flag order wins
                        found[r] = i, cell, S[g], T[g]
            todo = [r for r in todo if r not in found]
            for r in todo:
                if k == _ROUNDS or k + 1 >= len(fits[r]):
                    raise InversionError(f"no cell of the eps={self.eps} cellulation reproduces {ys[r]} "
                                         f"(carrier {ys[r].carrier}, flags tried: {len(fits[r])})")
        return [(cell, (s, t)) for _, cell, s, t in map(found.__getitem__, range(len(ys)))]

    def _fitting_cells(self, y: Point, tol: float) -> list[FlagCell]:
        """The cells over y's carrier whose flag fits y's sorted coordinates
        at this eps (see the module docstring), in flag order: the entries
        of y's fitting list (``_fits``) at or under this eps' level cap, each
        cell looked up in ``K._flag_cells`` and built on a miss."""
        K = self.K
        fits = K._fits.get((y, tol))
        if fits is None:
            fits = K._fits[y, tol] = _fits(K, y, tol)
        kept, cap = K._flag_cells.setdefault(y.carrier, {}), self._level_cap + tol
        return [kept.get(masks) or _flag_cell(K, y.carrier, masks) for masks, top in fits if top <= cap]

    def _check_block(self, cell: FlagCell, C: np.ndarray, tol: float):
        """(per row, whether it passes, its s, its t): the cell check of each
        row of C, a point's coordinates in the level order of its cell, a
        cell of ``cell``'s shape over the point's carrier (see the module
        docstring).  Of the cellulation it reads eps alone, in a_j = eps /
        len_j.  A row that fails a check goes on through the others, masked,
        and ``np.where(x > 0.0, x, 0.0)`` is the one-point check's clip."""
        sizes, nb, m1 = cell.sizes, len(cell.base_pos), len(cell.sizes)
        a = np.array([self.eps / n if n > 0.0 else 0.0 for n in cell.lengths.tolist()])
        ends, own0 = [nb, *map(int, sizes)], sizes[0] > nb  # own0: whether level 0 owns columns
        # level averages, mu[m1] = 0; level 0's is read only if it owns columns
        ok, mu, T = np.ones(len(C), dtype=bool), [None] * m1 + [0.0], np.empty((len(C), m1))
        with np.errstate(all="ignore"):
            for j in range(m1):
                if (vals := C[:, ends[j] : ends[j + 1]]).shape[1] > 1:
                    ok &= vals.max(axis=1) - vals.min(axis=1) <= _SLACK
                if vals.shape[1]:
                    mu[j] = _add(vals.T) / vals.shape[1]
            for j in range(m1 - 1, 0, -1):
                ta = (mu[j] - mu[j + 1]) * sizes[j]
                ok &= ta >= -_SLACK
                T[:, j] = ta / a[j]
            # level 0's weight: read off its own columns or, when it has none or
            # sigma_0 is a vertex (a_0 = 0, its average then level 1's), what the
            # levels above leave
            if own0 and a[0] > 0.0:
                T[:, 0] = (mu[0] - mu[1]) * sizes[0] / a[0]
            else:
                if own0:
                    ok &= abs((mu[0] - mu[1]) * sizes[0]) <= _SLACK
                T[:, 0] = 1.0 - _add(T[:, 1:].T)
            ok &= (T >= -_SLACK).all(axis=1) & (abs(_add(T.T) - 1.0) <= 1e-6)
            TA = T * a
            mu0 = _add((TA / sizes).T)
            if own0:
                ok &= abs(mu0 - mu[0]) <= _SLACK
            beta = 1.0 - _add(TA.T)
            ok &= beta > 0.0
            # s's rounding grows as 1 / beta.  At or below the slack, which only
            # the cells of a 1-dimensional complex reach, near eps = comesh, s
            # moves the point by at most beta * sqrt(2): the residual test decides.
            stable = beta > _SLACK
            S = (C[:, :nb] - mu0[:, None]) / beta[:, None]
            ok &= ~stable | (S >= -_SLACK).all(axis=1)
            S = np.where(S > 0.0, S, 0.0)
            total = _add(S.T)
            ok &= (~stable | (abs(total - 1.0) <= 1e-6)) & (total > 0.0)
            S /= total[:, None]
            T = np.where(T > 0.0, T, 0.0)
            T /= _add(T.T)[:, None]
            # the cell point (s, t) is sum_j t_j a_j chat_j + (1 - sum_j t_j a_j)
            # s E, the form the solve above inverts: chat_j holds 1 / |sigma_j|
            # on sigma_j's columns (the base's and those new at levels <= j),
            # and row i of E is base column i.  Its distance to y is read only
            # against tol, so that a sum in another order would move a verdict
            # only at a tie with tol.
            TA, P = T * a, np.zeros_like(C)
            for j in range(m1):
                P[:, : ends[j + 1]] += (TA[:, j] * (1.0 / sizes[j]))[:, None]
            P[:, :nb] += (1.0 - _add(TA.T))[:, None] * S
            ok &= np.sqrt(((P - C) ** 2).sum(axis=1)) <= tol
        return ok, S, T

    # -- reporting ----------------------------------------------------------------

    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.cells:
            out[c.dim] = out.get(c.dim, 0) + 1
        return out

    def proper_vertex_images(self) -> list[tuple[str, Simplex, Point]]:
        """All (v, tau, image) with v a proper face of tau: the cellulation
        vertices that actually moved distance eps away from v, one per
        vertex of each positive-dimensional simplex (base {v}, chain (tau)
        is a flag)."""
        return [
            (v, tau, gamma_vertex(self.K, self.eps, v, tau))
            for tau in self.K.sorted_simplices()
            if tau.dim > 0
            for v in tau.vertices
        ]


def build_cellulation(K: SimplicialComplex, eps: float) -> Cellulation:
    # K and the cellulations cached on it (each naming K) form the one
    # reference cycle kept by design: a cellulation dropped by its caller must
    # still be a cache hit on the next call, so this entry is not weak.
    if eps not in K._cellulations:
        K._cellulations[eps] = Cellulation(K, eps)
    return K._cellulations[eps]
