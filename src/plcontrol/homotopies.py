"""The inductive gamma map on the flag cellulation of the target, the
one-parameter family of homotopy inverses it induces, control measurement,
approximate homotopy lifting and the fiber-contraction direction.

gamma assigns to every chain sigma_0 < ... < sigma_m a map from the chain's
barycenter simplex into the fiber over sigma_0-hat; flag-length-zero chains
get base points, longer chains get the cone extension of their boundary
assembly through the collapse-derived contraction of the fiber.

What is kept, and for how long: a gamma map keeps, for as long as it
lives, one fiber-contraction track per (sigma, w), with its values per
time (``FlagMap._tracks``), and the split (z, f(x)) of each point that an
h1 track starts from (``FlagMap._splits``).  Neither depends on eps, so
every ``family.at(eps)`` reads them, and one ``run_verify`` splits each
sampled x once.  What one ``ControlledFamily.at(eps)`` shares among its
g, h1 and h2 has one owner, an ``_EpsView``: the cellulation that
``build_cellulation`` keeps at exactly that eps, a locate memo, filled by
one ``Cellulation.invert_block`` per batch of new points (``locate_all``:
each g table fill, h2 row and ``_H1._passes`` call locates its points at
once), the cell vertex images at each eps' = eps (1 - t) that the steps
read and their stacks per (cell, time grid) (``_EpsView.rows``, ``step``
is its one-row case), and the g table (``_EpsView.g_table``): per
distinct point it locates for g, gamma on its cell evaluated once, with
the join and image of g_eps there read off one
``maps._joined_image_rows`` per maximal simplex of Y in each fill, whose
base rows are read off the located s.  It dies with the closures built
over it; ``straightline_homotopy``, ``build_inverse`` and ``build_h1`` each
build their own.  Its g (``_GInverse``) and its h2 (``_StraightLine``)
read it to measure their control rows as arrays (each ``sup_ats``): g off
its table, h2 over the time grid per cell of the sampled points, where
the first call of a cell for a grid stacks the cell's images over it,
building those its memo lacks in one ``vertex_images`` call, and ``rows``
forms every row of every point of the cell in one
``cellulation._contract`` of that stack; ``rows_of`` gathers them into
one array per carrier width.  The h1 row through f is h2's row over the
points f(x) at the times min(2t, 1) (``_h1_column``), which the two h1
identities of ``verify`` make sound.
An h1 track (``_H1Track``) keeps its point's cell and second-half
start-up as long as the track lives; the start-up (``_start``) is one
scalar split of the track's step at eps' = 0 (ybar and w_a) and one of
the join the g table holds for f(x) (w_b).  ``_H1._passes``, the group
pass of the two h1 identities (``identity_sups``), builds the tracks of
the points over one maximal simplex, fills the g table for their f(x)
once, joins all their rows in one ``maps._joined_image_rows`` pass, the
kernel of the g table too, and drops them before the next group; the
maximal simplex over each distinct carrier is one walk up the
``_face_poset`` cofacets per call (``_by_top``).  ``metrics._row_sups``
reduces the rows of many points at once, in blocks of one carrier width
each: the fast rows of a block take one norm (``metrics._norms``), every
other row its own distance, and each point's first maximum is one row of
``metrics._first_maxes``, one ``argmax``, which reduces the g row and the
pair loop too.  The h2 row calls it once, with one canonical test and one
difference from its points per width, and each h1 identity once per
group pass, before the next group starts; none keeps anything.  Every
sampled control is one per-point table, z -> (sup over t, first t
attaining it, pairs): one call fills it
for the distinct points it lacks (a ``sup_ats``, ``_h1_column`` or
``identity_sups``, or ``_pair_sups`` with one ``distance`` per pair),
and ``_fold`` reduces it in sample order.  A
family keeps its tables (``_sups``) as long as it lives, keyed by the
exact eps like every cache that depends on eps: none rounds its eps.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cellulation import FlagCell, _contract, build_cellulation, comesh_of
from .complexes import (
    MalformedInputError,
    Point,
    Simplex,
    SimplicialComplex,
    _canonical_rows,
    _check_nonnegative,
    _face_poset,
    _row_point,
    _rows_over,
    _weight_rows,
    barycenter,
    canonical,
    make_point,
    subdivision_points,
)
from .contract import Verdict, contraction_from_collapse
from .evaluators import Homotopy, PLEvaluator
from .maps import (
    FiberComplex,
    JoinTrivialization,
    SimplicialMap,
    _joined_image_rows,
    build_star_retraction,
    evaluate_map,
    fiber_over_barycenter,
    identity_map,
)
from .metrics import _coords_over, _first_maxes, _norms, _row_sups, distance, min_distance_to_simplex


class CannotConstructError(RuntimeError):
    """The controlled family needs every fiber contractible."""

    def __init__(self, sigma: Simplex, verdict: Verdict):
        self.sigma = sigma
        self.verdict = verdict
        super().__init__(
            f"fiber over the barycenter of {sigma} is {verdict.kind} ({verdict.reason}); "
            f"gamma cannot be constructed"
        )


class LiftMismatchError(ValueError):
    """The initial map does not sit over the homotopy's time-zero slice."""


@dataclass(frozen=True)
class ControlReport:
    """A measured control, the number of (point, time) pairs behind it and
    the first pair that attains it (time 0.0 for a map)."""

    epsilon_target: float | None
    measured_control: float
    samples: int
    witness: tuple[Point, float] | None

    def __str__(self) -> str:
        eps = "-" if self.epsilon_target is None else f"{self.epsilon_target:.9f}"
        return (
            f"control {self.measured_control:.9f} (target eps {eps}, "
            f"{self.samples} samples)"
        )


# -- the flag map gamma ----------------------------------------------------------

@dataclass
class FlagMap:
    """gamma: chi(Y) -> X, stored per chain, plus the product structure used
    to spread chain values over whole flag cells.

    ``_tracks`` keeps one fiber-contraction track per (sigma, w), each with
    its values per time; it is filled by ``fiber_track`` and lives as long
    as the gamma map.  The fiber contractions do not depend on eps, so, like
    the flag cells that ``K._flag_cells`` keeps as inversions name them, the
    tracks serve every ``family.at(eps)``: g, the second half of h1 and
    ``contract_in_fiber`` all read them.  ``_splits``
    keeps, as long, the split of each point ``split`` was asked for: the
    start of every h1 track at every eps."""

    f: SimplicialMap
    trivialization: object
    fibers: dict[Simplex, FiberComplex]
    basepoints: dict[Simplex, Point]
    contractions: dict[Simplex, Homotopy]
    chain_overrides: dict[tuple[Simplex, ...], Callable[[np.ndarray], Point]] = field(
        default_factory=dict
    )
    _tracks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _splits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def split(self, x: Point) -> tuple[Point, Point]:
        """``trivialization.split(x)``, made once per x: the split does not
        depend on eps, so the h1 tracks and the h1 row of every
        ``family.at(eps)`` read it."""
        hit = self._splits.get(x)
        if hit is None:
            hit = self._splits[x] = self.trivialization.split(x)
        return hit

    def fiber_track(self, sigma: Simplex, w: Point) -> Callable[[float], Point]:
        """The track of the fiber contraction over sigma at the fiber point w:
        w itself at times <= 0.  The first call for (sigma, w) locates w in
        the fiber's triangulation; every later call returns that one track,
        which computes each time's value once."""
        track = self._tracks.get((sigma, w))
        if track is None:
            track = self._tracks[sigma, w] = self._new_track(sigma, w)
        return track

    def _new_track(self, sigma: Simplex, w: Point) -> Callable[[float], Point]:
        fiber = self.fibers[sigma]
        labels, mu = fiber.locate(w)
        tr = self.contractions[sigma].track(make_point(fiber.triangulation, dict(zip(labels, mu))))
        values: dict[float, Point] = {}

        def at(time: float) -> Point:
            if time <= 0.0:
                return w
            p = values.get(time)
            if p is None:
                q = tr(time)
                p = values[time] = fiber.embed(q.carrier.vertices, q.coords)
            return p

        return at

    def contract_in_fiber(self, sigma: Simplex, w: Point, time: float) -> Point:
        """Evaluate the fiber contraction at an arbitrary fiber point."""
        return w if time <= 0.0 else self.fiber_track(sigma, w)(time)

    def gamma_chain(self, chain: tuple[Simplex, ...], t: np.ndarray) -> Point:
        """Value of gamma on the chain's barycenter simplex: a point of the
        fiber over the barycenter of chain[0]."""
        t = np.asarray(t, dtype=float)
        override = self.chain_overrides.get(chain)
        if override is not None:
            return override(t)
        if len(chain) == 1:
            return self.basepoints[chain[0]]
        n1 = len(chain)
        tmin = float(t.min())
        lam = 1.0 - n1 * tmin
        if lam <= 1e-12:
            return self.contract_in_fiber(chain[0], self.basepoints[chain[0]], 1.0)
        u = (t - tmin) / lam
        u /= u.sum()
        j0 = int(np.argmin(u))
        if j0 == 0:
            w = self.trivialization.project(self.gamma_chain(chain[1:], u[1:]), chain[0])
        else:
            sub = chain[:j0] + chain[j0 + 1 :]
            w = self.gamma_chain(sub, np.delete(u, j0))
        return self.contract_in_fiber(chain[0], w, 1.0 - lam)

    def cell_parts(self, chain: tuple[Simplex, ...], s: np.ndarray, t: np.ndarray) -> tuple[Point, np.ndarray]:
        """(the chain value, the weights s of the base point over the base's
        vertices, as given): full gamma on the flag cell is the join of the
        chain value and that point.  Every value of g reads s through here."""
        return self.gamma_chain(chain, t), s

    def eval_cell(self, chain: tuple[Simplex, ...], base: Simplex, s: np.ndarray, t: np.ndarray) -> Point:
        """Full gamma on the flag cell: spread the chain value over the base
        point with weights s through the product structure."""
        w, s = self.cell_parts(chain, s, t)
        return self.trivialization.join(w, make_point(self.f.target, dict(zip(base.vertices, s))))


def build_gamma_map(
    f: SimplicialMap,
    base_choices: dict[Simplex, Point] | None = None,
    chain_overrides: dict[tuple[Simplex, ...], Callable[[np.ndarray], Point]] | None = None,
    trivialization=None,
) -> FlagMap:
    """Construct gamma by induction on flag length; every fiber must be
    contractible, otherwise the failing simplex is reported."""
    fibers: dict[Simplex, FiberComplex] = {}
    basepoints: dict[Simplex, Point] = {}
    contractions: dict[Simplex, Homotopy] = {}
    for sigma in f.target.sorted_simplices():
        fiber = fiber_over_barycenter(f, sigma)
        fibers[sigma] = fiber
        verdict = fiber.verdict
        if not verdict.is_contractible:
            raise CannotConstructError(sigma, verdict)
        contractions[sigma] = contraction_from_collapse(fiber.triangulation, verdict.sequence)
        basepoints[sigma] = fiber.embedding[verdict.sequence.basepoint]
    # base points: collapse basepoints by default, overridable per simplex
    if base_choices:
        for sigma, pt in base_choices.items():
            img = evaluate_map(f, pt)
            bc = barycenter(f.target, sigma)
            if img.carrier != bc.carrier or any(
                abs(a - b) > 1e-9 for a, b in zip(img.coords, bc.coords)
            ):
                raise MalformedInputError(
                    f"base choice for {sigma} does not lie in the fiber over its barycenter"
                )
            basepoints[sigma] = pt
    return FlagMap(
        f=f,
        trivialization=trivialization if trivialization is not None else JoinTrivialization(f),
        fibers=fibers,
        basepoints=basepoints,
        contractions=contractions,
        chain_overrides=dict(chain_overrides) if chain_overrides else {},
    )


# -- the controlled family -------------------------------------------------------

class _EpsView:
    """What one ``ControlledFamily.at(eps)`` shares among its g, h1 and h2:
    the cellulation of K that ``build_cellulation`` keeps at eps, eps itself,
    a locate memo (``locate_all`` inverts the points it lacks in one
    ``cel.invert_block``, so each distinct point is inverted once, and
    ``locate`` reads it), the cell vertex images that the steps read,
    keyed by (cell, eps'), their stacks, keyed by (cell, the exact eps'
    grid), and the g table (``g_table``), keyed by located point.  ``rows`` contracts
    one stack with every point of its cell that a caller holds, so the h2
    row, each h1 group pass and the first h1 identity table make one
    contraction per (cell, time grid), and ``step`` is its one-row case.
    Nothing else holds the memos: they die with the object, which only the
    closures built over it hold."""

    def __init__(self, K: SimplicialComplex, eps: float):
        self.cel, self.K, self.eps = build_cellulation(K, eps), K, eps
        # point -> invert(point), (cell, eps') -> images, (cell, eps' tuple) -> stacked images,
        # located point -> its g_eps entry (``g_table``)
        self._located, self._images, self._stacks, self._g = {}, {}, {}, {}

    def locate(self, y: Point) -> tuple[FlagCell, tuple[np.ndarray, np.ndarray]]:
        return self._located.get(y) or self.locate_all((y,))[0]

    def locate_all(self, ys) -> list:
        """``locate`` of each y of ``ys``: the distinct points the memo lacks
        are inverted in one ``cel.invert_block``."""
        if new := [y for y in dict.fromkeys(ys) if y not in self._located]:
            self._located.update(zip(new, self.cel.invert_block(new)))
        return [self._located[y] for y in ys]

    def rows(self, cell: FlagCell, S, T, epss) -> np.ndarray:
        """The coordinates over ``cell.carrier`` of each cell point (S[p],
        T[p]) at each eps' of ``epss``, a (points x eps' x width) array: one
        contraction of the cell's image stack over that grid (``_stack``),
        which every later call of the cell for the grid reads."""
        if not epss:
            return np.empty((len(S), 0, len(cell.carrier.vertices)))
        if (key := (cell, tuple(epss))) not in self._stacks:
            self._stacks[key] = self._stack(*key)
        return _contract(S, T, self._stacks[key])

    def rows_of(self, located, epss) -> list[tuple[list[int], np.ndarray]]:
        """Per carrier width of the located points (cell, (s, t)) of
        ``located``, (their positions, their ``rows`` as one (points x eps'
        x width) array): the points of one cell take one ``rows`` call."""
        cells, blocks = {}, {}
        for p, (cell, _) in enumerate(located):
            cells.setdefault(cell, []).append(p)
        for cell, ps in cells.items():
            blocks.setdefault(len(cell.carrier.vertices), []).append((ps, self.rows(cell, *zip(*(located[p][1] for p in ps)), epss)))
        return [(sum((ps for ps, _ in block), []), np.concatenate([R for _, R in block])) for block in blocks.values()]

    def _stack(self, cell: FlagCell, epss: tuple[float, ...]) -> np.ndarray:
        """The cell's vertex images at each eps' of ``epss``, stacked: the
        images the per-eps' memo lacks are built in one ``vertex_images``
        call."""
        images = self._images
        if new := list(dict.fromkeys(eps for eps in epss if (cell, eps) not in images)):
            images.update(((cell, eps), P) for eps, P in zip(new, cell.vertex_images(new)))
        return np.stack([images[cell, eps] for eps in epss])

    def step(self, cell: FlagCell, s, t, eps: float) -> Point:
        """``canonical(K, cell.evaluate(eps, s, t))``: the one-row case of
        ``rows``, as a point."""
        return canonical(self.K, Point(cell.carrier, tuple(self.rows(cell, [s], [t], (eps,))[0, 0].tolist())))

    def g_table(self, gamma: FlagMap, ys) -> dict:
        """The g table: located point y -> (the chain value w and the base
        point b of g_eps(y) = join(w, b) (``FlagMap.cell_parts``), b and
        f(g_eps(y)) each made on call, then d_Y(y, f(g_eps(y))) or None),
        filled for the ys it lacks, so gamma is evaluated once per distinct
        point.  The ys are located in one ``locate_all`` and grouped by a
        maximal simplex tau of Y over their carrier (``_by_top``).  Their
        base rows over tau are read off the weights s as ``make_point``
        reads them (``_weight_rows``), and b is the point of its row.  The
        joins and their images are one ``maps._joined_image_rows`` over tau,
        and the distances one array per carrier.  A row it does not
        reproduce, and every row of another trivialization, takes the
        scalar join and image, with no distance."""
        f, triv, Y = gamma.f, gamma.trivialization, self.K
        ys = [y for y in dict.fromkeys(ys) if y not in self._g]
        new = [(cell.carrier, (y, cell.flag.base, *gamma.cell_parts(cell.flag.chain, s, t)))
               for y, (cell, (s, t)) in zip(ys, self.locate_all(ys))]
        for tau, by_carrier in _by_top(Y, new).items():
            group = [entry for entries in by_carrier.values() for entry in entries]
            ys_, bases, ws, ss = zip(*group)
            B, ok = _weight_rows(tau, bases, ss), [False] * len(group)
            if _joins(gamma):
                F, ok = _joined_image_rows(f, tau, ws, B)
                # y canonical: the inversion read the cells over y's carrier
                D, dists = _rows_over(tau, [canonical(Y, y) for y in ys_]) - F, []
                for sigma, entries in by_carrier.items():
                    k = len(dists)
                    dists += _norms(D[k : k + len(entries)][:, [tau.vertices.index(v) for v in sigma.vertices]])
            for k, (y, w) in enumerate(zip(ys_, ws)):
                b = functools.partial(_row_point, Y, tau.vertices, B[k])
                if ok[k]:
                    self._g[y] = (w, b, functools.partial(_row_point, Y, tau.vertices, F[k]), dists[k])
                else:
                    self._g[y] = (w, b, functools.partial(evaluate_map, f, triv.join(w, b())), None)
        return self._g


@dataclass
class _StraightLine(Homotopy):
    """The straight-line homotopy of the eps-cellulation, with the
    ``_EpsView`` its tracks read, so that ``sup_ats`` can measure each
    sampled point's control over a whole time grid as one array."""

    view: _EpsView

    def measures(self, p, q) -> bool:
        """Whether ``sup_ats`` is the control through p and q: both are the
        identity."""
        return p is None and q is None

    def sup_ats(self, ys, times) -> dict[Point, tuple[float, float | None, int]]:
        """y -> (sup over t in ``times`` of d(y, h(y, t)), the first t
        attaining it, the pairs measured) for each y of ``ys``, equal to
        ``_pair_sups`` on the tracks (y, h(y, .)).

        The points are grouped by the width of their carrier, and each
        group's rows are one ``_EpsView.rows_of`` block, one contraction per
        cell.  A row that ``canonical`` leaves as it is (``_canonical_rows``)
        is a point of y's carrier, whose distance to y is the norm of their
        difference there.  Every other row takes ``step``: at t = 1 (eps' =
        0) the step is the base point, whose row is canonical only when the
        cell's base is its carrier.  Per width, the canonical test, the
        differences and the norms are one call each, and one ``_row_sups``
        measures every y."""
        view = self.view
        epss = tuple(view.eps * (1.0 - time) for time in times)
        cells = view.locate_all(ys)
        # y canonical: the inversion read the cells over y's carrier
        anchors = [canonical(view.K, y) for y in ys]
        blocks = [(ps, np.array([anchors[p].coords for p in ps])[:, None] - R, _canonical_rows(R.reshape(-1, R.shape[2])))
                  for ps, R in view.rows_of(cells, epss)]
        return dict(zip(ys, _row_sups(times, blocks, lambda p, k: distance(view.K, anchors[p], view.step(cells[p][0], *cells[p][1], epss[k])))))


def _straightline(view: _EpsView) -> _StraightLine:
    def track_factory(y: Point):
        cell, (s, t) = view.locate(y)
        return lambda time: view.step(cell, s, t, view.eps * (1.0 - time))

    return _StraightLine(domain=view.K, codomain=view.K, track_factory=track_factory, view=view)


def straightline_homotopy(K: SimplicialComplex, eps: float) -> Homotopy:
    """h(y, t) = Gamma_{eps(1-t)} applied to the eps-cell coordinates of y:
    the straight-line homotopy from the cellulation back to the complex."""
    return _straightline(_EpsView(K, eps))


def build_h2(f: SimplicialMap, eps: float) -> Homotopy:
    return straightline_homotopy(f.target, eps)


def build_inverse(f: SimplicialMap, eps: float, gamma: FlagMap) -> PLEvaluator:
    """g_eps = gamma after inverting the eps-subdivision cellulation of Y."""
    return _inverse(f, gamma, _EpsView(f.target, eps))


@dataclass
class _GInverse(PLEvaluator):
    """g_eps of the eps-cellulation, whose values ``fn`` reads off the g
    table of ``view`` (``_EpsView.g_table``), with gamma, so that
    ``sup_ats`` can measure sampled points' controls through f, and
    ``identity_sups`` the identity f(g_eps(y)) = h2(y, 1), off that table."""

    gamma: FlagMap
    view: _EpsView

    def measures(self, p, q) -> bool:
        """Whether ``sup_ats`` is the control through p and q: p is the
        identity and q is gamma's map, whose images the table holds."""
        return p is None and q is self.gamma.f

    def sup_ats(self, ys, times) -> dict[Point, tuple[float, float | None, int]]:
        """y -> (d_Y(y, f(g_eps(y))), the first t of ``times``, the pairs),
        (0.0, None, 0) for no time: ``_pair_sups`` on the tracks (y,
        f(g_eps(y))), constant in t.  The distance is the table's, or
        ``distance`` where the table has none."""
        table = self.view.g_table(self.gamma, ys)
        dists = [distance(self.view.K, y, fg()) if d is None else d for y in ys for _, _, fg, d in [table[y]]]
        return dict(zip(ys, _first_maxes(times, np.repeat(np.reshape(dists, (-1, 1)), len(times), axis=1))))

    def identity_sups(self, ys) -> dict[Point, tuple[float, float | None, int]]:
        """y -> (d_Y(f(g_eps(y)), h2(y, 1)), 1.0, 1): ``_pair_sups`` on those
        tracks at t = 1, with f(g_eps(y)) read off the table."""
        table, view = self.view.g_table(self.gamma, ys), self.view
        return {y: (distance(view.K, table[y][2](), view.step(cell, s, t, 0.0)), 1.0, 1)
                for y in ys for cell, (s, t) in [view.locate(y)]}


def _g_value(gamma: FlagMap, view: _EpsView, y: Point) -> Point:
    """g_eps(y) = join(w, b), off the g table of ``view``."""
    w, b = view.g_table(gamma, (y,))[y][:2]
    return gamma.trivialization.join(w, b())


def _inverse(f: SimplicialMap, gamma: FlagMap, view: _EpsView) -> PLEvaluator:
    return _GInverse(domain=f.target, codomain=f.source, fn=functools.partial(_g_value, gamma, view), gamma=gamma, view=view)


def build_h1(f: SimplicialMap, eps: float, gamma: FlagMap) -> Homotopy:
    """h1 = (fiber-direction correction) after (id x h2 through the product
    structure); the first half carries the control, the second has none.

    One track reads x's split off gamma and inverts f(x) once: h1' (the
    first half), the end of h1' and g_eps(f(x)) (the second half's ends)
    all read that cell, and the second half locates those two ends in their
    fiber once."""
    return _h1(f, gamma, _EpsView(f.target, eps))


class _H1Track:
    """The track t -> h1(x, t) of one eps-cellulation.  x's split is read
    off gamma, which makes it once for every eps, and f(x) is located once:
    the fiber part ``z``, f(x) as ``y`` and its ``cell`` and cell
    coordinates (s, t).  The second half's start-up, ybar = f(h1(x,
    1/2)) and the fiber tracks from the ends of h1' and of g_eps(f(x))
    (``second``), is made once, on first use (``_start``).  The track
    holds no reference to its homotopy, so no h1 sits in a reference
    cycle."""

    def __init__(self, gamma: FlagMap, view: _EpsView, x: Point):
        self.gamma, self.view, self._second = gamma, view, None
        self.z, self.y = gamma.split(x)
        self.cell, (self.s, self.t) = view.locate(self.y)

    def step(self, eps: float) -> Point:
        """h1' at eps': the cell point at eps' joined to z."""
        return self.gamma.trivialization.join(self.z, self.view.step(self.cell, self.s, self.t, eps))

    @property
    def second(self) -> tuple[Point, Callable[[float], Point], Callable[[float], Point]]:
        """(ybar, the fiber track from h1(x, 1/2), the fiber track from
        g_eps(f(x))), both over ybar's carrier, made on first use
        (``_start``)."""
        if self._second is None:
            _start(self.gamma, self.view, self)
        return self._second

    def fiber_at(self, time: float) -> Point:
        """The fiber part of h1(x, time), time > 1/2."""
        _, tr_a, tr_b = self.second
        u = 2.0 * time - 1.0
        return tr_a(2.0 * u) if u <= 0.5 else tr_b(2.0 - 2.0 * u)

    def __call__(self, time: float) -> Point:
        if time <= 0.5:
            return self.step(self.view.eps * (1.0 - 2.0 * time))
        return self.gamma.trivialization.join(self.fiber_at(time), self.second[0])


def _start(gamma: FlagMap, view: _EpsView, tr: _H1Track) -> None:
    """The second-half start-up of the h1 track ``tr``: ybar = f(h1(x, 1/2))
    and the fiber part w_a of h1(x, 1/2) are the split of the track's step
    at eps' = 0, and the fiber part w_b of g_eps(f(x)) is the split of the
    join that the g table holds for f(x), so gamma is not evaluated again."""
    triv = gamma.trivialization
    w_a, ybar = triv.split(tr.step(0.0))
    w_b = triv.split(_g_value(gamma, view, tr.y))[0]
    tr._second = ybar, gamma.fiber_track(ybar.carrier, w_a), gamma.fiber_track(ybar.carrier, w_b)


@dataclass
class _H1(Homotopy):
    """h1 of the eps-cellulation, whose tracks are ``_H1Track``s over
    ``view``, with the map and gamma, so that ``identity_sups`` can measure
    the two identities of h1's halves over a whole time grid as arrays read
    off their tracks, one group pass (``_passes``) per maximal simplex of Y.
    Its control row through f is h2's, read over f(x) (``_h1_column``)."""

    f: SimplicialMap
    gamma: FlagMap
    view: _EpsView

    def identity_sups(self, xs, times) -> tuple[dict, dict]:
        """The per-point tables x -> (sup over t in ``times``, first t
        attaining it, pairs) of the identities f(h1'(x, t)) = h2(f(x), t),
        that is d_Y(f(h1(x, t/2)), h2(f(x), t)), and f(h1''(x, t)) constant
        in t, d_Y(f(h1(x, 1/2 + t/2)), f(h1(x, 1/2))), with h2 the straight
        line of ``view``: each equal to ``_pair_sups`` on those tracks.

        One ``_passes`` over the h1 times t/2, 1/2 + t/2 and 1/2 gives h1's
        own rows of both.  The first is measured against h2's own rows of
        f(x): h2 locates the split's y in the view's memo, not through the
        track, and steps at eps' = eps (1 - t), and 2 (t/2) is t, so a
        healthy track's first half has h2's bits.  The second is measured
        against the pass's own row at 1/2, f(h1(x, 1/2)), so a second half
        that leaves the level where the first half ended shows, whatever
        ybar the start-up made.  A fast row is measured with one norm over
        the carrier of f(x), and every other pair with ``distance``, where
        f(h1(x, 1/2)) is evaluated once per point.  Each table takes one
        ``_row_sups`` per group, before the next group starts, over the
        blocks of h2's ``_EpsView.rows_of``, one per carrier width of f(x)."""
        f, Y, view, n = self.f, self.f.target, self.view, len(times)
        halves = [time / 2.0 for time in times] + [0.5 + time / 2.0 for time in times] + [0.5]
        epss = tuple(view.eps * (1.0 - time) for time in times)
        first, second = {}, {}
        for group, tracks, F, fast in self._passes(xs, halves):
            h2 = [view.locate(tr.y) for tr in tracks]
            anchor = functools.cache(lambda p: evaluate_map(f, tracks[p](0.5)))
            blocks = [(ps, R, np.stack([F[p] for p in ps])) for ps, R in view.rows_of(h2, epss)]
            first.update(zip(group, _row_sups(times, [(ps, R - F_w[:, :n], fast[ps, :n]) for ps, R, F_w in blocks], lambda p, k: distance(
                Y, evaluate_map(f, tracks[p](halves[k])), view.step(h2[p][0], *h2[p][1], epss[k])))))
            second.update(zip(group, _row_sups(times, [(ps, F_w[:, n:-1] - F_w[:, -1:], fast[ps, n:-1] & fast[ps, -1:]) for ps, _, F_w in blocks], lambda p, k: distance(
                Y, evaluate_map(f, tracks[p](halves[n + k])), anchor(p)))))
        return first, second

    def _passes(self, xs, times):
        """The group pass of ``identity_sups``: per group of ``xs``, (its
        points, their tracks, per point the joined rows F, over the carrier
        of f(x) one row per time, and fast, one row per point).

        The f(x), read off gamma's split memo, are located in one
        ``_EpsView.locate_all``, and the points grouped by a maximal simplex
        tau of Y over the carrier of f(x), one group's tracks at a time.  Each x's rows are read off its track: the first half (t <=
        1/2) is the steps at eps' = eps (1 - 2t), one ``_EpsView.rows_of``
        block per carrier width of the group, joined to the fiber part z,
        and the second half joins the
        track's fiber points to ybar.  One g table fill holds the f(x) of
        the group, which each track's start-up (``_start``) reads.  All rows
        of a group take one ``maps._joined_image_rows`` over tau, whose every sum
        adds a column off a row's carrier as 0, so a row's bits depend
        neither on the rows beside it nor on tau.  A row is fast where the
        pass reproduces it and ``canonical`` leaves its step as it is
        (``_canonical_rows``).  As in the g table, the kernel runs only when
        gamma joins in f's own join coordinates (``_joins``); for another
        trivialization no row is fast."""
        f, Y, n = self.f, self.f.target, len(times)
        located = self.view.locate_all([self.gamma.split(x)[1] for x in xs])
        groups = _by_top(Y, [(cell.carrier, x) for x, (cell, _) in zip(xs, located)])
        late = np.array([time > 0.5 for time in times])
        early = np.flatnonzero(~late)
        epss = tuple(self.view.eps * (1.0 - 2.0 * time) for time in times if time <= 0.5)
        for tau, by_carrier in groups.items():
            group = [x for xs_ in by_carrier.values() for x in xs_]
            # the factory, not ``track``, whose result a wrapper (such as the
            # tracer of perfbench/tracing.py) may hide: the rows read the track's state
            tracks = [self.track_factory(x) for x in group]
            self.view.g_table(self.gamma, [tr.y for tr in tracks])
            rows = np.zeros((len(group), n, len(tau.vertices)))
            canon = np.tile(late, (len(group), 1))
            cols = [[tau.vertices.index(v) for v in tr.cell.carrier.vertices] for tr in tracks]
            for ps, steps in self.view.rows_of([(tr.cell, (tr.s, tr.t)) for tr in tracks], epss):
                rows[np.array(ps)[:, None, None], early[:, None], np.array([cols[p] for p in ps])[:, None]] = steps
                canon[np.ix_(ps, early)] = _canonical_rows(steps.reshape(-1, steps.shape[2])).reshape(len(ps), len(early))
            rows[:, late] = _rows_over(tau, [tr.second[0] for tr in tracks])[:, None]
            rows = rows.reshape(len(group) * n, -1)
            if _joins(self.gamma):
                ws = [tr.fiber_at(time) if time > 0.5 else tr.z for tr in tracks for time in times]
                F, fast = _joined_image_rows(f, tau, ws, rows)
            else:  # another trivialization: every row takes its pair
                F, fast = rows, np.zeros(len(rows), dtype=bool)
            fast = (fast & canon.ravel()).reshape(len(group), n)
            yield group, tracks, [F_x[:, at] for F_x, at in zip(F.reshape(len(group), n, -1), cols)], fast


def _by_top(K: SimplicialComplex, items) -> dict:
    """tau -> carrier -> the items of ``items``, (carrier, item) pairs, on
    that carrier, with tau a maximal simplex of K over it: one walk
    (``_maximal_over``) per distinct carrier."""
    groups, tops = {}, {}
    for sigma, item in items:
        tau = tops[sigma] if sigma in tops else tops.setdefault(sigma, _maximal_over(K, sigma))
        groups.setdefault(tau, {}).setdefault(sigma, []).append(item)
    return groups


def _maximal_over(K: SimplicialComplex, sigma: Simplex) -> Simplex:
    """A maximal simplex of K over sigma: the end of the walk up the first
    cofacets of ``_face_poset``, from sigma's position in ``K._sorted``."""
    cofacets, i = _face_poset(K)[1], bisect.bisect_left(K._sorted, K.sort_key(sigma), key=K.sort_key)
    while cofacets[i]:
        i = cofacets[i][0]
    return K._sorted[i]


def _h1(f: SimplicialMap, gamma: FlagMap, view: _EpsView) -> _H1:
    track_factory = functools.partial(_H1Track, gamma, view)
    return _H1(domain=f.source, codomain=f.source, track_factory=track_factory, f=f, gamma=gamma, view=view)


def effective_comesh(K: SimplicialComplex) -> float:
    """The comesh, with the 0-dimensional case (no positive radius anywhere,
    comesh infinite) capped at 1 so schedules stay finite."""
    cm = comesh_of(K)
    return cm if math.isfinite(cm) else 1.0


@dataclass
class ControlledFamily:
    """The one-parameter family {g_eps, h1_eps, h2_eps} for a fixed gamma.

    ``at`` builds one ``_EpsView`` of the target at eps, which reads the
    cellulation that ``build_cellulation`` keeps at exactly eps (and
    rejects an eps outside (0, comesh)), and its three closures over it, so
    one ``at`` call inverts each distinct point once and builds each
    (cell, eps') image array once.  The view dies with the closures.
    ``_sups`` is the one per-point memo of ``family_controls``, keyed by the
    exact eps; it lives as long as the family."""

    f: SimplicialMap
    gamma: FlagMap
    _sups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def comesh(self) -> float:
        return comesh_of(self.f.target)

    @property
    def effective_comesh(self) -> float:
        return effective_comesh(self.f.target)

    def at(self, eps: float) -> tuple[PLEvaluator, Homotopy, Homotopy]:
        view = _EpsView(self.f.target, eps)
        return _inverse(self.f, self.gamma, view), _h1(self.f, self.gamma, view), _straightline(view)


def build_family(f: SimplicialMap, **gamma_kwargs) -> ControlledFamily:
    return ControlledFamily(f=f, gamma=build_gamma_map(f, **gamma_kwargs))


@dataclass
class TrivialFamily:
    """The zero-control family of an identity map: inverse the identity,
    homotopies constant.  Interchangeable with a constructed family wherever
    only (f, comesh, at, _sups) are consumed; ``f`` is one identity map,
    built on first read."""

    K: SimplicialComplex
    _sups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def f(self) -> SimplicialMap:
        return identity_map(self.K)

    @property
    def comesh(self) -> float:
        return comesh_of(self.K)

    @property
    def effective_comesh(self) -> float:
        return effective_comesh(self.K)

    def at(self, eps: float):
        ident = PLEvaluator(domain=self.K, codomain=self.K, fn=lambda p: p)
        const = Homotopy(domain=self.K, codomain=self.K, track_factory=lambda p: lambda t: p)
        return ident, const, const


def epsilon_schedule(K: SimplicialComplex, steps: int = 5) -> list[float]:
    """The geometric test grid comesh/2, comesh/4, ... (a unit base when the
    complex has no positive-dimensional simplices)."""
    cm = effective_comesh(K)
    return [cm / 2**i for i in range(1, steps + 1)]


# -- control measurement -----------------------------------------------------------

def _control_fn(control, K: SimplicialComplex):
    if control is None:
        return (lambda p: p), K
    if isinstance(control, SimplicialMap):
        return (lambda p: evaluate_map(control, p)), control.target
    raise MalformedInputError("control map must be None (identity) or a SimplicialMap")


def sample_points(K: SimplicialComplex, samples: int, seed: int = 0, subdivision_rounds: int = 1) -> list[Point]:
    """Vertices of the r-fold subdivision plus uniformly drawn points of
    maximal simplices."""
    _check_nonnegative(samples=samples, seed=seed, subdivision_rounds=subdivision_rounds)
    pts = subdivision_points(K, subdivision_rounds)
    rng = np.random.default_rng(seed)
    maxs = K.maximal_simplices()
    for _ in range(samples):
        s = maxs[int(rng.integers(len(maxs)))]
        w = rng.dirichlet(np.ones(len(s.vertices)))  # may read 1 - 2**-53 on a vertex
        pts.append(canonical(K, Point(s, tuple(w) if s.dim else (1.0,))))
    return pts


def sampled_sup(
    M: SimplicialComplex,
    points,
    times,
    tracks: Callable[[object], tuple[Callable[[float], Point], Callable[[float], Point]]],
) -> tuple[float, tuple[object, float] | None, int]:
    """(sup, witness, pairs): the sup of d_M(a(t), b(t)) over each sample z,
    with (a, b) = tracks(z), and each t in ``times``; the first (z, t) in
    sample order that attains it (None when nothing is sampled); and the
    number of pairs evaluated.  ``tracks`` runs once per distinct sample, so
    per-point setup such as a cellulation inversion belongs there."""
    return _fold(points, _pair_sups(M, points, tuple(map(float, times)), tracks))


def _joins(gamma: FlagMap) -> bool:
    """Whether gamma joins in its map's own join coordinates, the ones that
    ``maps._joined_image_rows`` reproduces."""
    triv = gamma.trivialization
    return type(triv) is JoinTrivialization and triv.f is gamma.f


def _pair_sups(M, points, times, tracks) -> dict:
    """z -> (sup over t of d_M(a(t), b(t)), first t attaining it, pairs)
    for each distinct z of ``points``, with (a, b) = tracks(z): one
    ``distance`` per pair."""
    zs = list(dict.fromkeys(points))
    dists = [[distance(M, a(t), b(t)) for t in times] for a, b in map(tracks, zs)]
    return dict(zip(zs, _first_maxes(times, np.reshape(dists, (len(zs), len(times))))))


def _fold(points, sups) -> tuple[float, tuple[object, float] | None, int]:
    """``sampled_sup`` over the per-point table ``sups`` (z -> (sup over t,
    first t that attains it, pairs)), read in sample order."""
    worst, witness, count = 0.0, None, 0
    for z in points:
        best, arg, n = sups[z]
        count += n
        if arg is not None and (witness is None or best > worst):
            worst, witness = best, (z, arg)
    return worst, witness, count


def _control_report(u, p, q, points, times, eps: float | None, memo: dict | None = None) -> ControlReport:
    """The sampled sup of d_M(p(z), q(u(z, t))) over the points and times,
    with p and q landing in one metric complex M (None is the identity; a
    map counts as a homotopy constant in t).  ``memo`` is a per-point table
    as ``_fold`` reads it (None keeps nothing): the points it lacks are
    measured in one call, by g's or h2's ``sup_ats`` over the whole time
    grid when it ``measures`` the control through p and q, and otherwise by
    ``_pair_sups``, and fill it.  The times are Python floats: each
    measurement converts its grid once, where it enters (``sampled_sup``,
    ``measure_control``, ``_family_controls``)."""
    pfn, M = _control_fn(p, u.domain)
    qfn, M2 = _control_fn(q, u.codomain)
    if M is not M2:
        raise MalformedInputError("control maps must land in one metric complex")
    sups = {} if memo is None else memo
    missing = [z for z in dict.fromkeys(points) if z not in sups]
    if isinstance(u, (_StraightLine, _GInverse)) and u.measures(p, q):
        sups.update(u.sup_ats(missing, times))
    else:
        track = u.track if isinstance(u, Homotopy) else (lambda z: lambda t: u(z))

        def tracks(z: Point):
            anchor = pfn(z)
            tr = track(z)
            return (lambda t: anchor), (lambda t: qfn(tr(t)))

        sups.update(_pair_sups(M, missing, times, tracks))
    sup, witness, count = _fold(points, sups)
    return ControlReport(epsilon_target=eps, measured_control=sup, samples=count, witness=witness)


def family_controls(family, eps: float, pts_y, pts_x, times) -> dict[str, ControlReport]:
    """The controls of the family at eps, one row per map: g on ``pts_y`` at
    time 0 measured through f, h1 on ``pts_x`` through f and f (read off
    h2's row over f(x), ``_h1_column``, when gamma joins in f's own join
    coordinates), and h2 on ``pts_y`` in Y, each homotopy at ``times``.

    Each point's sup is measured once per (row, eps, times) and kept in
    ``family._sups``, so a later call at the same eps reads it: the
    assembly's slice heights, whose eps are exactly the control table's
    comesh/2, comesh/4 and comesh/8, reuse the table's points."""
    return _family_controls(family, eps, family.at(eps), pts_y, pts_x, times)


def _family_controls(family, eps: float, closures, pts_y, pts_x, times) -> dict[str, ControlReport]:
    """``family_controls`` on closures (g, h1, h2) of ``family.at(eps)``
    that the caller already holds."""
    f = family.f
    g, h1, h2 = closures
    times = tuple(map(float, times))

    def row(name, u, p, q, pts, ts):
        return _control_report(u, p, q, pts, ts, eps, family._sups.setdefault((name, eps, ts), {}))

    if isinstance(h1, _H1) and _joins(h1.gamma):
        # every x measured here, so the h1 row below only folds the table
        _h1_column(h1.gamma, h2, pts_x, times, family._sups.setdefault(("h1", eps, times), {}))
    return {
        "g": row("g", g, None, f, pts_y, (0.0,)),
        "h1": row("h1", h1, f, f, pts_x, times),
        "h2": row("h2", h2, None, None, pts_y, times),
    }


def _h1_column(gamma: FlagMap, h2: _StraightLine, xs, times, memo: dict) -> None:
    """Fill the h1 row's per-point table ``memo`` for the xs it lacks: x ->
    (sup over t in ``times`` of d_Y(f(x), f(h1(x, t))), the first t
    attaining it, ``len(times)`` pairs), read off h2's row
    (``_StraightLine.sup_ats``) over the split's y = f(x), at each distinct
    time min(2t, 1) once.

    h1 is built from h2 through the product structure: h1(x, t) joins x's
    fiber part z to h2's step of f(x) at 2t for t <= 1/2, and h1''(x, t)
    joins a fiber point to ybar = f(h1(x, 1/2)).  split(join(z, y)) = (z,
    y) gives f(join(z, y)) = y on every sigma, which the product
    certificate of ``verify`` checks, so f(h1(x, t)) = h2(f(x), min(2t,
    1)).  The two h1
    identity lines of ``verify`` (``_H1.identity_sups``) check both halves
    of this on h1's own tracks at comesh/2: the first half against h2's own
    location of f(x), the second against f(h1(x, 1/2))."""
    new = {x: gamma.split(x)[1] for x in dict.fromkeys(xs) if x not in memo}
    first: dict[float, float] = {}  # h2 time -> the first t of ``times`` read at it
    for time in times:
        first.setdefault(min(2.0 * time, 1.0), time)
    sups = h2.sup_ats(list(dict.fromkeys(new.values())), tuple(first))
    memo.update((x, (best, first.get(arg), len(times))) for x, y in new.items() for best, arg, _ in [sups[y]])


def measure_control(
    u,
    p: SimplicialMap | None = None,
    q: SimplicialMap | None = None,
    *,
    samples: int = 300,
    seed: int = 0,
    subdivision_rounds: int = 1,
    time_steps: int = 33,
    epsilon_target: float | None = None,
) -> ControlReport:
    """Sup over the sample set of d_M(p(z), q(u(z))), homotopies sampled at
    ``time_steps`` times per spatial sample (tracks reuse per-point setup),
    with the witness (z, t) that attains it."""
    _check_nonnegative(time_steps=time_steps)
    pts = sample_points(u.domain, samples, seed=seed, subdivision_rounds=subdivision_rounds)
    times = np.linspace(0.0, 1.0, time_steps).tolist() if isinstance(u, Homotopy) else (0.0,)
    return _control_report(u, p, q, pts, times, epsilon_target)


# -- approximate homotopy lifting ----------------------------------------------------

def approximate_lift(
    f: SimplicialMap,
    family: ControlledFamily,
    H: Homotopy,
    h: PLEvaluator,
    eps: float,
    *,
    samples: int = 60,
    seed: int = 0,
) -> Homotopy:
    """A lift of H through f up to eps: start at h, run the controlled track
    of h down to g_delta(H(.,0)) inside a short initial interval, then follow
    g_delta composed with H (delta = eps/2).  The initial interval is sized
    from the sampled time modulus of H so both phases stay within eps."""
    delta = eps / 2.0
    pts = sample_points(H.domain, min(samples, 40), seed=seed, subdivision_rounds=0)
    d0, witness, _ = sampled_sup(
        f.target, pts[:25], (0.0,), lambda z: (lambda t: evaluate_map(f, h(z)), lambda t: H(z, t))
    )
    if d0 > 1e-7:
        raise LiftMismatchError(f"f(h(z)) differs from H(z, 0) by {d0:.3e} at z = {witness[0]}")
    # sampled time-Lipschitz bound of H over steps of 1/16 (a power of two,
    # so dividing by it is exact)
    def steps(z: Point):
        tr = H.track(z)
        return tr, (lambda t: tr(t + 0.0625))

    lip = max(1e-9, sampled_sup(f.target, pts, [k / 16 for k in range(16)], steps)[0] / 0.0625)
    r = 0.5 * (eps - delta) / lip
    eta = min(0.5, r / (1.0 + r))
    g, h1, _ = family.at(delta)

    def track_factory(z: Point):
        x0 = h(z)
        tr_h1 = h1.track(x0)
        tr_H = H.track(z)

        def at(t: float) -> Point:
            if t <= eta:
                return tr_h1(t / eta if eta > 0 else 1.0)
            return g(tr_H((t - eta) / (1.0 - eta)))

        return at

    return Homotopy(
        domain=H.domain,
        codomain=f.source,
        track_factory=track_factory,
    )


def lift_discrepancy(
    f: SimplicialMap,
    H: Homotopy,
    lifted: Homotopy,
    *,
    samples: int = 60,
    seed: int = 0,
    time_steps: int = 33,
) -> float:
    """sup over samples of d_Y(H(z,t), f(lifted(z,t)))."""
    _check_nonnegative(time_steps=time_steps)
    pts = sample_points(H.domain, samples, seed=seed, subdivision_rounds=0)

    def tracks(z: Point):
        trH, trL = H.track(z), lifted.track(z)
        return trH, (lambda t: evaluate_map(f, trL(t)))

    return sampled_sup(f.target, pts, np.linspace(0.0, 1.0, time_steps), tracks)[0]


# -- fiber contraction from the controlled family ------------------------------------

def star_clearance(K: SimplicialComplex, y: Point) -> float:
    """Distance from y to the part of the complex outside the open star of
    its carrier (exact: minimized over the rim faces of incident simplices)."""
    y = canonical(K, y)
    sigma = y.carrier
    best = math.inf
    for tau in K.sorted_simplices():
        if not sigma <= tau:
            continue
        verts = tau.vertices
        yv = _coords_over(y, verts)
        eye = np.eye(len(verts))
        for rho in tau.facets():
            if sigma <= rho:
                continue
            rows = [verts.index(v) for v in rho.vertices]
            best = min(best, min_distance_to_simplex(yv, eye[rows]))
    return best


def derive_contraction(f: SimplicialMap, y: Point, family: ControlledFamily) -> Homotopy:
    """Contraction of f^{-1}(y): run h1 at a control small enough that all
    f-tracks stay inside the star of y's carrier, retract the star preimage
    onto the open-cell preimage, and project the product to the y slice."""
    Y = f.target
    y = canonical(Y, y)
    sigma = y.carrier
    clearance = star_clearance(Y, y)
    eps_used = min(0.9 * clearance, 0.9 * family.effective_comesh)
    if not (eps_used > 0.0 and math.isfinite(eps_used)):
        raise ValueError(f"no valid control radius at {y} (clearance {clearance})")
    g, h1, _ = family.at(eps_used)
    retraction = build_star_retraction(f, sigma)
    triv = family.gamma.trivialization

    def project_to_slice(x: Point) -> Point:
        w, _ = triv.split(x)
        return triv.join(w, y)

    def track_factory(x: Point):
        tr = h1.track(x)

        def at(t: float) -> Point:
            return project_to_slice(retraction(tr(t), 1.0))

        return at

    return Homotopy(
        domain=f.source,
        codomain=f.source,
        track_factory=track_factory,
    )
