"""Reference kernels for the differential tests of ``plcontrol.cellulation``
and ``plcontrol.homotopies``: the inversion that scans every cell whose
carrier contains the point's carrier, the eager build of every flag cell
with its global (base, chain) index and the candidate lookup through it,
which the cells built on demand replaced, the enumeration of a point's
fitting flags at each eps and the inversion through it, which the
per-point fitting lists replaced, the cell check on Python floats
(``try_cell``) and the one-point inversion through it (``scalar_invert``),
which the block check of ``Cellulation.invert_block`` replaced, the cell
check on numpy arrays that the float kernel replaced, the per-row loops
that formed a cell point's rows one eps' at a time and measured each fast
row on its own, the rows that gathered and stacked a cell's images on
every call, which the per-grid image stacks replaced, and the h1 built
as a concatenation of two homotopies that each invert the cellulation on
their own, whose second half locates its fiber points on every call."""

import itertools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from plcontrol import (
    Cellulation,
    FlagCell,
    FlagMap,
    Homotopy,
    InversionError,
    Point,
    SimplicialMap,
    build_h2,
    build_inverse,
    canonical,
    concatenate,
    distance,
    evaluate_map,
)
from plcontrol.cellulation import _SLACK, _add, _contract, _flag_cell, _ordered_partitions, enumerate_flags
from plcontrol.metrics import vertex_barycenter_distance
import homotopy_oracle
from reduction_oracle import _first_max


def invert(cel: Cellulation, y: Point, tol: float = 1e-9):
    """The first cell, in the order of ``cel.cells`` (flag order), whose carrier
    contains y's carrier and which reproduces y, with its (s, t)."""
    y = canonical(cel.K, y)
    for cell in cel.cells:
        if not cell.carrier.contains(y.carrier):
            continue
        out = _try_cell(cel, cell, y, tol)
        if out is not None:
            return cell, out
    raise InversionError(f"no cell of the eps={cel.eps} cellulation reproduces {y}")


@dataclass(eq=False)
class IndexedCell(FlagCell):
    """A cell of the eager build, numbered by its place in ``enumerate_flags``."""

    index: int = -1


_EAGER: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def flag_cells(K):
    """The eps-free cells of every flag of K and their index, carrier ->
    (base mask, chain masks) -> cell with masks over carrier positions; built
    once per K, apart from the cells that K keeps."""
    if K not in _EAGER:
        cells: list[IndexedCell] = []
        index: dict = {}
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
            cell = IndexedCell(
                index=idx, flag=fl, carrier=carrier, E=np.eye(len(pos))[base_pos], chat=chat,
                lengths=np.array([vertex_barycenter_distance(s.dim) for s in fl.chain]),
                own=own, base_pos=base_pos,
                sizes=tuple(float(len(s.vertices)) for s in fl.chain),
            )
            cells.append(cell)
            masks = tuple(sum(1 << pos[v] for v in s.vertices) for s in (fl.base, *fl.chain))
            index.setdefault(carrier, {})[masks[0], masks[1:]] = cell
        _EAGER[K] = (cells, index)
    return _EAGER[K]


def fitting_cells(cel: Cellulation, y: Point, tol: float) -> list[IndexedCell]:
    """The eager cells over y's carrier whose flag fits y's sorted
    coordinates, in ascending index: the lookup of every candidate in the
    eager index.  y is canonical."""
    index = flag_cells(cel.K)[1][y.carrier]
    vals = y.coords
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    runs = [[order[0]]]
    for i, j in zip(order, order[1:]):
        if vals[i] - vals[j] > _SLACK + 2.0 * tol:
            runs.append([])
        runs[-1].append(j)
    cap = cel._level_cap + tol
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


def indexed_invert(cel: Cellulation, y: Point, tol: float = 1e-9):
    """``Cellulation.invert`` over the eager index: the first fitting cell,
    in index order, that ``try_cell`` accepts, with its (s, t)."""
    y = canonical(cel.K, y)
    for cell in fitting_cells(cel, y, tol):
        if (out := try_cell(cel, cell, y, tol)) is not None:
            return cell, out
    raise InversionError(f"no cell of the eps={cel.eps} cellulation reproduces {y}")


def fitting_cells_per_eps(cel: Cellulation, y: Point, tol: float) -> list[FlagCell]:
    """The cells over y's carrier whose flag fits y's sorted coordinates at
    the eps of ``cel``, in flag order, enumerated afresh at this eps: y's
    runs, every (base, chain) mask pick under the level cap, each cell
    looked up in ``K._flag_cells`` and built on a miss, then sorted by
    its flag's key.  y is canonical."""
    K = cel.K
    kept = K._flag_cells.setdefault(y.carrier, {})
    vals = y.coords
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    runs = [[order[0]]]
    for i, j in zip(order, order[1:]):
        if vals[i] - vals[j] > _SLACK + 2.0 * tol:
            runs.append([])
        runs[-1].append(j)
    cap = cel._level_cap + tol
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
                for masks in ((base, *chain), chain)[: len(chain)]:
                    found.append(kept.get(masks) or _flag_cell(K, y.carrier, masks))
    return sorted(found, key=lambda c: (K.sort_key(c.flag.base), tuple(map(K.sort_key, c.flag.chain))))


def invert_per_eps(cel: Cellulation, y: Point, tol: float = 1e-9):
    """``Cellulation.invert`` over ``fitting_cells_per_eps``: the first
    fitting cell, in flag order, that ``try_cell`` accepts,
    with its (s, t)."""
    y = canonical(cel.K, y)
    for cell in fitting_cells_per_eps(cel, y, tol):
        if (out := try_cell(cel, cell, y, tol)) is not None:
            return cell, out
    raise InversionError(f"no cell of the eps={cel.eps} cellulation reproduces {y}")


def proper_vertex_pairs(K) -> set:
    """The (v, tau) pairs with v a base vertex and tau a positive-dimensional
    chain simplex of some flag cell of K."""
    return {
        (v, s)
        for c in flag_cells(K)[0]
        for v in c.flag.base.vertices
        for s in c.flag.chain
        if s.dim > 0
    }


def _try_cell(cel: Cellulation, cell: FlagCell, y: Point, tol: float):
    slack = 1e-7
    verts = cell.carrier.vertices
    yv = np.zeros(len(verts))
    for v, c in zip(y.carrier.vertices, y.coords):
        yv[verts.index(v)] = c
    m1 = len(cell.flag.chain)
    a = cell.a_coeffs(cel.eps)
    sizes = np.array([len(s.vertices) for s in cell.flag.chain], dtype=float)

    mu = np.zeros(m1 + 1)
    for j in range(m1 - 1, -1, -1):
        ownj = cell.own[j]
        if ownj:
            vals = yv[ownj]
            if np.ptp(vals) > slack:
                return None
            mu[j] = float(vals.mean())
        else:
            mu[j] = -1.0
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
    base_pos = [verts.index(v) for v in cell.flag.base.vertices]
    s = (yv[base_pos] - mu0) / beta
    if np.any(s < -slack):
        return None
    s = np.clip(s, 0.0, None)
    total = s.sum()
    if abs(total - 1.0) > 1e-6:
        return None
    s /= total
    t = np.clip(t, 0.0, None)
    t /= t.sum()
    res = np.einsum("i,j,ijd->d", s, t, cell.vertex_images(cel.eps)) - yv
    if float(np.linalg.norm(res)) > tol:
        return None
    return s, t


def try_cell(cel: Cellulation, cell: FlagCell, y: Point, tol: float):
    """The cell check of one point on Python floats, the kernel that
    ``Cellulation._check_block`` replaced: (s, t), or None where it fails.
    y is canonical and ``cell.carrier`` is its carrier."""
    # On Python floats: y's coordinates are its carrier's, which is the
    # cell's.  Each sum is an explicit left-to-right add (``_add``), the
    # order in which numpy reduces fewer than 8 elements; no cell has 8
    # levels or base vertices, so s and t have the bits that the array
    # form of this check (``tests/cellulation_oracle.try_cell_arrays``)
    # gives them, and ``x if x > 0.0 else 0.0`` is np.clip's value.
    yv, own, sizes = y.coords, cell.own, cell.sizes
    m1 = len(sizes)
    a = [cel.eps / n if n > 0.0 else 0.0 for n in cell.lengths.tolist()]

    mu = [0.0] * (m1 + 1)  # level averages; level 0's is read only if it owns vertices
    for j in range(m1 - 1, -1, -1):
        if own[j]:
            vals = [yv[p] for p in own[j]]
            if max(vals) - min(vals) > _SLACK:
                return None
            mu[j] = _add(vals) / len(vals)
    t = [0.0] * m1
    for j in range(m1 - 1, 0, -1):
        ta = (mu[j] - mu[j + 1]) * sizes[j]
        if ta < -_SLACK:
            return None
        t[j] = ta / a[j]
    # level 0's weight: read off its own vertices or, when it has none or
    # sigma_0 is a vertex (a_0 = 0, its average then level 1's), what the
    # levels above leave
    if own[0] and a[0] > 0.0:
        t[0] = (mu[0] - mu[1]) * sizes[0] / a[0]
    elif own[0] and abs((mu[0] - mu[1]) * sizes[0]) > _SLACK:
        return None
    else:
        t[0] = 1.0 - _add(t[1:])
    if min(t) < -_SLACK or abs(_add(t) - 1.0) > 1e-6:
        return None
    ta = [tj * aj for tj, aj in zip(t, a)]
    mu0 = _add([x / n for x, n in zip(ta, sizes)])
    if own[0] and abs(mu0 - mu[0]) > _SLACK:
        return None
    beta = 1.0 - _add(ta)
    if beta <= 0.0:
        return None
    # s's rounding grows as 1 / beta.  At or below the slack, which only
    # the cells of a 1-dimensional complex reach, near eps = comesh, s
    # moves the point by at most beta * sqrt(2): the residual test decides.
    stable = beta > _SLACK
    s = [(yv[p] - mu0) / beta for p in cell.base_pos]
    if stable and min(s) < -_SLACK:
        return None
    s = [x if x > 0.0 else 0.0 for x in s]
    total = _add(s)
    if (stable and abs(total - 1.0) > 1e-6) or total <= 0.0:
        return None
    s = [x / total for x in s]
    t = [x if x > 0.0 else 0.0 for x in t]
    total = _add(t)
    t = [x / total for x in t]
    # the cell point (s, t) is sum_j t_j a_j chat_j + (1 - sum_j t_j a_j)
    # s E, the form the solve above inverts: chat_j holds 1 / |sigma_j|
    # on sigma_j's vertices (the base's and those new at levels <= j),
    # and row i of E is base vertex i.  Its distance to y is read only
    # against tol, so that a matmul adding in another order would move a
    # verdict only at a tie with tol.
    ta = [tj * aj for tj, aj in zip(t, a)]
    point = [0.0] * len(yv)
    for j, x in enumerate(ta):
        for p in itertools.chain(cell.base_pos, *own[: j + 1]):
            point[p] += x * (1.0 / sizes[j])
    w = 1.0 - _add(ta)
    for p, x in zip(cell.base_pos, s):
        point[p] += w * x
    if math.sqrt(_add([(q - c) * (q - c) for q, c in zip(point, yv)])) > tol:
        return None
    return np.array(s), np.array(t)


def scalar_invert(cel: Cellulation, y: Point, tol: float = 1e-9, check=None):
    """``Cellulation.invert`` one point at a time, as it was before blocks:
    the first cell of y's fitting list that ``check`` (``try_cell`` by
    default) accepts, with its (s, t), or the ``InversionError`` that names
    y and the flags tried."""
    y = canonical(cel.K, y)
    fitting = cel._fitting_cells(y, tol)
    for cell in fitting:
        if (out := (check or try_cell)(cel, cell, y, tol)) is not None:
            return cell, out
    raise InversionError(
        f"no cell of the eps={cel.eps} cellulation reproduces {y} "
        f"(carrier {y.carrier}, flags tried: {len(fitting)})"
    )


def location_bytes(located) -> list:
    """Each (cell, (s, t)) of a list of located points as (cell, the bytes
    of s, the bytes of t): two lists compare equal when they name the same
    cells, by identity, with s and t equal to the bit."""
    return [(cell, s.tobytes(), t.tobytes()) for cell, (s, t) in located]


def try_cell_block(cel: Cellulation, cell: FlagCell, y: Point, tol: float):
    """``Cellulation._check_block`` on the one row of y, gathered in
    ``cell``'s level order: (s, t), or None where it fails.  y is canonical
    and ``cell.carrier`` is its carrier."""
    ok, S, T = cel._check_block(cell, np.array([y.coords])[:, cell.level_order], tol)
    return (S[0], T[0]) if ok[0] else None


def try_cell_arrays(cel: Cellulation, cell: FlagCell, y: Point, tol: float):
    """``try_cell`` as numpy arrays: the same checks, slacks and
    sums, with a cell point's residual formed through ``cell.E`` and
    ``cell.chat``.  y is canonical and ``cell.carrier`` is its carrier."""
    slack = 1e-7
    yv = np.array(y.coords)
    m1 = len(cell.flag.chain)
    # the bits of cell.a_coeffs(eps), at a fraction of its cost
    a = np.array([cel.eps / n if n > 0.0 else 0.0 for n in cell.lengths.tolist()])
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
    if beta <= 0.0:
        return None
    # s's rounding grows as 1 / beta.  At or below the slack, which only
    # the cells of a 1-dimensional complex reach, near eps = comesh, s
    # moves the point by at most beta * sqrt(2): the residual test decides.
    stable = beta > slack
    s = (yv[cell.base_pos] - mu0) / beta
    if stable and np.any(s < -slack):
        return None
    s = np.clip(s, 0.0, None)
    total = s.sum()
    if (stable and abs(total - 1.0) > 1e-6) or total <= 0.0:
        return None
    s /= total
    t = np.clip(t, 0.0, None)
    t /= t.sum()
    # the cell point (s, t) is (1 - sum_j t_j a_j) s E + sum_j t_j a_j
    # chat_j, the form the solve above inverts; the norm has the bits of
    # np.linalg.norm at a fraction of its cost
    ta = t * a
    res = ta @ cell.chat + (1.0 - ta.sum()) * (s @ cell.E) - yv
    if math.sqrt(res.dot(res)) > tol:
        return None
    return s, t


def vertex_images(cell: FlagCell, eps: float) -> np.ndarray:
    """P[i, j] = image of (v_i, sigma_j-hat) at one eps."""
    a = np.zeros(len(cell.lengths))
    nz = cell.lengths > 0.0
    a[nz] = eps / cell.lengths[nz]
    return cell.E[:, None, :] * (1.0 - a)[None, :, None] + a[None, :, None] * cell.chat[None, :, :]


def rows(cell: FlagCell, s, t, epss) -> np.ndarray:
    """The cell point (s, t) at each eps' of ``epss``, one einsum per row."""
    out = np.empty((len(epss), len(cell.carrier.vertices)))
    for k, eps in enumerate(epss):
        out[k] = np.einsum("i,j,ijd->d", s, t, vertex_images(cell, eps))
    return out


def gathered_rows(view, cell: FlagCell, S, T, epss) -> np.ndarray:
    """``_EpsView.rows`` without its stack memo: the images the view's
    per-eps' memo lacks are built in one ``vertex_images`` call, then the
    images of the grid are gathered and stacked on every call."""
    if not epss:
        return np.empty((len(S), 0, len(cell.carrier.vertices)))
    images = view._images
    if new := list(dict.fromkeys(eps for eps in epss if (cell, eps) not in images)):
        images.update(((cell, eps), P) for eps, P in zip(new, cell.vertex_images(new)))
    return _contract(S, T, np.stack([images[cell, eps] for eps in epss]))


def row_sup(K, y: Point, times, rows, fast, point):
    """The first max of d_K(y, p_k) over ``times``, one row at a time: a fast
    row's distance is ``math.sqrt(d.dot(d))`` of its difference from y, any
    other row's is ``distance`` to ``point(k)``."""
    yv = np.array(y.coords)
    dists = []
    for k, (row, ok) in enumerate(zip(rows, fast)):
        if ok:
            d = yv - row
            dists.append(math.sqrt(d.dot(d)))
        else:
            dists.append(distance(K, y, point(k)))
    return _first_max(times, dists)


def build_h1(f: SimplicialMap, eps: float, gamma: FlagMap) -> Homotopy:
    """h1 as the concatenation of h1' (id x h2 through the product structure)
    and h1'' (the fiber-direction correction); each half inverts f(x) again,
    and h1'' once more through g_eps."""
    h2 = build_h2(f, eps)
    g = build_inverse(f, eps, gamma)
    triv = gamma.trivialization

    def hprime_track(x: Point):
        z, y = triv.split(x)
        tr = h2.track(y)

        def at(t: float) -> Point:
            return triv.join(z, tr(t))

        return at

    hprime = Homotopy(
        domain=f.source,
        codomain=f.source,
        track_factory=hprime_track,
    )

    def hsecond_track(x: Point):
        tr = hprime_track(x)
        a = tr(1.0)
        ybar = evaluate_map(f, a)
        b = g(evaluate_map(f, x))
        w_a, _ = triv.split(a)
        w_b, _ = triv.split(b)
        sigma = ybar.carrier

        def at(t: float) -> Point:
            if t <= 0.5:
                w = homotopy_oracle.contract_in_fiber(gamma, sigma, w_a, 2.0 * t)
            else:
                w = homotopy_oracle.contract_in_fiber(gamma, sigma, w_b, 2.0 - 2.0 * t)
            return triv.join(w, ybar)

        return at

    hsecond = Homotopy(
        domain=f.source,
        codomain=f.source,
        track_factory=hsecond_track,
    )
    return concatenate(hprime, hsecond)
