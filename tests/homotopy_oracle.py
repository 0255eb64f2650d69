"""Reference kernels for the differential tests of the homotopy tracks: the
collapse contraction, the star retraction and the fiber contraction of gamma
as functions of (point, time) that redo their per-point work on every call
(replaying every squash from the start, summing the off-sigma mass, locating
the point in its fiber), and the per-call fiber track of gamma."""

from plcontrol import NotFoundError, Point, combine_points, make_point
from plcontrol.complexes import TOL
from plcontrol.contract import _squash


def contraction_from_collapse(K, seq):
    """fn(p, t) of the collapse contraction, replaying the squashes of the
    first k steps from p on every call."""
    steps = seq.steps
    N = len(steps)

    def fn(p: Point, t: float) -> Point:
        if N == 0 or t <= 0.0:
            return p
        s = min(max(t, 0.0), 1.0) * N
        k = min(int(s), N - 1)
        frac = s - k
        cur = p
        for i in range(k):
            cur = _squash(K, cur, *steps[i])
        if frac <= 0.0:
            return cur
        nxt = _squash(K, cur, *steps[k])
        if frac >= 1.0:
            return nxt
        return combine_points(K, [(1.0 - frac, cur), (frac, nxt)])

    return fn


def build_star_retraction(f, sigma):
    """fn(x, s) of the star retraction, summing x's mass off sigma on every
    call."""
    sig = set(sigma.vertices)

    def fn(x: Point, s: float) -> Point:
        t_out = sum(
            c for v, c in zip(x.carrier.vertices, x.coords) if f.vertex_map[v] not in sig
        )
        t_in = 1.0 - t_out
        if t_in <= TOL:
            raise NotFoundError(f"point {x} outside f^{{-1}}(st({sigma}))")
        t_new = max(0.0, t_out - s)
        out: dict[str, float] = {}
        for v, c in zip(x.carrier.vertices, x.coords):
            if f.vertex_map[v] in sig:
                out[v] = c * (1.0 - t_new) / t_in
            elif t_out > 0.0 and t_new > 0.0:
                out[v] = c * t_new / t_out
        return make_point(f.source, out)

    return fn


def fiber_track(gamma, sigma, w: Point):
    """gamma's fiber track over sigma at w as it was before ``FlagMap``
    kept its tracks: every call locates w in the fiber and builds a fresh
    contraction track, and every read embeds its point again."""
    fiber = gamma.fibers[sigma]
    labels, mu = fiber.locate(w)
    tr = gamma.contractions[sigma].track(make_point(fiber.triangulation, dict(zip(labels, mu))))

    def at(time: float) -> Point:
        if time <= 0.0:
            return w
        q = tr(time)
        return fiber.embed(q.carrier.vertices, q.coords)

    return at


def contract_in_fiber(gamma, sigma, w: Point, time: float) -> Point:
    """gamma's fiber contraction over sigma at w, locating w in the fiber on
    every call."""
    if time <= 0.0:
        return w
    fiber = gamma.fibers[sigma]
    labels, mu = fiber.locate(w)
    tri = fiber.triangulation
    p = make_point(tri, dict(zip(labels, mu)))
    q = gamma.contractions[sigma](p, time)
    return fiber.embed(q.carrier.vertices, q.coords)
