"""Reference kernels for the differential tests of ``plcontrol.cellulation``
and ``plcontrol.homotopies``: the inversion that scans every cell whose
carrier contains the point's carrier, and the h1 built as a concatenation of
two homotopies that each invert the cellulation on their own."""

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
    evaluate_map,
)


def invert(cel: Cellulation, y: Point, tol: float = 1e-9):
    """The lowest-index cell, in the order of ``cel.cells``, whose carrier
    contains y's carrier and which reproduces y, with its (s, t)."""
    y = canonical(cel.K, y)
    for cell in cel.cells:
        if not cell.carrier.contains(y.carrier):
            continue
        out = _try_cell(cel, cell, y, tol)
        if out is not None:
            return cell, out
    raise InversionError(f"no cell of the eps={cel.eps} cellulation reproduces {y}")


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
        fn=lambda x, t: hprime_track(x)(t),
        name=f"h1' eps={eps}",
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
                w = gamma.contract_in_fiber(sigma, w_a, 2.0 * t)
            else:
                w = gamma.contract_in_fiber(sigma, w_b, 2.0 - 2.0 * t)
            return triv.join(w, ybar)

        return at

    hsecond = Homotopy(
        domain=f.source,
        codomain=f.source,
        fn=lambda x, t: hsecond_track(x)(t),
        name=f"h1'' eps={eps}",
        track_factory=hsecond_track,
    )
    return concatenate(hprime, hsecond, name=f"h1 eps={eps}")
