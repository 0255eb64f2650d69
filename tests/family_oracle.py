"""The closures of the controlled family as they were before one locate memo
served them: g_eps, h1_eps and h2_eps each invert their point in the
cellulation on every call or track, so g(y) and h2.track(y) invert y twice,
and each step evaluates its cell through ``FlagCell.evaluate``, which builds
the cell's vertex images again.  Kept as the oracle of the shared-inversion
and step-kernel differential tests, with ``fiber_join`` as it was when it
read its fiber simplex off the point f(z).  h1's second half reads the
per-call fiber track of ``homotopy_oracle``, as before gamma kept its tracks."""

import homotopy_oracle
from plcontrol import (
    Homotopy,
    MalformedInputError,
    PLEvaluator,
    build_cellulation,
    canonical,
    evaluate_map,
    make_point,
)
from plcontrol.complexes import TOL


def fiber_join(f, z, y):
    sigma_labels = set(evaluate_map(f, z).carrier.vertices)
    yd = y.as_dict()
    if not set(yd) <= sigma_labels:
        raise MalformedInputError(
            f"base point support {sorted(yd)} exceeds fiber simplex {sorted(sigma_labels)}"
        )
    m1 = len(sigma_labels)
    out = {}
    for v, c in zip(z.carrier.vertices, z.coords):
        w = f.vertex_map[v]
        lam = yd.get(w, 0.0)
        if lam > TOL:
            out[v] = c * m1 * lam
    return make_point(f.source, out)


def straightline_homotopy(K, eps):
    cel = build_cellulation(K, eps)

    def track_factory(y):
        cell, (s, t) = cel.invert(y)

        def tr(time):
            return canonical(K, cell.evaluate(eps * (1.0 - time), s, t))

        return tr

    return Homotopy(domain=K, codomain=K, track_factory=track_factory)


def build_inverse(f, eps, gamma):
    cel = build_cellulation(f.target, eps)

    def fn(y):
        cell, (s, t) = cel.invert(y)
        return gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)

    return PLEvaluator(domain=f.target, codomain=f.source, fn=fn)


def build_h1(f, eps, gamma):
    Y = f.target
    cel = build_cellulation(Y, eps)
    triv = gamma.trivialization

    def track_factory(x):
        z, y = triv.split(x)
        cell, (s, t) = cel.invert(y)

        def hprime(u):
            return triv.join(z, canonical(Y, cell.evaluate(eps * (1.0 - u), s, t)))

        second = None

        def at(time):
            nonlocal second
            if time <= 0.5:
                return hprime(2.0 * time)
            if second is None:
                a = hprime(1.0)
                b = gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)
                ybar = evaluate_map(f, a)
                second = ybar, *(
                    homotopy_oracle.fiber_track(gamma, ybar.carrier, triv.split(q)[0]) for q in (a, b)
                )
            ybar, tr_a, tr_b = second
            u = 2.0 * time - 1.0
            return triv.join(tr_a(2.0 * u) if u <= 0.5 else tr_b(2.0 - 2.0 * u), ybar)

        return at

    return Homotopy(domain=f.source, codomain=f.source, track_factory=track_factory)


def family_at(family, eps):
    """(g, h1, h2) of ``family.at(eps)``, each closure inverting on its own."""
    f = family.f
    return (
        build_inverse(f, eps, family.gamma),
        build_h1(f, eps, family.gamma),
        straightline_homotopy(f.target, eps),
    )
