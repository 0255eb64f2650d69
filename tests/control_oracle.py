"""The hand-written sampled-sup loops that `homotopies.sampled_sup` and
`homotopies.family_controls` replaced, kept as oracles for differential
tests: the memo-free `sampled_sup` loop, `measure_control` (as the bare sup
and pair count), the old `cone._slice_controls`, `verify._identity_checks`,
`lift_discrepancy`, the control-table loop of `verify.run_verify` and the
three `measure_control` calls of the CLI's `measure-control`.  Loop bodies are unchanged; only the
Lipschitz margin, which nothing read, is gone from the measure_control
return, and the CLI calls print into a string.

Beside them, the per-point kernel that the one per-point table of
`homotopies._pair_sups` and `homotopies._fold` replaced: the pair-loop
factory `pair_sup` and the callable-or-memo fold `fold_sup` (formerly
`homotopies._pair_sup` and `homotopies._sampled_sup`), and the
time-modulus loop of `approximate_lift` (`lift_eta`).  Their bodies are
unchanged.

Last, the scalar track pairs of the two h1 identities that
`homotopies._H1.identity_sups` replaced, `first_half` and `second_half`
(`h1_identity_tracks`), and `verify._identity_checks` as it read them
(`identity_checks_on`), one ``distance`` per pair: the closures are
unchanged, and only take f and h2 as arguments."""

from __future__ import annotations

import numpy as np

from plcontrol.complexes import MalformedInputError
from plcontrol.evaluators import Homotopy
from plcontrol.homotopies import _control_fn, sample_points
from plcontrol.maps import evaluate_map
from plcontrol.metrics import distance
from reduction_oracle import _first_max


def sampled_sup(M, points, times, tracks):
    """(sup, witness, pairs) over every (z, t), each pair evaluated."""
    worst, witness, count = 0.0, None, 0
    for z in points:
        a, b = tracks(z)
        for t in times:
            t = float(t)
            d = distance(M, a(t), b(t))
            count += 1
            if witness is None or d > worst:
                worst, witness = d, (z, t)
    return worst, witness, count


def measure_control(
    u,
    p=None,
    q=None,
    *,
    samples: int = 300,
    seed: int = 0,
    subdivision_rounds: int = 1,
    time_steps: int = 33,
    refinement: int = 2,
) -> tuple[float, int]:
    """(sup, pairs evaluated) over the sample set of d_M(p(z), q(u(z)))."""
    domain = u.domain
    pfn, M1 = _control_fn(p, domain)
    qfn, M2 = _control_fn(q, u.codomain)
    if M1 is not M2:
        raise MalformedInputError("control maps must land in one metric complex")
    M = M1
    pts = sample_points(domain, samples, seed=seed, subdivision_rounds=subdivision_rounds)
    worst = 0.0
    count = 0
    if isinstance(u, Homotopy):
        times = np.linspace(0.0, 1.0, time_steps)
        for z in pts:
            anchor = pfn(z)
            tr = u.track(z)
            for t in times:
                worst = max(worst, distance(M, anchor, qfn(tr(float(t))), refinement=refinement))
                count += 1
    else:
        for z in pts:
            worst = max(worst, distance(M, pfn(z), qfn(u(z)), refinement=refinement))
            count += 1
    return worst, count


def slice_controls(family, eps: float, samples: int, seed: int, time_steps: int) -> dict[str, float]:
    f = family.f
    Y, X = f.target, f.source
    g, h1, h2 = family.at(eps)
    pts_y = sample_points(Y, samples, seed=seed, subdivision_rounds=1)
    pts_x = sample_points(X, samples, seed=seed + 1, subdivision_rounds=1)
    times = np.linspace(0.0, 1.0, time_steps)
    mg = 0.0
    mh2 = 0.0
    for y in pts_y:
        mg = max(mg, distance(Y, y, evaluate_map(f, g(y))))
        tr = h2.track(y)
        for t in times:
            mh2 = max(mh2, distance(Y, y, tr(float(t))))
    mh1 = 0.0
    for x in pts_x:
        fx = evaluate_map(f, x)
        tr = h1.track(x)
        for t in times:
            mh1 = max(mh1, distance(Y, fx, evaluate_map(f, tr(float(t)))))
    return {"g": mg, "h1": mh1, "h2": mh2}


def identity_checks(f, family, samples: int, seed: int) -> dict[str, float]:
    Y, X = f.target, f.source
    eps = family.effective_comesh / 2.0
    g, h1, h2 = family.at(eps)
    pts_y = sample_points(Y, min(samples, 60), seed=seed)
    pts_x = sample_points(X, min(samples, 60), seed=seed + 1)
    sup_proj = 0.0
    for y in pts_y:
        sup_proj = max(sup_proj, distance(Y, evaluate_map(f, g(y)), h2.track(y)(1.0)))
    sup_hp = 0.0
    sup_hs = 0.0
    sup_id0 = 0.0
    times = np.linspace(0.0, 1.0, 9)
    for x in pts_x:
        tr = h1.track(x)
        trh2 = h2.track(evaluate_map(f, x))
        sup_id0 = max(sup_id0, distance(X, tr(0.0), x))
        for t in times:
            sup_hp = max(
                sup_hp,
                distance(Y, evaluate_map(f, tr(float(t) / 2.0)), trh2(float(t))),
            )
        anchor = evaluate_map(f, tr(0.5))
        for t in times:
            sup_hs = max(
                sup_hs,
                distance(Y, evaluate_map(f, tr(0.5 + float(t) / 2.0)), anchor),
            )
    return {
        "f(g_eps(y)) = h2(y,1)": sup_proj,
        "f(h1'(x,t)) = h2(f(x),t)": sup_hp,
        "f(h1''(x,t)) constant in t": sup_hs,
        "h1(x,0) = x": sup_id0,
    }


def lift_discrepancy(f, H, lifted, *, samples: int = 60, seed: int = 0, time_steps: int = 33) -> float:
    pts = sample_points(H.domain, samples, seed=seed, subdivision_rounds=0)
    worst = 0.0
    times = np.linspace(0.0, 1.0, time_steps)
    for z in pts:
        trH = H.track(z)
        trL = lifted.track(z)
        for t in times:
            worst = max(
                worst,
                distance(f.target, trH(float(t)), evaluate_map(f, trL(float(t)))),
            )
    return worst


def control_rows(f, family, schedule, samples: int, seed: int, time_steps: int, tol: float):
    """The control table of `run_verify`, one public `measure_control` call
    per (eps, map), each drawing its own sample set."""
    from plcontrol.homotopies import measure_control
    from plcontrol.verify import ControlRow

    rows = []
    for eps in schedule:
        g, h1, h2 = family.at(eps)
        rg = measure_control(g, None, f, samples=samples, seed=seed, epsilon_target=eps)
        rh1 = measure_control(
            h1, f, f, samples=max(20, samples // 3), seed=seed, time_steps=time_steps, epsilon_target=eps
        )
        rh2 = measure_control(
            h2, None, None, samples=samples, seed=seed, time_steps=time_steps, epsilon_target=eps
        )
        row = ControlRow(
            eps=eps,
            g=rg.measured_control,
            h1=rh1.measured_control,
            h2=rh2.measured_control,
            tolerance=tol,
        )
        rows.append(row)
    return rows


def measure_control_text(f, epsilon: float, samples: int, seed: int) -> tuple[str, int]:
    """The stdout and exit code of `plcontrol measure-control`."""
    from plcontrol.homotopies import build_family, measure_control

    g, h1, h2 = build_family(f).at(epsilon)
    items = [
        ("g_eps (Y,id)->(X,f)", measure_control(g, None, f, samples=samples, seed=seed, epsilon_target=epsilon)),
        ("h1_eps through f", measure_control(h1, f, f, samples=samples, seed=seed, epsilon_target=epsilon)),
        ("h2_eps in Y", measure_control(h2, None, None, samples=samples, seed=seed, epsilon_target=epsilon)),
    ]
    ok = True
    lines = []
    for name, rep in items:
        lines.append(f"{name:<24} {rep}\n")
        ok = ok and rep.measured_control <= epsilon * (1.0 + 1e-4)
    return "".join(lines), 0 if ok else 1


def pair_sup(M, times, tracks):
    """z -> (sup over t of d_M(a(t), b(t)), first t attaining it, pairs),
    with (a, b) = tracks(z): one ``distance`` per pair."""

    def point_sup(z):
        a, b = tracks(z)
        return _first_max(times, [distance(M, a(t), b(t)) for t in times])

    return point_sup


def fold_sup(points, point_sup, memo):
    """``sampled_sup`` over per-point sups: each z's (sup over t, first t
    that attains it, pairs) is read from ``memo`` when present there, and
    otherwise computed by ``point_sup(z)`` and stored in it (None keeps
    nothing)."""
    worst, witness, count = 0.0, None, 0
    for z in points:
        entry = None if memo is None else memo.get(z)
        if entry is None:
            entry = point_sup(z)
            if memo is not None:
                memo[z] = entry
        best, arg, n = entry
        count += n
        if arg is not None and (witness is None or best > worst):
            worst, witness = best, (z, arg)
    return worst, witness, count


def lift_eta(f, H, eps, *, samples=60, seed=0):
    """The length of `approximate_lift`'s initial interval, from the sampled
    time-Lipschitz bound of H: one distance per step of the 17-time grid."""
    delta = eps / 2.0
    pts = sample_points(H.domain, min(samples, 40), seed=seed, subdivision_rounds=0)
    lip = 1e-9
    times = np.linspace(0.0, 1.0, 17)
    for z in pts:
        tr = H.track(z)
        vals = [tr(float(t)) for t in times]
        for a, b, dt in zip(vals, vals[1:], np.diff(times)):
            lip = max(lip, distance(f.target, a, b) / float(dt))
    r = 0.5 * (eps - delta) / lip
    return min(0.5, r / (1.0 + r))


def h1_identity_tracks(f, h2):
    """(first_half, second_half): for a sample (x, h1 track of x), the
    track pairs of f(h1'(x,t)) = h2(f(x),t) and f(h1''(x,t)) constant in t."""

    def first_half(xt):
        x, tr = xt
        return (lambda t: f(tr(t / 2.0))), h2.track(f(x))

    def second_half(xt):
        _, tr = xt
        anchor = f(tr(0.5))
        return (lambda t: f(tr(0.5 + t / 2.0))), (lambda t: anchor)

    return first_half, second_half


def identity_checks_on(f, closures, samples: int, seed: int) -> dict[str, float]:
    """``verify._identity_checks`` with every identity a scalar sampled
    sup (the pair loop ``sampled_sup`` above): each sampled x's h1 track is
    built once and read by the three x-identities."""
    Y, X = f.target, f.source
    g, h1, h2 = closures

    def projection(y):
        return (lambda t: f(g(y))), h2.track(y)

    first_half, second_half = h1_identity_tracks(f, h2)

    def start(xt):
        x, tr = xt
        return tr, (lambda t: x)

    pts_y = sample_points(Y, min(samples, 60), seed=seed)
    x_tracks = [(x, h1.track(x)) for x in sample_points(X, min(samples, 60), seed=seed + 1)]
    times = np.linspace(0.0, 1.0, 9)
    return {
        "f(g_eps(y)) = h2(y,1)": sampled_sup(Y, pts_y, (1.0,), projection)[0],
        "f(h1'(x,t)) = h2(f(x),t)": sampled_sup(Y, x_tracks, times, first_half)[0],
        "f(h1''(x,t)) constant in t": sampled_sup(Y, x_tracks, times, second_half)[0],
        "h1(x,0) = x": sampled_sup(X, x_tracks, (0.0,), start)[0],
    }
