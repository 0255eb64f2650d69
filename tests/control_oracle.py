"""The four hand-written sampled-sup loops that `homotopies.sampled_sup`
replaced, kept as oracles for differential tests: `measure_control` (as the
bare sup and pair count), `cone._slice_controls`, `verify._identity_checks`
and `lift_discrepancy`.  Loop bodies are unchanged; only the Lipschitz margin,
which nothing read, is gone from the measure_control return."""

from __future__ import annotations

import numpy as np

from plcontrol.complexes import MalformedInputError
from plcontrol.evaluators import Homotopy
from plcontrol.homotopies import _control_fn, sample_points
from plcontrol.maps import evaluate_map
from plcontrol.metrics import distance


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
