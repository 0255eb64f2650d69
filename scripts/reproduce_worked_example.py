#!/usr/bin/env python3
"""Reproduce the two-triangle projection example: the explicit section values,
the resulting controlled inverse, its control table, and the cellulation
figure of the target."""

import argparse

import numpy as np

from plcontrol import (
    Point,
    build_cellulation,
    canonical,
    emit_svg,
    epsilon_schedule,
    measure_control,
)
from plcontrol.fixtures import (
    PROJ_Y_POSITIONS,
    proj_height,
    proj_map,
    proj_explicit_family,
    proj_Y,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--svg", default="proj_cellulation.svg")
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()

    f = proj_map()
    Y = proj_Y()
    fam = proj_explicit_family()
    gm = fam.gamma

    rho = Y.simplex(["0", "e1+e2"])
    s1 = Y.simplex(["0", "e1", "e1+e2"])
    s2 = Y.simplex(["0", "e2", "e1+e2"])
    print("explicit chain values (height of the image in the fiber):")
    for chain, formula in [
        ((rho, s1), "t0/2"),
        ((rho, s2), "t0/2 + t1"),
    ]:
        for t in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]:
            h = proj_height(gm.gamma_chain(chain, np.array(t)))
            print(f"  chain {chain[0]} < {chain[1]}  t={t}  height={h:.6f}  ({formula})")

    g, h1, h2 = fam.at(args.epsilon)
    print("\nheights of g_eps on cell-interior samples:")
    for label, simplex in [("sigma1 interior", s1), ("sigma2 interior", s2), ("shared edge", rho)]:
        y = canonical(Y, Point(simplex, tuple([1.0 / len(simplex.vertices)] * len(simplex.vertices))))
        x = g(y)
        print(f"  {label:<16} g({dict(y.as_dict())}) has height {proj_height(x):.6f}")

    print("\ncontrol table:")
    for eps in epsilon_schedule(Y):
        g, h1, h2 = fam.at(eps)
        rg = measure_control(g, None, f, samples=args.samples, epsilon_target=eps)
        rh2 = measure_control(h2, None, None, samples=args.samples // 3, epsilon_target=eps)
        print(f"  eps={eps:.6f}  g: {rg.measured_control:.6f}  h2: {rh2.measured_control:.6f}")

    cel = build_cellulation(Y, args.epsilon)
    emit_svg(cel, args.svg, positions=PROJ_Y_POSITIONS)
    print(f"\nwrote {args.svg} ({len(cel.cells)} cells)")


if __name__ == "__main__":
    main()
