#!/usr/bin/env python3
"""Sweep the free-energy Hessian over tilts and inverse temperatures.

Exercises the convexity bound min eig D^2 f >= (c1/2) |T| across a beta range
that straddles the primary-condition threshold, so the out-of-hypothesis rows
show what happens where the bound is no longer guaranteed.  Every d = 1 row is
one conditioning pass (the oracle serves any m); a row whose pass raises
QuadratureError is written with verdict quadrature-error and the sweep goes on.

Usage: python scripts/run_hessian_sweep.py [--m 3] [--family example_b] [--delta 0.5]
       [--a 0.5] [--factors 0.25,0.5,1,2,4] [--out sweep.csv]
"""

import argparse

from gil.conditions import check_conditions
from gil.lattice import Torus
from gil.potentials import example_a, example_b, example_c, norms
from gil.quadrature import QuadratureError
from gil.renorm import verify_theorem


def _rows(p, beta, t, u_grid):
    """verify_theorem's oracle row for each tilt, None for a tilt that raises QuadratureError.

    One call serves the whole grid, so the norms and conditions are computed
    once per beta; only when it raises does the grid go tilt by tilt.
    """
    try:
        return verify_theorem(p, beta, t, u_grid, method="oracle")
    except QuadratureError:
        pass
    rows = []
    for u in u_grid:
        try:
            rows.append(verify_theorem(p, beta, t, [u], method="oracle")[0])
        except QuadratureError:
            rows.append(None)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=("example_a", "example_b", "example_c"), default="example_b")
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--factors", default="0.25,0.5,1,2,4", help="comma list of beta over the d = 1 threshold")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    p = {
        "example_a": lambda: example_a(args.a),
        "example_b": lambda: example_b(args.delta),
        "example_c": lambda: example_c(0.05, 2.0, 1.0),
    }[args.family]()
    t = Torus(1, args.m)
    beta_star = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond
    u_grid = [[0.0], [0.25], [0.5], [1.0]]
    lines = ["beta,beta_over_threshold,u_1,min_eig,std_error,bound,margin,verdict"]
    for factor in (float(f) for f in args.factors.split(",")):
        beta = factor * beta_star
        for u, r in zip(u_grid, _rows(p, beta, t, u_grid)):
            if r is None:
                cells, verdict = (float("nan"),) * 4, "quadrature-error"
            else:
                cells, verdict = (r.min_eig, r.std_error, r.bound, r.margin), r.verdict
            lines.append(f"{beta:.17g},{factor},{u[0]:.17g}," + ",".join(f"{x:.17g}" for x in cells) + f",{verdict}")
            print(f"beta={beta:10.4g} ({factor:>6g}x)  u={u[0]:5.2f}  min_eig={cells[0]:12.6f}  {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
