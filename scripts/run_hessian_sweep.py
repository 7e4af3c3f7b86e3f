#!/usr/bin/env python3
"""Sweep the free-energy Hessian over tilts and inverse temperatures.

Exercises the convexity bound min eig D^2 f >= (c1/2) |T| across a beta range
that straddles the primary-condition threshold, so the out-of-hypothesis rows
show what happens where the bound is no longer guaranteed.

Usage: python scripts/run_hessian_sweep.py [--m 3] [--family example_b] [--delta 0.5] [--out sweep.csv]
"""

import argparse

from gil.conditions import check_conditions
from gil.lattice import Torus
from gil.potentials import example_a, example_b, norms
from gil.renorm import verify_theorem


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=("example_a", "example_b"), default="example_b")
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    p = example_b(args.delta) if args.family == "example_b" else example_a(args.a)
    t = Torus(1, args.m)
    beta_star = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond
    u_grid = [[0.0], [0.25], [0.5], [1.0]]
    lines = ["beta,beta_over_threshold,u_1,min_eig,std_error,bound,margin,verdict"]
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        beta = factor * beta_star
        rows = verify_theorem(p, beta, t, u_grid, method="oracle")  # d = 1: the oracle serves any m
        for r in rows:
            lines.append(
                f"{beta:.17g},{factor},{r.u[0]:.17g},{r.min_eig:.17g},{r.std_error:.17g},{r.bound:.17g},"
                f"{r.margin:.17g},{r.verdict}"
            )
            print(f"beta={beta:10.4g} ({factor:>4}x)  u={r.u[0]:5.2f}  min_eig={r.min_eig:12.6f}  {r.verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
