#!/usr/bin/env python3
"""Milliseconds per free energy on each oracle route, and per d = 1 Hessian row.

Times quadrature.log_expectation in the unit frame at the tilt u on every axis,
one config per row of ROUTES: the conditioning route on example_a(0.5) at the
benchmark's beta (m = 3, 8, 64) and on example_b(0.5) at half its d = 1
threshold (m = 8, 64); Mayer on example_b(0.5) at half its threshold on
Torus(1, 5) and Torus(2, 2); GH on example_c(0.05, 2, 1) at half its d = 2
threshold on Torus(2, 2).  The last rows time oracle.f_tilt_hessian, one
conditioning pass for the d = 1 tilt Hessian, one per row of HESSIANS: on
example_a(0.5) at m = 8 and on example_b(0.5) at the benchmark's hessian_mayer
config (m = 5, u = 0, half its d = 1 threshold).  A figure is the fastest of
--repeats calls.  points is the conditioning grid size or the GH order; Mayer
and the Hessian rows report neither and write 0.
Prints CSV: route,config,points,ms_per_call.

Usage: python scripts/time_oracle_routes.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from gil.conditions import check_conditions, scale_to_unit
from gil.lattice import Torus
from gil.oracle import f_tilt_hessian
from gil.potentials import example_a, example_b, example_c, norms
from gil.quadrature import log_expectation

BETA_A = 8.031904623282352e-4  # the benchmark's in-hypothesis example_a(0.5) free energies
U = 0.5
FAMILIES = {"a": example_a(0.5), "b": example_b(0.5), "c": example_c(0.05, 2.0, 1.0)}
# (route, family, d, m, beta or None for half the family's d-dimensional threshold)
ROUTES = (
    ("conditioning", "a", 1, 3, BETA_A),
    ("conditioning", "a", 1, 8, BETA_A),
    ("conditioning", "a", 1, 64, BETA_A),
    ("conditioning", "b", 1, 8, None),
    ("conditioning", "b", 1, 64, None),
    ("mayer", "b", 1, 5, None),
    ("mayer", "b", 2, 2, None),
    ("gh", "c", 2, 2, None),
)
# (family, d, m, beta as in ROUTES, u)
HESSIANS = (("a", 1, 8, BETA_A, U), ("b", 1, 5, None, 0.0))


def setup(family: str, d: int, beta):
    p = FAMILIES[family]
    if beta is None:
        beta = check_conditions(1.0, d, p, norms(p)).beta_max_fcond / 2.0
    return p, beta


def best_ms(call, repeats: int):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    print("route,config,points,ms_per_call")
    for route, family, d, m, beta in ROUTES:
        p, beta = setup(family, d, beta)
        ps, k = scale_to_unit(p, beta)
        t = Torus(d, m)
        ms, (_val, info) = best_ms(lambda: log_expectation(t, ps, np.full(d, k * U)), args.repeats)
        assert info["method"] == route, (route, info["method"])
        points = info.get("points", info.get("order", 0))
        print(f"{route},{family}_d{d}_m{m}_beta{beta:.4g},{points},{ms:.3f}", flush=True)
    for family, d, m, beta, u in HESSIANS:
        p, beta = setup(family, d, beta)
        ms, _ = best_ms(lambda: f_tilt_hessian([u], p, Torus(d, m), beta), args.repeats)
        print(f"f_tilt_hessian,{family}_d{d}_m{m}_beta{beta:.4g}_u{u:g},0,{ms:.3f}", flush=True)


if __name__ == "__main__":
    main()
