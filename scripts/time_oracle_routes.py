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
config (m = 5, u = 0, half its d = 1 threshold).  The two criterion-5 rows
use the benchmark's decomposition config, unit example_b(0.5) at half its d = 1
threshold on Torus(1, 3) with the DecompositionPlan lambda and u = 0.3:
oracle.renorm_iterated_g (GH outer layer, Mayer inner layer) and one
renorm.estimate_r1g Monte Carlo of 100000 samples at the base field with dof
(0.4, -0.2).  The norms rows time potentials.norms, all four g0 norms at
tol 1e-8, once per family, and the verify_theorem row the benchmark's
hessian_gh config (example_a(0.5), beta = 1, Torus(1, 5), u in {0, 0.5}),
whose only g0 norm is the concave mass.  The poincare rows time
gff.poincare_constant, the secular root over the closed-form spectrum, on
Torus(2, 32), Torus(2, 64) and Torus(2, 128).  A figure is the fastest of
--repeats calls.  points is the conditioning grid size or the GH order;
Mayer, the Hessian, the criterion-5, norms, verify_theorem and poincare rows
report neither and write 0.
Prints CSV: route,config,points,ms_per_call.

Usage: python scripts/time_oracle_routes.py [--repeats 5]
"""

import argparse
import os
import time

# one BLAS thread, set before numpy loads, as bench/benchenv.py does: the
# figures time gil's own code, not a thread pool
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

from gil.conditions import check_conditions, scale_to_unit
from gil.gff import poincare_constant
from gil.lattice import Field, Torus
from gil.oracle import f_tilt_hessian, renorm_iterated_g
from gil.potentials import example_a, example_b, example_c, norms
from gil.quadrature import log_expectation
from gil.renorm import DecompositionPlan, estimate_r1g, verify_theorem

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
POINCARE_SIDES = (32, 64, 128)  # d = 2


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
    p, beta = setup("b", 1, None)
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(scale_to_unit(p, beta)[0], t)
    config = f"b_d1_m3_beta{beta:.4g}_lam{plan.lam:.4g}_u0.3"
    ms, _ = best_ms(lambda: renorm_iterated_g(plan.potential, plan.lam, [0.3], t), args.repeats)
    print(f"renorm_iterated_g,{config},0,{ms:.3f}", flush=True)
    psi = Field.from_dof(t, np.array([0.4, -0.2]))
    ms, _ = best_ms(lambda: estimate_r1g(plan, [0.3], psi, "mc", n_samples=100_000), args.repeats)
    print(f"r1g_mc,{config},0,{ms:.3f}", flush=True)
    for family, p in FAMILIES.items():
        ms, _ = best_ms(lambda: norms(p, 1e-8), args.repeats)
        print(f"norms,{family}_tol1e-08,0,{ms:.3f}", flush=True)
    ms, _ = best_ms(lambda: verify_theorem(FAMILIES["a"], 1.0, Torus(1, 5), [[0.0], [0.5]]), args.repeats)
    print(f"verify_theorem,a_d1_m5_beta1_u0;0.5,0,{ms:.3f}", flush=True)
    for m in POINCARE_SIDES:
        ms, _ = best_ms(lambda: poincare_constant(Torus(2, m)), args.repeats)
        print(f"poincare,d2_m{m},0,{ms:.3f}", flush=True)


if __name__ == "__main__":
    main()
