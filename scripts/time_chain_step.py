#!/usr/bin/env python3
"""Microseconds per MALA chain step, per target and size.

Times run_chains on example_b(0.5) at half its primary-condition threshold,
tilt 0.5 on every axis, for three targets: the unit-frame Gibbs target (the
chain Hessian rows), the raw-frame Gibbs target at that beta (gil sample) and
the induced h1 target (gil verify-lemma).  Sizes are n_dof 7 (d=1, m=8), 63
(d=2, m=8) and 255 (d=2, m=16), each an ensemble of ROWS rows (the
hessian_chain shape) run for STEPS steps, which gives the raw-frame target
enough burn-in to tune its step.  A figure is the fastest of --repeats runs
divided by its steps; the gradient check and the burn-in tuning are included.
Prints CSV: target,n_dof,us_per_step.

Usage: python scripts/time_chain_step.py [--repeats 5]
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
from gil.lattice import Field, Torus
from gil.mcmc import ChainConfig, make_gibbs_target, run_chains
from gil.potentials import example_b, norms
from gil.renorm import DecompositionPlan, induced_h1

SIZES = ((1, 8), (2, 8), (2, 16))
STEPS, ROWS = 2000, 2


def targets(t: Torus) -> dict:
    p = example_b(0.5)
    beta = check_conditions(1.0, t.d, p, norms(p)).beta_max_fcond / 2.0
    ps, k = scale_to_unit(p, beta)
    u = np.full(t.d, 0.5)
    return {
        "gibbs_unit": make_gibbs_target(t, ps, k * u, 1.0),
        "gibbs_raw": make_gibbs_target(t, p, u, beta),
        "h1": induced_h1(DecompositionPlan.from_potential(ps, t), k * u, Field.zeros(t)),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    cfg = ChainConfig(n_steps=STEPS, burn_in=STEPS // 2, n_chains=ROWS, seed=0)
    print("target,n_dof,us_per_step")
    for d, m in SIZES:
        t = Torus(d, m)
        for name, target in targets(t).items():
            best = float("inf")
            for _ in range(args.repeats):
                start = time.perf_counter()
                run_chains(target, cfg)
                best = min(best, time.perf_counter() - start)
            print(f"{name},{t.n_dof},{1e6 * best / STEPS:.1f}", flush=True)


if __name__ == "__main__":
    main()
