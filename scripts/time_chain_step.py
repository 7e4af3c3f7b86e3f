#!/usr/bin/env python3
"""Microseconds per MALA chain step, per target and size, and the target's share.

Times run_chains on example_b(0.5) at half its primary-condition threshold,
tilt 0.5 on every axis, for four targets: the unit-frame Gibbs target
(gibbs_unit), the same target with the D_u H and D_u^2 H observable that the
chain Hessian rows run (hessian), the raw-frame Gibbs target at that beta (gil
sample) and the induced h1 target (gil verify-lemma).  Sizes are n_dof 7
(d=1, m=8), 63 (d=2, m=8) and 255 (d=2, m=16), each an ensemble of ROWS rows
(the hessian_chain shape).  At n_dof 7 a fifth target, ti, is gil
free-energy's thermodynamic-integration ensemble: the raw-frame Gibbs target
with its D_u H observable, TI_ROWS rows (32 path nodes x 2 chains) tilted
along the path.  Each is run for STEPS steps, which gives the raw-frame target
enough burn-in to tune its step.  us_per_step is the fastest of --repeats
runs divided by its steps, the gradient check and the burn-in tuning
included; energy_grad_us is the fastest of --repeats timings of CALLS calls of
the target alone on a (rows, n_dof) state, per call, so us_per_step -
energy_grad_us is the sampler's own share of a step; noise_us is the fastest
of --repeats timings of one chunk's noise draws for those rows, as run_chains
makes them (NOISE_CHUNK normals of n_dof and NOISE_CHUNK uniforms per row,
each stacked across the rows), divided by NOISE_CHUNK.
Prints CSV: target,n_dof,rows,us_per_step,energy_grad_us,noise_us.

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
from gil.mcmc import NOISE_CHUNK, ChainConfig, make_gibbs_target, run_chains, stream
from gil.potentials import example_b, norms
from gil.renorm import DecompositionPlan, induced_h1

SIZES = ((1, 8), (2, 8), (2, 16))
STEPS, ROWS, TI_ROWS, CALLS = 2000, 2, 64, 2000


def targets(t: Torus) -> dict:
    """name -> (target, rows) at this torus."""
    p = example_b(0.5)
    beta = check_conditions(1.0, t.d, p, norms(p)).beta_max_fcond / 2.0
    ps, k = scale_to_unit(p, beta)
    u = np.full(t.d, 0.5)
    out = {
        "gibbs_unit": (make_gibbs_target(t, ps, k * u, 1.0), ROWS),
        "hessian": (make_gibbs_target(t, ps, k * u, 1.0, observable=2), ROWS),
        "gibbs_raw": (make_gibbs_target(t, p, u, beta), ROWS),
        "h1": (induced_h1(DecompositionPlan.from_potential(ps, t), k * u, Field.zeros(t)), ROWS),
    }
    if t.d == 1:
        x, _ = np.polynomial.legendre.leggauss(TI_ROWS // 2)
        tilts = np.repeat(0.5 * (x + 1.0), 2)[:, None] * u
        out["ti"] = (make_gibbs_target(t, p, tilts, beta, observable=1), TI_ROWS)
    return out


def best_of(repeats: int, call) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    print("target,n_dof,rows,us_per_step,energy_grad_us,noise_us")
    for d, m in SIZES:
        t = Torus(d, m)
        for name, (target, rows) in targets(t).items():
            cfg = ChainConfig(n_steps=STEPS, burn_in=STEPS // 2, n_chains=rows, seed=0)
            step = best_of(args.repeats, lambda: run_chains(target, cfg)) / STEPS
            X = 0.1 * np.random.default_rng(0).standard_normal((rows, t.n_dof))

            def calls():
                for _ in range(CALLS):
                    target.energy_grad(X)

            call = best_of(args.repeats, calls) / CALLS
            rngs = [stream(0, (0, 0, c)) for c in range(rows)]

            def draws():
                np.stack([rng.standard_normal((NOISE_CHUNK, t.n_dof)) for rng in rngs], axis=1)
                np.stack([rng.random(NOISE_CHUNK) for rng in rngs], axis=1)

            noise = best_of(args.repeats, draws) / NOISE_CHUNK
            print(f"{name},{t.n_dof},{rows},{1e6 * step:.1f},{1e6 * call:.1f},{1e6 * noise:.2f}", flush=True)


if __name__ == "__main__":
    main()
