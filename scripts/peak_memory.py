#!/usr/bin/env python3
"""Peak memory of the chain commands and the criterion-5 calls on the benchmark configs.

Runs `gil hessian --method chain` (d=2, m=16, 2 x 8000 steps), `gil
verify-lemma` (d=2, m=8, 401-point k grid, 5 observables, 2 x 8000 steps) and
`gil sample` (d=2, m=16, 2 x 5000 steps) on example_b(0.5) at half its d=2
primary-condition threshold, tilt (0.5, 0.5), 1000 burn-in steps: the configs
of the benchmark's large_torus_chains workload.  Then the two calls that check
the one-step decomposition at the oracle_backends workload's config, unit
example_b(0.5) at half its d=1 threshold on Torus(1, 3), u = 0.3:
oracle.renorm_iterated_g, and one renorm.estimate_r1g Monte Carlo of 100000
samples at the base field with dof (0.4, -0.2).  Each command or call runs
twice, each time in a fresh process with one BLAS thread: once for the
process's peak resident set (ru_maxrss, interpreter and numpy included), and
once under tracemalloc for its heap peak (numpy arrays included), since
tracemalloc's own records would inflate the first.  --scale multiplies every
chain length.  Prints CSV: command,ru_maxrss_mb,heap_peak_mb.

Usage: python scripts/peak_memory.py [--seed 101] [--scale 1.0]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

# one BLAS thread, set before numpy loads, as bench/benchenv.py does: the
# figures measure gil's own arrays, not a thread pool's buffers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

COMMANDS = ("hessian", "verify-lemma", "sample")
CALLS = ("renorm_iterated_g", "r1g_mc")
CHAINS = {"hessian": (8000, 1000), "verify-lemma": (8000, 1000), "sample": (5000, 1000)}


def config(command: str, seed: int, scale: float) -> dict:
    from gil.conditions import check_conditions
    from gil.potentials import example_b, norms

    p = example_b(0.5)
    beta = check_conditions(1.0, 2, p, norms(p)).beta_max_fcond / 2.0
    n_steps, burn_in = (round(scale * n) for n in CHAINS[command])
    u = [0.5, 0.5]
    cfg = {
        "potential": {"family": "example_b", "delta": 0.5},
        "d": 2,
        "beta": beta,
        "seed": seed,
        "chain": {"n_steps": n_steps, "burn_in": burn_in, "n_chains": 2},
    }
    extra = {
        "hessian": {"m": 16, "u_grid": [u], "method": "chain"},
        "verify-lemma": {"m": 8, "u": u, "k_grid": {"n_points": 401}, "observables": 5},
        "sample": {"m": 16, "u": u},
    }
    return dict(cfg, **extra[command])


def criterion5_call(name: str, seed: int):
    """The criterion-5 call `name` at the decomposition config, as a function of no arguments."""
    import numpy as np

    from gil.conditions import check_conditions, scale_to_unit
    from gil.lattice import Field, Torus
    from gil.oracle import renorm_iterated_g
    from gil.potentials import example_b, norms
    from gil.renorm import DecompositionPlan, estimate_r1g

    p = example_b(0.5)
    beta = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond / 2.0
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(scale_to_unit(p, beta)[0], t)
    if name == "renorm_iterated_g":
        return lambda: renorm_iterated_g(plan.potential, plan.lam, [0.3], t)
    psi = Field.from_dof(t, np.array([0.4, -0.2]))
    return lambda: estimate_r1g(plan, [0.3], psi, "mc", n_samples=100_000, seed=seed)


def measure(name: str, seed: int, scale: float, trace: bool) -> float:
    """Run one command or call in this process; its heap peak under trace, else the process's peak RSS, in MB."""
    from gil.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        if name in CALLS:
            run = criterion5_call(name, seed)
        else:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(config(name, seed, scale)))
            argv = [name, "--config", str(cfg_path), "--out", str(Path(tmp) / "out")]

            def run():
                code = main(argv)
                if code != 0:
                    raise SystemExit(f"gil {name} exited with {code}")

        if trace:
            tracemalloc.start()
        run()
        heap_peak = tracemalloc.get_traced_memory()[1]
    return heap_peak / 2**20 if trace else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--child", choices=COMMANDS + CALLS, help=argparse.SUPPRESS)
    ap.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(measure(args.child, args.seed, args.scale, args.trace))
        return

    print("command,ru_maxrss_mb,heap_peak_mb")
    for command in COMMANDS + CALLS:
        figures = []
        for trace in ((), ("--trace",)):
            argv = [sys.executable, __file__, "--child", command, "--seed", str(args.seed), "--scale", str(args.scale)]
            proc = subprocess.run(argv + list(trace), capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(proc.stderr or proc.stdout)
            figures.append(float(proc.stdout))
        print(f"{command},{figures[0]:.2f},{figures[1]:.2f}", flush=True)


if __name__ == "__main__":
    main()
