#!/usr/bin/env python3
"""End-to-end demonstration of the one-step scale decomposition on a tiny torus.

Prints, for example_b at half its threshold temperature: the split parameter,
the closed-form convexity certificate of the induced Hamiltonian, the agreement between the
iterated and joint evaluations of the composed renormalization map, and the
reconstruction of the free energy from the decomposition.

Usage: python scripts/run_decomposition_demo.py [--delta 0.5] [--m 3]
"""

import argparse

import numpy as np

from gil.conditions import check_conditions, scale_to_unit
from gil.lattice import Field, Torus
from gil.oracle import free_energy, renorm_iterated_g, renorm_joint_g
from gil.potentials import example_b, norms
from gil.renorm import DecompositionPlan, certify_h1_convexity, estimate_r1g


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--m", type=int, default=3)
    args = ap.parse_args()

    p = example_b(args.delta)
    beta = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond / 2
    ps, k = scale_to_unit(p, beta)
    t = Torus(1, args.m)
    plan = DecompositionPlan.from_potential(ps, t)
    print(f"example_b(delta={args.delta}) at beta = {beta:.6g} (half threshold)")
    print(f"  cbar = {plan.cbar:.6g}, lambda = {plan.lam:.6g}")

    cert = certify_h1_convexity(plan)
    print(f"  induced Hamiltonian convexity: ok={cert.ok}, margin 1/lambda - c0 - cbar = {cert.min_margin_grad:.3e}")

    for u in (0.0, 0.3):
        it = renorm_iterated_g(ps, plan.lam, [u], t)
        jt = renorm_joint_g(ps, plan.lam, [u], t)
        print(f"  u={u}: iterated map {it:+.12e}   joint quadrature {jt:+.12e}   |diff| {abs(it - jt):.2e}")

    psi = Field.from_dof(t, np.array([0.4, -0.2] + [0.0] * t.n_dof)[: t.n_dof])
    mc = estimate_r1g(plan, [0.3], psi, "mc", n_samples=50_000, seed=7)
    oracle = estimate_r1g(plan, [0.3], psi, "oracle")
    print(f"  one-layer map: oracle {float(oracle.value):+.6e}  mc {float(mc.value):+.6e} +- {float(mc.std_error):.1e}")

    us = 0.45
    lhs = free_energy([us], ps, t, 1.0) - free_energy([0.0], ps, t, 1.0)
    rhs = (
        0.5 * t.volume * us * us
        + renorm_iterated_g(ps, plan.lam, [us], t)
        - renorm_iterated_g(ps, plan.lam, [0.0], t)
    )
    print(f"  free energy reconstruction at u={us}: direct {lhs:.12f}  decomposition {rhs:.12f}")


if __name__ == "__main__":
    main()
