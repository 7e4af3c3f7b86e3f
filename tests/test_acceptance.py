"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 3, 4 and 7 are the
long chain runs; the whole module stays within the stated runtime budgets on a
laptop-class machine.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import h1_form_probes
from gil.cli import main as cli_main
from gil.conditions import check_conditions, scale_to_unit
from gil.gff import poincare_constant
from gil.lattice import Field, Torus
from gil.mcmc import (
    ChainConfig,
    fluctuation_hessian,
    make_gibbs_target,
    poincare_variance_check,
    run_chains,
    verify_l1norm_bounds,
)
from gil.oracle import ORACLE_ERROR, free_energy, hessian_fd, renorm_iterated_g, renorm_joint_g
from gil.potentials import NormReport, example_a, example_b, gaussian_potential, norms
from gil.renorm import DecompositionPlan, certify_h1_convexity, estimate_r1g, induced_h1, verify_theorem



@pytest.fixture(scope="module")
def b_setting():
    """Example (b) delta = 0.5, d = 1, at half the primary-condition threshold."""
    p = example_b(0.5)
    beta = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond / 2.0
    ps, k = scale_to_unit(p, beta)
    return p, beta, ps, k


@pytest.fixture(scope="module")
def b_chain_hessians(b_setting):
    """Fluctuation Hessians at >= 1e5 retained samples for u in {0, 0.25, 0.5}."""
    p, beta, ps, k = b_setting
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=55_000, burn_in=5_000, n_chains=2, seed=2024)
    out = {}
    for u in (0.0, 0.25, 0.5):
        est = fluctuation_hessian([k * u], ps, t, cfg)
        n_retained = 2 * 50_000
        assert est.n_effective <= n_retained
        out[u] = est
    return out


def _report(name, elapsed, budget, detail=""):
    print(f"PASS {name} in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


def test_criterion_1_gaussian_exactness():
    t0 = time.time()
    g = gaussian_potential()
    cfg = ChainConfig(n_steps=2_000, burn_in=200, n_chains=1, seed=1)
    for m in (3, 4, 5):
        t = Torus(1, m)
        est = fluctuation_hessian([0.3], g, t, cfg)
        # mean curvature term is exactly M, so any residual is the variance term
        assert float(np.max(np.abs(np.asarray(est.value) - m * np.eye(1)))) < 1e-10
        assert float(np.max(np.asarray(est.std_error))) < 1e-10
        f0 = free_energy([0.0], g, t, 1.0)
        for u in (0.0, 0.5, 1.0):
            df = free_energy([u], g, t, 1.0) - f0
            assert abs(df - m / 2.0 * u * u) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("criterion 1 (gaussian exactness)", elapsed, 60)


def test_criterion_2_threshold_reproduction():
    t0 = time.time()
    for a in (0.25, 0.5):
        p = example_a(a)
        nr = norms(p, 1e-12)
        for d in (1, 2):
            beta = a * a * math.pi**2 / (6.0 * 16.0**2 * d)
            rep = check_conditions(beta, d, p, nr)
            assert abs(rep.lhs_fcond - 0.5) < 1e-10, (a, d, rep.lhs_fcond)
    # example (b): the quoted norm bound at the quoted beta keeps the lhs below 1/2
    for delta, d in ((0.4, 1), (0.3, 2)):
        p = example_b(delta)
        quoted = 3.0 * delta**5 / (10.0 * math.sqrt(5.0))
        nr = NormReport(l1_g0pp=quoted, l2_g0p=0.0, l1_g0=0.0, quadrature_error=0.0, l1_g0pp_abs=quoted)
        beta = (5.0 * math.sqrt(5.0 * d) * math.pi / (2.0 * delta)) ** 2
        rep = check_conditions(beta, d, p, nr)
        assert rep.lhs_fcond <= 0.5, (delta, d, rep.lhs_fcond)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 2 (threshold reproduction)", elapsed, 1)


def test_criterion_3_hessian_cross_validation(b_setting, b_chain_hessians):
    t0 = time.time()
    p, beta, ps, k = b_setting
    t = Torus(1, 3)
    for u, est in b_chain_hessians.items():
        oracle = hessian_fd(lambda uu: free_energy(uu, ps, t, 1.0), [k * u], h=1e-3)
        se = math.hypot(float(np.asarray(est.std_error)[0, 0]), ORACLE_ERROR)
        diff = abs(float(np.asarray(est.value)[0, 0]) - oracle[0, 0])
        assert diff < 3.0 * se, (u, diff, se)
    elapsed = time.time() - t0
    _report("criterion 3 (hessian cross-validation)", elapsed, 600)


def test_criterion_4_theorem_in_hypothesis(b_setting, b_chain_hessians):
    t0 = time.time()
    p, beta, ps, k = b_setting
    t = Torus(1, 3)
    rows = verify_theorem(p, beta, t, [[0.0], [0.25], [0.5]], tol=1e-4)
    bound = 0.5 * p.c1 * t.volume
    for r in rows:
        assert r.in_hypothesis
        assert r.verdict == "pass"
        assert r.min_eig >= bound - 1e-4
    # the chain-side Hessians respect the same bound (beta-frame via c1 = 1)
    for u, est in b_chain_hessians.items():
        assert float(np.asarray(est.value)[0, 0]) * p.c1 >= bound - 3 * float(np.asarray(est.std_error)[0, 0])
    elapsed = time.time() - t0
    assert elapsed < 600
    _report("criterion 4 (theorem in-hypothesis)", elapsed, 600)


def test_criterion_5_decomposition_identity(b_setting):
    t0 = time.time()
    p, beta, ps, k = b_setting
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    for u in (0.0, 0.3):
        it = renorm_iterated_g(ps, plan.lam, [u], t)
        jt = renorm_joint_g(ps, plan.lam, [u], t)
        rel = abs(math.exp(-it) - math.exp(-jt)) / abs(math.exp(-jt))
        assert rel < 1e-6, (u, rel)
    psi = Field.from_dof(t, np.array([0.4, -0.2]))
    oracle = estimate_r1g(plan, [0.3], psi, "oracle")
    mc = estimate_r1g(plan, [0.3], psi, "mc", n_samples=100_000, seed=51)
    assert abs(float(mc.value) - float(oracle.value)) < 3.0 * float(mc.std_error)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("criterion 5 (decomposition identity)", elapsed, 300)


def test_criterion_6_induced_convexity():
    # the certificate is closed form; random probes of the exact form check it
    t0 = time.time()
    settings = []
    for maker, tag in ((lambda: example_a(0.5), "a"), (lambda: example_b(0.5), "b")):
        p = maker()
        beta = check_conditions(1.0, 1, p, norms(p)).beta_max_fcond / 2.0
        ps, _ = scale_to_unit(p, beta)
        settings.append((ps, tag))
    for t in (Torus(1, 4), Torus(2, 3)):
        delta_m = poincare_constant(t)
        for ps, tag in settings:
            plan = DecompositionPlan.from_potential(ps, t)
            u = np.full(t.d, 0.2)
            cert = certify_h1_convexity(plan, tol=1e-8)
            assert cert.ok, (tag, t, cert.min_margin_grad, cert.min_margin_l2)
            assert cert.min_margin_grad >= -1e-8
            assert cert.min_margin_l2 >= -1e-8
            form, gn, l2 = h1_form_probes(plan, u, np.zeros(t.volume), 1000, np.random.default_rng(61))
            assert np.all(form - plan.cbar * gn >= cert.min_margin_grad * gn - 1e-12 * form), (tag, t)
            assert np.all(form - plan.cbar * delta_m * l2 >= cert.min_margin_l2 * l2 - 1e-12 * form), (tag, t)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report("criterion 6 (induced convexity)", elapsed, 120)


def test_criterion_7_fourier_bounds(b_setting):
    t0 = time.time()
    p, beta, ps, k = b_setting
    t = Torus(1, 4)
    plan = DecompositionPlan.from_potential(ps, t)
    K = 4.0 * math.sqrt(12.0 * t.d * plan.cbar)
    k_grid = np.linspace(-K, K, 401)
    cfg = ChainConfig(n_steps=60_000, burn_in=5_000, n_chains=2, seed=71)
    samples = np.stack([r.samples for r in run_chains(induced_h1(plan, [k * 0.1], Field.zeros(t)), cfg)])
    rep = verify_l1norm_bounds(ps, t, [k * 0.1], Field.zeros(t), samples[..., t.forward[0, 0] - 1], plan.lam, k_grid)
    assert rep.pointwise_ok, f"{rep.n_pointwise_violations} envelope violations"
    assert rep.integral_ok, (rep.integral, rep.integral_bound)
    assert rep.g0pp_ok, (rep.g0pp_mean, rep.g0pp_bound_l1)
    if rep.g0pp_ok_l2 is not None:
        assert rep.g0pp_ok_l2, (rep.g0pp_mean, rep.g0pp_bound_l2)
    elapsed = time.time() - t0
    assert elapsed < 900
    _report("criterion 7 (fourier bounds)", elapsed, 900)


def test_criterion_8_poincare_variance(b_setting):
    t0 = time.time()
    p, beta, ps, k = b_setting
    g = gaussian_potential()
    cfg = ChainConfig(n_steps=30_000, burn_in=3_000, n_chains=2, seed=81)
    rng = np.random.default_rng(811)
    for m in (3, 4):
        t = Torus(1, m)
        obs = np.eye(5, t.n_dof)
        obs[t.n_dof :] = rng.standard_normal((5 - t.n_dof, t.n_dof))
        delta_m = poincare_constant(t)
        gauss_target = make_gibbs_target(t, g, np.zeros(1), 1.0)
        rep_g = poincare_variance_check([r.samples @ obs.T for r in run_chains(gauss_target, cfg)], delta_m, obs)
        assert rep_g.ok, ("gaussian", m, rep_g)
        plan = DecompositionPlan.from_potential(ps, t)
        h1 = induced_h1(plan, [k * 0.1], Field.zeros(t))
        rep_h = poincare_variance_check([r.samples @ obs.T for r in run_chains(h1, cfg)], plan.cbar * delta_m, obs)
        assert rep_h.ok, ("h1", m, rep_h)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("criterion 8 (poincare variance bound)", elapsed, 300)


def test_criterion_9_scaling_identity():
    t0 = time.time()
    p = example_a(0.5)
    t = Torus(1, 3)
    beta = 1e-3
    ps, k = scale_to_unit(p, beta)
    f0 = free_energy([0.0], p, t, beta)
    f0s = free_energy([0.0], ps, t, 1.0)
    for u in (0.5, 1.0):
        lhs = free_energy([u], p, t, beta) - f0
        rhs = (free_energy([k * u], ps, t, 1.0) - f0s) / beta
        assert abs(lhs - rhs) / abs(lhs) < 1e-6, (u, lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("criterion 9 (scaling identity)", elapsed, 300)


def test_criterion_10_determinism(b_setting, tmp_path):
    t0 = time.time()
    p, beta, ps, k = b_setting
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=4_000, burn_in=500, n_chains=1, seed=101)
    target = make_gibbs_target(t, ps, [k * 0.25], 1.0)
    r1 = run_chains(target, cfg, [(0, 0, 0)])[0]
    r2 = run_chains(target, cfg, [(0, 0, 0)])[0]
    assert np.array_equal(r1.samples, r2.samples)
    # CLI outputs are byte identical under a repeated seed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "potential": {"family": "example_b", "delta": 0.5},
                "d": 1,
                "m": 3,
                "beta": beta,
                "seed": 101,
                "u": [0.25],
                "chain": {"n_steps": 3000, "burn_in": 500, "n_chains": 2},
            }
        )
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    elapsed = time.time() - t0
    _report("criterion 10 (determinism)", elapsed, 120)
