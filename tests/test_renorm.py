import math

import numpy as np
import pytest

from gil.conditions import check_conditions, scale_to_unit
from gil.gff import sample_gff
from gil.lattice import Field, Torus, anharmonic_g, bond_args, grad_norm_sq
from gil.mcmc import ChainConfig, stream
from gil.oracle import f_tilt, hessian_fd
from gil.potentials import example_a, example_c, gaussian_potential, norms
from gil.quadrature import SLAB_VALUES, QuadratureError, field_bond_map
from gil.renorm import (
    DecompositionPlan,
    certify_h1_convexity,
    estimate_r1g,
    induced_h1,
    verify_c6,
    verify_c7,
    verify_theorem,
)



def test_plan_default_lambda(scaled_b):
    ps, _ = scaled_b
    plan = DecompositionPlan.from_potential(ps, Torus(1, 3))
    assert plan.cbar == pytest.approx(1.2)
    assert plan.lam == pytest.approx(1.0 / 2.4)


def test_plan_rejects_bad_inputs(pot_a, scaled_b):
    ps, _ = scaled_b
    with pytest.raises(ValueError):
        DecompositionPlan.from_potential(pot_a, Torus(1, 3))  # not unit-scaled
    with pytest.raises(ValueError):
        DecompositionPlan.from_potential(ps, Torus(1, 3), lam=1.0)
    with pytest.raises(ValueError):
        DecompositionPlan.from_potential(ps, Torus(1, 3), lam=0.0)


def test_induced_h1_values(pot_gauss, scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    psi = Field.from_dof(t, np.array([0.3, -0.1]))
    target = induced_h1(plan, [0.2], psi)
    # at theta = 0 the energy equals G(u, psi)
    from gil.lattice import anharmonic_g

    assert target.energy_grad(np.zeros((1, t.n_dof)))[0][0] == pytest.approx(anharmonic_g(t, np.array([0.2]), psi.values, ps))
    # gaussian case: pure Dirichlet term
    plan_g = DecompositionPlan.from_potential(pot_gauss, t, lam=0.5)
    tg = induced_h1(plan_g, [0.0], Field.zeros(t))
    theta = np.array([0.4, -0.2])
    vals = np.zeros(t.volume)
    vals[1:] = theta
    assert tg.energy_grad(theta[None, :])[0][0] == pytest.approx(grad_norm_sq(t, vals) / (2 * 0.5), rel=1e-12)


def test_certify_gaussian_margin(pot_gauss):
    # D^2 H1 = 2 ||grad .||^2 at lambda = 1/2, so the margin is ||grad td||^2
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(pot_gauss, t, lam=0.5)
    cert = certify_h1_convexity(plan, [0.0], Field.zeros(t), n_probes=50, seed=0)
    assert cert.ok
    assert cert.min_margin_grad > 0


def test_certify_example_b(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 4)
    plan = DecompositionPlan.from_potential(ps, t)
    cert = certify_h1_convexity(plan, [0.2], Field.zeros(t), n_probes=300, seed=1)
    assert cert.ok
    assert cert.min_margin_grad >= -1e-8 and cert.min_margin_l2 >= -1e-8


def test_certify_adversarial_lambda_fails(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t, lam=0.999)
    cert = certify_h1_convexity(plan, [0.0], Field.zeros(t), n_probes=300, seed=1)
    assert not cert.ok
    assert cert.witness is not None
    theta, tdot = cert.witness
    assert theta.shape == (t.volume,) and tdot.shape == (t.volume,)


def test_estimate_r1g_gaussian_zero(pot_gauss):
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(pot_gauss, t, lam=0.5)
    est = estimate_r1g(plan, [0.4], Field.zeros(t), "oracle")
    assert est.value == 0.0 and est.method == "oracle"
    est_mc = estimate_r1g(plan, [0.4], Field.zeros(t), "mc", n_samples=2_000, seed=2)
    assert est_mc.value == pytest.approx(0.0, abs=1e-12)


def test_estimate_r1g_mc_matches_oracle(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    psi = Field.from_dof(t, np.array([0.4, -0.2]))
    oracle = estimate_r1g(plan, [0.3], psi, "oracle")
    mc = estimate_r1g(plan, [0.3], psi, "mc", n_samples=100_000, seed=5)
    assert abs(float(mc.value) - float(oracle.value)) < 3 * float(mc.std_error)
    assert mc.std_error > 0


def _r1g_weights(plan, u, psi, n, seed):
    """The r1g Monte Carlo weights -G two ways from one stream: in bond coordinates, and from site fields."""
    t = plan.torus
    z = stream(seed, purpose="r1g").standard_normal((n, t.n_dof))
    bonds = z @ field_bond_map(t, plan.lam).T + bond_args(t, psi.values, u).ravel()
    sites = psi.values + sample_gff(t, plan.lam, stream(seed, purpose="r1g"), n)
    return -plan.potential.g(bonds).sum(axis=1), -anharmonic_g(t, u, sites, plan.potential)


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2)])
def test_estimate_r1g_bond_draws_match_site_fields(scaled_b, d, m):
    # the latent normals times field_bond_map are the bond gradients of the
    # fields sample_gff draws from the same normals
    t = Torus(d, m)
    plan = DecompositionPlan.from_potential(scaled_b[0], t)
    psi = Field.from_dof(t, 0.3 * np.random.default_rng(1).standard_normal(t.n_dof))
    w_bond, w_site = _r1g_weights(plan, [0.3] * d, psi, 20_000, 5)
    assert np.max(np.abs(w_bond - w_site)) <= 1e-13 * np.max(np.abs(w_site))
    est = estimate_r1g(plan, [0.3] * d, psi, "mc", n_samples=20_000, seed=5)
    shift = w_site.max()
    assert est.value == pytest.approx(-(shift + math.log(np.mean(np.exp(w_site - shift)))), rel=1e-13)


def test_estimate_r1g_jackknife_matches_leave_one_out_loop(scaled_b):
    # the estimator works on block sums of the weights; the reference re-averages
    # the sample with each block deleted, so the samples past the last whole
    # block stay in every leave-one-out mean
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    psi = Field.from_dof(t, np.array([0.4, -0.2]))
    n = 2_003
    est = estimate_r1g(plan, [0.3], psi, "mc", n_samples=n, seed=5)
    w, _ = _r1g_weights(plan, np.array([0.3]), psi, n, 5)

    def neg_log_mean(ws):
        return -(w.max() + math.log(np.mean(np.exp(ws - w.max()))))

    nb = max(20, math.isqrt(n))
    b = n // nb
    jk = np.array([neg_log_mean(np.delete(w, np.s_[j * b : (j + 1) * b])) for j in range(nb)])
    assert est.value == neg_log_mean(w)
    assert est.std_error == pytest.approx(math.sqrt((len(jk) - 1) / len(jk) * np.sum((jk - jk.mean()) ** 2)), rel=1e-9)


@pytest.mark.parametrize("d,m,n", [(1, 3, 12_001), (2, 2, 5_001)])
def test_estimate_r1g_slices_match_one_shot(scaled_b, d, m, n):
    # n spans two whole slices of SLAB_VALUES // (4 bonds) samples and a
    # partial third; the one-shot formula draws every normal at once
    t = Torus(d, m)
    plan = DecompositionPlan.from_potential(scaled_b[0], t)
    psi = Field.from_dof(t, 0.3 * np.random.default_rng(1).standard_normal(t.n_dof))
    u = [0.3] * d
    F = field_bond_map(t, plan.lam)
    size = SLAB_VALUES // (4 * len(F))
    assert 2 * size < n < 3 * size
    z = stream(7, purpose="r1g").standard_normal((n, t.n_dof))
    w = -plan.potential.g(F @ z.T + bond_args(t, psi.values, u).reshape(-1, 1)).sum(axis=0)
    shift = w.max()
    e = np.exp(w - shift)
    nb = max(20, math.isqrt(n))
    b = n // nb
    jk = -(shift + np.log((e.sum() - e[: nb * b].reshape(nb, b).sum(axis=1)) / (n - b)))
    est = estimate_r1g(plan, u, psi, "mc", n_samples=n, seed=7)
    assert est.value == -(shift + math.log(e.sum() / n))
    assert est.std_error == math.sqrt((nb - 1) / nb * np.sum((jk - jk.mean()) ** 2))


def test_estimate_r1g_heap_does_not_grow_with_torus_or_samples(scaled_b):
    # only the n_samples weights are kept: at 10^5 samples on Torus(1, 3) the
    # traced heap stays below 2 MB (8.4 MB with every bond argument held), it
    # grows by about the weights' 8 bytes per added sample, and on Torus(2, 8),
    # 128 bonds, it stays below 2 MB too (341 MB held at once)
    import tracemalloc

    ps, _ = scaled_b
    peaks = {}
    for t, n in ((Torus(1, 3), 100_000), (Torus(1, 3), 200_000), (Torus(2, 8), 100_000)):
        plan = DecompositionPlan.from_potential(ps, t)
        psi = Field.from_dof(t, 0.3 * np.random.default_rng(1).standard_normal(t.n_dof))
        estimate_r1g(plan, [0.3] * t.d, psi, "mc", n_samples=1_000)
        tracemalloc.start()
        try:
            estimate_r1g(plan, [0.3] * t.d, psi, "mc", n_samples=n)
            peaks[t.d, n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1, 100_000] < 2 * 2**20 and peaks[2, 100_000] < 2 * 2**20, peaks
    assert peaks[1, 200_000] - peaks[1, 100_000] < 12 * 100_000, peaks


@pytest.mark.parametrize("n", [0, 1])
def test_estimate_r1g_needs_two_samples(scaled_b, n):
    plan = DecompositionPlan.from_potential(scaled_b[0], Torus(1, 3))
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        estimate_r1g(plan, [0.3], Field.zeros(Torus(1, 3)), "mc", n_samples=n)


def test_estimate_r1g_rejects_unknown_method(scaled_b):
    ps, _ = scaled_b
    plan = DecompositionPlan.from_potential(ps, Torus(1, 3))
    with pytest.raises(ValueError):
        estimate_r1g(plan, [0.0], Field.zeros(Torus(1, 3)), "bogus")


def test_verify_theorem_rejects_unknown_method(pot_gauss, quick_chain):
    # an unknown method once ran the chain route and labelled its rows with it
    with pytest.raises(ValueError):
        verify_theorem(pot_gauss, 1.0, Torus(1, 3), [[0.0]], cfg=quick_chain, method="foo")


def test_verify_c6_gaussian(pot_gauss):
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(pot_gauss, t, lam=0.5)
    rng = np.random.default_rng(3)
    dirs = [(rng.standard_normal(1), rng.standard_normal(t.n_dof)) for _ in range(3)]
    rep = verify_c6(plan, [0.0], Field.zeros(t), dirs)
    assert rep.ok
    np.testing.assert_allclose(rep.values, 0.0, atol=1e-6)  # R1 G = 0 identically
    assert np.all(rep.bounds < 0)


def test_verify_c6_pure_tilt_direction(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    rep = verify_c6(plan, [0.1], Field.zeros(t), [(np.array([1.0]), np.zeros(t.n_dof))])
    assert rep.ok
    assert rep.bounds[0] == pytest.approx(-0.5 * t.volume)


def test_verify_c6_example_b_random_directions(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    rng = np.random.default_rng(7)
    psi = Field.from_dof(t, 0.5 * rng.standard_normal(t.n_dof))
    dirs = [(rng.standard_normal(1), rng.standard_normal(t.n_dof)) for _ in range(5)]
    rep = verify_c6(plan, [0.2], psi, dirs)
    assert rep.ok, rep.margins


def test_verify_c7_example_b(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(ps, t)
    rep = verify_c7(plan, [0.1], [np.array([1.0])])
    assert rep.ok
    assert rep.bounds[0] == pytest.approx(-0.5 * t.volume)


def test_verify_theorem_gaussian(pot_gauss):
    # d = 1 oracle rows are spectral: g = 0 gives f'' = c1 m with error 0
    rows = verify_theorem(pot_gauss, 1.0, Torus(1, 4), [[0.0], [0.5], [1.0]])
    for r in rows:
        assert r.verdict == "pass"
        assert r.min_eig == 4.0 and r.std_error == 0.0
        assert r.margin == 2.0


def test_verify_theorem_example_b_in_hypothesis(pot_b, beta_half_b):
    rows = verify_theorem(pot_b, beta_half_b, Torus(1, 3), [[0.0], [0.25], [0.5]])
    assert all(r.in_hypothesis and r.verdict == "pass" for r in rows)


def test_verify_theorem_oracle_example_a_large_torus(pot_a):
    # example (a) in hypothesis at m = 64: the spectral row is c1 = 2 times
    # kappa = 0.9984281253; the h = 1e-3 stencil of f_tilt was 1e-6 off and
    # differencing f itself (about -3.2e5 here) gave 1.9968623
    beta = check_conditions(1.0, 1, pot_a, norms(pot_a)).beta_max_fcond / 2.0
    rows = verify_theorem(pot_a, beta, Torus(1, 64), [[0.5]], method="oracle")
    assert rows[0].verdict == "pass"
    assert rows[0].min_eig / 64 == pytest.approx(1.99685625, abs=1e-8)
    assert rows[0].std_error < 1e-10


def test_verify_theorem_oracle_d2_keeps_the_stencil(pot_b):
    # d >= 2 oracle rows are still the h = 1e-3 Richardson stencil of f_tilt
    # (Mayer here), bit for bit, with the nominal error 10 ORACLE_ERROR
    beta = check_conditions(1.0, 2, pot_b, norms(pot_b)).beta_max_fcond / 2.0
    t = Torus(2, 2)
    row = verify_theorem(pot_b, beta, t, [[0.3, 0.1]], method="oracle")[0]
    stencil = hessian_fd(lambda uu: f_tilt(uu, pot_b, t, beta), [0.3, 0.1], h=1e-3)
    assert row.min_eig == float(np.linalg.eigvalsh(stencil)[0])
    assert row.std_error == 1e-7


def test_verify_theorem_integrates_the_concave_mass_alone(monkeypatch):
    # the benchmark's hessian_gh config: the label reads ||g0''||_- alone, one
    # tail-doubling integration where the full report takes three (g0 is not
    # stored), and the rows equal those labelled from the full report
    import gil.potentials
    import gil.renorm

    p, t, grid = example_a(0.5), Torus(1, 5), [[0.0], [0.5]]
    real, calls = gil.potentials._integrate_tail_doubling, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gil.potentials, "_integrate_tail_doubling", counted)
    rows = verify_theorem(p, 1.0, t, grid)
    assert len(calls) == 1
    nr = norms(p, 1e-8)
    assert len(calls) == 4

    def full_report(beta, d, p, l1_g0pp):
        rep = check_conditions(beta, d, p, nr)
        return rep.lhs_fcond, rep.satisfied["fcond"]

    monkeypatch.setattr(gil.renorm, "primary_condition", full_report)
    assert verify_theorem(p, 1.0, t, grid) == rows
    assert [r.verdict for r in rows] == ["out-of-hypothesis"] * 2


def test_verify_theorem_out_of_hypothesis_labeled():
    # strongly non-convex mixture at large beta: computed but never asserted
    pc = example_c(0.5, 10.0, 0.2)
    beta = 20.0
    nr = norms(pc)
    assert not check_conditions(beta, 1, pc, nr).satisfied["fcond"]
    rows = verify_theorem(pc, beta, Torus(1, 3), [[0.0]])
    assert rows[0].verdict == "out-of-hypothesis"
    assert not rows[0].in_hypothesis


def test_verify_theorem_auto_without_chains_keeps_the_quadrature_error(pot_a):
    # 1000x the d = 1 threshold at m = 64 the conditioning pass fails; with no
    # ChainConfig there is no chain to fall back to, so auto raises what it hit
    beta = 1000.0 * check_conditions(1.0, 1, pot_a, norms(pot_a)).beta_max_fcond
    with pytest.raises(QuadratureError, match="conditioning backend"):
        verify_theorem(pot_a, beta, Torus(1, 64), [[0.5]], method="auto")


def test_verify_theorem_chain_method(pot_b, beta_half_b):
    cfg = ChainConfig(n_steps=20_000, burn_in=2_000, seed=19, n_chains=2)
    rows = verify_theorem(pot_b, beta_half_b, Torus(1, 3), [[0.25]], cfg=cfg, method="chain")
    assert rows[0].verdict == "pass"
    assert rows[0].std_error > 0
