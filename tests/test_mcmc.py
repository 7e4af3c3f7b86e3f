import math

import numpy as np
import pytest
from scipy.integrate import quad

from gil.conditions import scale_to_unit
from gil.gff import pinned_covariance, poincare_constant
from gil.lattice import Field, Torus
from gil.mcmc import (
    ChainConfig,
    GradientMismatchError,
    Observable,
    StepSizeError,
    Target,
    _envelope_tail,
    batch_means,
    fluctuation_hessian,
    make_gibbs_target,
    make_h1_target,
    poincare_variance_check,
    run_chain,
    run_chains,
    thermodynamic_integration,
    verify_l1norm_bounds,
)
from gil.oracle import QuadratureSpec, free_energy, hessian_fd
from gil.potentials import example_a, gaussian_potential


def test_chain_determinism(pot_gauss, quick_chain):
    t = Torus(1, 3)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    r1 = run_chain(target, quick_chain, 0)
    r2 = run_chain(target, quick_chain, 0)
    assert np.array_equal(r1.samples, r2.samples)
    r3 = run_chain(target, quick_chain, 1)
    assert not np.array_equal(r1.samples, r3.samples)


def test_chain_config_invariants():
    with pytest.raises(ValueError):
        ChainConfig(n_steps=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(thinning=0)
    with pytest.raises(ValueError):
        ChainConfig(step_size=-0.1)


def test_gaussian_chain_covariance(pot_gauss):
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=40_000, burn_in=4_000, n_chains=2, seed=7)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    samples = np.concatenate([r.samples for r in run_chains(target, cfg)])
    emp = np.cov(samples.T)
    exact = pinned_covariance(t)
    n_eff = samples.shape[0] / 8.0  # generous autocorrelation allowance
    for i in range(2):
        for j in range(2):
            se = math.sqrt((exact[i, i] * exact[j, j] + exact[i, j] ** 2) / n_eff)
            assert abs(emp[i, j] - exact[i, j]) < 4 * se


def test_point_mass_limit(pot_gauss):
    t = Torus(1, 3)
    cfg = ChainConfig(
        n_steps=500, burn_in=100, seed=3, step_size=1e-8, tune=False, check_acceptance=False, n_chains=1
    )
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    r = run_chain(target, cfg, 0)
    assert r.acceptance > 0.999
    assert float(np.max(np.abs(r.samples))) < 1e-5


def test_step_size_guard(pot_gauss):
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=400, burn_in=100, seed=3, step_size=50.0, tune=False, n_chains=1)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    with pytest.raises(StepSizeError, match=r"row \(tilt 0, node 0, chain 0\): acceptance rate"):
        run_chain(target, cfg, 0)


def test_gradient_spot_check_guard():
    t = Torus(1, 3)
    bad = Target(energy_grad=lambda X: ((X * X).sum(axis=1), 3.0 * X), n_dof=t.n_dof)
    with pytest.raises(GradientMismatchError, match=r"row \(tilt 0, node 0, chain 2\): .* by "):
        run_chain(bad, ChainConfig(n_steps=100, burn_in=10, seed=0, n_chains=1), 2)


def test_batched_targets_match_single_field_energies(pot_a):
    # each row of a batched call agrees with the single-field lattice functions
    from gil.lattice import grad_h, hamiltonian, induced_h1_energy, induced_h1_grad

    t = Torus(2, 3)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, t.n_dof))
    tilts = rng.standard_normal((5, 2))
    psi = np.concatenate([[0.0], rng.standard_normal(t.n_dof)])
    E, G, O = make_gibbs_target(t, pot_a, tilts, 0.7).energy_grad(X)
    E1, G1 = make_h1_target(t, pot_a, tilts, psi, 0.4).energy_grad(X)
    for r in range(5):
        vals = Field.from_dof(t, X[r]).values
        assert E[r] == pytest.approx(0.7 * hamiltonian(t, tilts[r], vals, pot_a), rel=1e-12)
        np.testing.assert_allclose(G[r], 0.7 * grad_h(t, tilts[r], vals, pot_a), rtol=1e-12, atol=1e-12)
        bonds = vals[t.forward] - vals + tilts[r][:, None]
        np.testing.assert_allclose(O[r], pot_a.dv(bonds).sum(axis=1), rtol=1e-12)
        assert E1[r] == pytest.approx(induced_h1_energy(t, pot_a, tilts[r], psi, X[r], 0.4), rel=1e-12)
        np.testing.assert_allclose(G1[r], induced_h1_grad(t, pot_a, tilts[r], psi, X[r], 0.4), rtol=1e-12, atol=1e-12)


def test_row_samples_independent_of_batch(scaled_b):
    # a row run alone and inside a 64-row ensemble with other tilts gives the
    # same samples, observables and frozen step size, bit for bit, for the
    # Gibbs target and for the induced h1 target
    ps, k = scaled_b
    t = Torus(2, 3)
    cfg = ChainConfig(n_steps=700, burn_in=300, seed=5)
    tilts = k * np.linspace(0.0, 0.5, 64)[:, None] * np.array([1.0, 0.5])
    rows = [(1, j // 2, j % 2) for j in range(64)]
    psi = np.concatenate([[0.0], 0.3 * np.random.default_rng(6).standard_normal(t.n_dof)])
    for make in (lambda u: make_gibbs_target(t, ps, u, 1.0), lambda u: make_h1_target(t, ps, u, psi, 0.4)):
        ensemble = run_chains(make(tilts), cfg, rows)
        for r in (0, 37, 63):
            alone = run_chains(make(tilts[r]), cfg, [rows[r]])[0]
            assert alone.row == ensemble[r].row == rows[r]
            assert np.array_equal(alone.samples, ensemble[r].samples)
            assert np.array_equal(alone.observable, ensemble[r].observable)
            assert alone.step_size == ensemble[r].step_size
        assert not np.array_equal(ensemble[0].samples, ensemble[1].samples)


def test_symmetric_target_mean_zero(quick_chain):
    # example_a at u = 0 is even, so the mean field vanishes
    pa, _ = scale_to_unit(example_a(0.5), 0.05)
    t = Torus(1, 3)
    target = make_gibbs_target(t, pa, [0.0], 1.0)
    results = run_chains(target, ChainConfig(n_steps=30_000, burn_in=3_000, seed=11))
    mean, se, _ = batch_means(np.concatenate([r.samples for r in results]))
    assert np.all(np.abs(mean) < 4 * se)


def test_batch_means_iid():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20_000)
    mean, se, n_eff = batch_means(x)
    assert abs(mean) < 4 * se
    assert se == pytest.approx(1.0 / math.sqrt(20_000), rel=0.3)
    assert 0 < n_eff <= 20_000


def test_fluctuation_hessian_gaussian_exact(pot_gauss):
    # quadratic target: D_u H is constant, so the variance term vanishes to
    # machine precision at any chain length
    for m in (3, 4):
        t = Torus(1, m)
        cfg = ChainConfig(n_steps=800, burn_in=100, seed=2, n_chains=1)
        est = fluctuation_hessian([0.4], pot_gauss, t, cfg)
        np.testing.assert_allclose(est.value, m * np.eye(1), atol=1e-10)
        assert float(np.max(est.std_error)) < 1e-10


def test_fluctuation_hessian_requires_unit_scale():
    t = Torus(1, 3)
    with pytest.raises(ValueError):
        fluctuation_hessian([0.0], example_a(0.5), t, ChainConfig(n_steps=100, burn_in=10))


def test_fluctuation_hessian_matches_oracle(scaled_b):
    ps, k = scaled_b
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=30_000, burn_in=3_000, seed=17, n_chains=2)
    est = fluctuation_hessian([k * 0.25], ps, t, cfg)
    H = hessian_fd(lambda uu: free_energy(uu, ps, t, 1.0, QuadratureSpec()), [k * 0.25], h=1e-3)
    diff = abs(float(est.value[0, 0]) - H[0, 0])
    assert diff < 3 * float(est.std_error[0, 0]) + 1e-6


def test_fluctuation_hessian_symmetric(scaled_b):
    ps, k = scaled_b
    t = Torus(2, 2)
    cfg = ChainConfig(n_steps=8_000, burn_in=1_000, seed=23, n_chains=2)
    est = fluctuation_hessian([0.1 * k, 0.2 * k], ps, t, cfg)
    np.testing.assert_allclose(est.value, np.asarray(est.value).T, atol=1e-12)


def _h1_samples(t, p, lam, cfg):
    target = make_h1_target(t, p, [0.0], np.zeros(t.volume), lam)
    return np.concatenate([r.samples for r in run_chains(target, cfg)])


def test_characteristic_a_at_zero_and_bounded(pot_gauss, quick_chain):
    t = Torus(1, 3)
    samples = _h1_samples(t, pot_gauss, 0.5, quick_chain)
    k = np.array([0.0, 0.7, 1.5, 3.0])
    rep = verify_l1norm_bounds(pot_gauss, t, [0.0], Field.zeros(t), samples, 0.5, k)
    assert rep.abs_a[0] == 1.0 and rep.se_abs[0] == 0.0
    assert np.all(rep.abs_a <= 1.0 + 4.0 * rep.se_abs)


def test_envelope_tail_exact_and_continuous():
    # integral of min(1, c / k^2) over |k| > K, against a direct quadrature
    c = 12.0
    root = math.sqrt(c)
    for K in (0.5, 2.0, root, 5.0):
        flat, _ = quad(lambda k: min(1.0, c / (k * k)), K, max(K, root))
        beyond, _ = quad(lambda k: c / (k * k), max(K, root), math.inf)
        assert _envelope_tail(c, K) == pytest.approx(2.0 * (flat + beyond), rel=1e-10)
    below, above = _envelope_tail(c, root * (1 - 1e-12)), _envelope_tail(c, root * (1 + 1e-12))
    assert below == pytest.approx(above, rel=1e-10) and below == pytest.approx(2.0 * root, rel=1e-10)


def test_characteristic_a_gaussian_closed_form(pot_gauss):
    # for G = 0 the induced measure is the scale-lam pinned field, so A(k) is
    # the Gaussian characteristic function of a bond, whose variance under the
    # scale-1 field is (V - 1) / (d V)
    t = Torus(1, 3)
    lam = 0.5
    cfg = ChainConfig(n_steps=60_000, burn_in=5_000, seed=29, n_chains=2)
    samples = _h1_samples(t, pot_gauss, lam, cfg)
    k = np.array([0.5, 1.0, 2.0])
    rep = verify_l1norm_bounds(pot_gauss, t, [0.0], Field.zeros(t), samples, lam, k)
    var = lam * (t.volume - 1) / (t.d * t.volume)
    exact = np.exp(-k * k * var / 2.0)
    np.testing.assert_allclose(rep.abs_a, exact, atol=4 * np.max(rep.se_abs) + 1e-3)


def test_monte_carlo_rate(pot_gauss):
    # error vs the exact covariance shrinks roughly like sqrt(10) from 1e4 to 1e5;
    # averaged over 16 chains, since over 4 the ratio misses 1.5 for about one
    # seed group in seven even for an exact sampler
    t = Torus(1, 3)
    exact = pinned_covariance(t)[0, 0]

    def err(n):
        cfg = ChainConfig(n_steps=n + 1_000, burn_in=1_000, seed=0, n_chains=16)
        results = run_chains(make_gibbs_target(t, pot_gauss, [0.0], 1.0), cfg)
        return np.mean([abs(np.var(r.samples[:, 0], ddof=1) - exact) for r in results])

    e4 = err(10_000)
    e5 = err(100_000)
    assert e5 < e4  # strictly better
    assert e5 < e4 / 1.5  # and by a clear factor


def _linear(v, name):
    return Observable(value=lambda S: S @ v, grad=lambda S: np.broadcast_to(v, S.shape), name=name)


def test_poincare_variance_check_gaussian_linear(pot_gauss):
    # exact variance (v, C v) obeys (1/delta) |v|^2 with strictness off the
    # minimal eigenvector
    t = Torus(1, 3)
    delta = poincare_constant(t).delta_m
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    rng = np.random.default_rng(31)
    vs = [rng.standard_normal(t.n_dof) for _ in range(3)]
    obs = [_linear(v, f"v{j}") for j, v in enumerate(vs)]
    cfg = ChainConfig(n_steps=30_000, burn_in=3_000, seed=37, n_chains=2)
    rep = poincare_variance_check(np.concatenate([r.samples for r in run_chains(target, cfg)]), delta, obs)
    assert rep.ok
    C = pinned_covariance(t)
    for j, v in enumerate(vs):
        assert rep.variances[j] == pytest.approx(float(v @ C @ v), abs=6 * rep.variance_se[j] + 1e-3)


def test_poincare_variance_check_needs_observables():
    # an empty list would report ok with nothing checked
    with pytest.raises(ValueError):
        poincare_variance_check(np.zeros((100, 2)), 1.0, [])


def test_auxiliary_streams_differ_from_chain_rows():
    # SeedSequence((seed, w)) zero-pads to (seed, w, 0, 0), the key of chain row
    # (w, 0, 0); SeedSequence(seed, spawn_key=(w,)) equals row (0, 0, w) of a
    # seed of two 32-bit words
    from gil.mcmc import AUX_STREAMS, stream

    for seed in (0, 7, 2**32 + 5):
        for purpose, word in AUX_STREAMS.items():
            aux = stream(seed, purpose=purpose).random(8)
            assert np.array_equal(aux, stream(seed, purpose=purpose).random(8))
            for row in ((word, 0, 0), (0, 0, word)):
                assert not np.array_equal(aux, stream(seed, row).random(8)), (seed, purpose, row)


def test_poincare_variance_check_constant_observable(pot_gauss, quick_chain):
    t = Torus(1, 3)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    obs = [Observable(value=lambda S: np.full(len(S), 1.25), grad=np.zeros_like, name="const")]
    rep = poincare_variance_check(np.concatenate([r.samples for r in run_chains(target, quick_chain)]), 1.0, obs)
    assert rep.ok and rep.variances[0] == pytest.approx(0.0, abs=1e-12)


def test_thermodynamic_integration_gaussian(pot_gauss):
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=4_000, burn_in=500, seed=41, n_chains=1)
    est = thermodynamic_integration(pot_gauss, t, 1.0, [0.8], cfg, n_nodes=8)
    exact = 0.5 * t.volume * 0.64
    # the integrand is deterministic for the quadratic family, so allow roundoff
    assert abs(float(est.value) - exact) < 4 * float(est.std_error) + 1e-12


def test_thermodynamic_integration_exact_tilt_identity(pot_b, beta_half_b):
    # the bump of example_b is symmetric about delta/2 and sum_x grad phi(x) = 0,
    # so f(delta 1) - f(0) = |T| d delta^2 / 2 exactly (= 1 at d = 1, m = 8)
    t = Torus(1, 8)
    cfg = ChainConfig(n_steps=1250, burn_in=250, n_chains=2, seed=3)
    est = thermodynamic_integration(pot_b, t, beta_half_b, [0.5], cfg, n_nodes=32)
    exact = t.volume * t.d * 0.5**2 / 2.0
    assert 0 < float(est.std_error) < 1e-3
    assert abs(float(est.value) - exact) < 4 * float(est.std_error)
