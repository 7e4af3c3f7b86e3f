import math

import numpy as np
import pytest
from scipy.integrate import quad

from gil.conditions import check_conditions, scale_to_unit
from gil.gff import poincare_constant
from gil.lattice import Field, Torus
from gil.mcmc import (
    NOISE_CHUNK,
    BlockSums,
    ChainConfig,
    GradientMismatchError,
    StepSizeError,
    Target,
    _blocks,
    _envelope_tail,
    _fd_gradient_check,
    _phase_stats,
    batch_means,
    fluctuation_hessian,
    make_gibbs_target,
    make_h1_target,
    poincare_variance_check,
    run_chains,
    stream,
    thermodynamic_integration,
    verify_l1norm_bounds,
)
from gil.oracle import f_tilt_hessian
from gil.potentials import example_a, gaussian_potential, norms

from conftest import grad_h, hamiltonian, induced_h1_energy, induced_h1_grad, pinned_covariance


def test_chain_determinism(pot_gauss, quick_chain):
    t = Torus(1, 3)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    r1 = run_chains(target, quick_chain, [(0, 0, 0)])[0]
    r2 = run_chains(target, quick_chain, [(0, 0, 0)])[0]
    assert np.array_equal(r1.samples, r2.samples)
    r3 = run_chains(target, quick_chain, [(0, 0, 1)])[0]
    assert not np.array_equal(r1.samples, r3.samples)


def test_chain_config_invariants():
    with pytest.raises(ValueError):
        ChainConfig(n_steps=100, burn_in=100)
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
    # a fixed step of 1e-8 barely moves and accepts nearly every proposal: the
    # guard's upper side rejects the run
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=500, burn_in=100, seed=3, step_size=1e-8, n_chains=1)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    with pytest.raises(StepSizeError, match=r"row \(tilt 0, node 0, chain 0\): acceptance rate") as exc:
        run_chains(target, cfg, [(0, 0, 0)])
    assert float(str(exc.value).split("acceptance rate ")[1].split()[0]) > 0.95


def test_step_size_guard(pot_gauss):
    t = Torus(1, 3)
    cfg = ChainConfig(n_steps=400, burn_in=100, seed=3, step_size=50.0, n_chains=1)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    with pytest.raises(StepSizeError, match=r"row \(tilt 0, node 0, chain 0\): acceptance rate"):
        run_chains(target, cfg, [(0, 0, 0)])[0]


def test_gradient_spot_check_guard():
    t = Torus(1, 3)
    bad = Target(energy_grad=lambda X: ((X * X).sum(axis=1), 3.0 * X), n_dof=t.n_dof)
    with pytest.raises(GradientMismatchError, match=r"row \(tilt 0, node 0, chain 2\): .* by "):
        run_chains(bad, ChainConfig(n_steps=100, burn_in=10, seed=0, n_chains=1), [(0, 0, 2)])


def test_gradient_check_names_the_wrong_row():
    # E = |x|^2 with gradient 2x, except that row 1 reports 3x
    t = Torus(1, 4)
    scale = np.array([2.0, 3.0, 2.0])[:, None]
    bad = Target(energy_grad=lambda X: ((X * X).sum(axis=-1), scale * X), n_dof=t.n_dof)
    rows = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    X = np.random.default_rng(1).standard_normal((3, t.n_dof))
    with pytest.raises(GradientMismatchError, match=r"^row \(tilt 0, node 0, chain 1\): .* by "):
        _fd_gradient_check(bad, X, rows)
    scale[1] = 2.0
    _fd_gradient_check(bad, X, rows)


def test_gradient_check_batches_the_shifts(scaled_b, monkeypatch):
    # one call at X, then the +h and -h shifts of every coordinate in one call
    # each, or in one pair of calls per slice of shifts
    import gil.mcmc

    ps, k = scaled_b
    t = Torus(2, 3)
    target = make_gibbs_target(t, ps, k * np.array([[0.1, 0.2], [0.3, 0.0], [0.5, 0.5]]), 1.0)
    shapes = []

    def energy_grad(X):
        shapes.append(X.shape)
        return target.energy_grad(X)

    counted = Target(energy_grad=energy_grad, n_dof=t.n_dof)
    X = 0.1 * np.random.default_rng(2).standard_normal((3, t.n_dof))
    _fd_gradient_check(counted, X, [(0, 0, c) for c in range(3)])
    assert shapes == [(3, 8), (8, 3, 8), (8, 3, 8)]
    shapes.clear()
    monkeypatch.setattr(gil.mcmc, "SLICE_VALUES", 3 * 8 * 3)
    _fd_gradient_check(counted, X, [(0, 0, c) for c in range(3)])
    assert shapes == [(3, 8)] + [(3, 3, 8)] * 4 + [(2, 3, 8)] * 2


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3)])
def test_energy_grad_leading_axes_match_separate_calls(scaled_b, d, m):
    # X[k, rows, n_dof] gives, bit for bit, the k separate calls on X[j]; the
    # per-row tilts u[rows, d] broadcast from the right
    ps, scale = scaled_b
    t = Torus(d, m)
    rng = np.random.default_rng(d)
    X = 0.5 * rng.standard_normal((4, 3, t.n_dof))
    tilts = scale * rng.uniform(0.0, 0.5, (3, d))
    psi = np.concatenate([[0.0], 0.3 * rng.standard_normal(t.n_dof)])
    for target in (make_gibbs_target(t, ps, tilts, 1.0), make_h1_target(t, ps, tilts, psi, 0.4)):
        batched = target.energy_grad(X)
        for j in range(len(X)):
            single = target.energy_grad(X[j])
            assert len(batched) == len(single)
            for a, b in zip(batched, single):
                assert np.array_equal(a[j], b)


def _reference_chains(target, cfg, rows):
    """The MALA loop of run_chains written plainly, one step at a time.

    Returns each row's kept records (the observable where the target returns
    one, else the state), the final states, the acceptance rates and the step sizes.
    """
    n = target.n_dof
    rngs = [stream(cfg.seed, row) for row in rows]
    for rng in rngs:
        rng.standard_normal(n)  # the gradient-check point
    X = np.zeros((len(rows), n))
    E, G, *O = target.energy_grad(X)
    has_obs = bool(O)
    O = O[0] if O else np.zeros((len(rows), 0))
    h = np.full(len(rows), cfg.step_size if cfg.step_size is not None else target.step_hint)
    window, accepted = np.zeros(len(rows)), np.zeros(len(rows))
    records = []
    for step in range(cfg.n_steps):
        c = step % NOISE_CHUNK
        if c == 0:
            k = min(NOISE_CHUNK, cfg.n_steps - step)
            xi_chunk = np.stack([rng.standard_normal((k, n)) for rng in rngs], axis=1)
            log_u_chunk = np.log1p(-np.stack([rng.random(k) for rng in rngs], axis=1))
        xi = xi_chunk[c]
        drift = 0.5 * h[:, None] ** 2
        Y = X - drift * G + h[:, None] * xi
        EY, GY, *OY = target.energy_grad(Y)
        OY = OY[0] if OY else np.zeros((len(rows), 0))
        diff = X - (Y - drift * GY)
        log_q_rev = -0.5 * (diff * diff).sum(axis=-1) / (h * h)
        log_q_fwd = -0.5 * (xi * xi).sum(axis=-1)
        acc = log_u_chunk[c] < (E - EY) + (log_q_rev - log_q_fwd)
        X, G, O = (np.where(acc[:, None], new, old) for new, old in ((Y, X), (GY, G), (OY, O)))
        E = np.where(acc, EY, E)
        if step < cfg.burn_in:
            window += acc
            if cfg.step_size is None and (step + 1) % 25 == 0:
                h = h * np.exp(0.4 * (window / 25.0 - 0.574))
                window[:] = 0.0
            continue
        accepted += acc
        records.append(O if has_obs else X)
    return np.stack(records, axis=1), X, accepted / (cfg.n_steps - cfg.burn_in), h


def _assert_matches_reference(target, cfg, rows):
    """run_chains against _reference_chains: kept records, final state, acceptance and step size bit for bit."""
    records, X, rate, h = _reference_chains(target, cfg, rows)
    results = run_chains(target, cfg, rows)
    for r, res in enumerate(results):
        assert np.array_equal(res.samples, records[r])
        assert np.array_equal(res.state, X[r])
        assert res.acceptance == rate[r] and res.step_size == h[r]
    return records, results


def _assert_same_chains(a, b):
    """Two runs of the same rows, with and without an observable: same final states, acceptances and step sizes."""
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.state, y.state)
        assert x.acceptance == y.acceptance and x.step_size == y.step_size


def test_run_chains_matches_reference_loop(scaled_b):
    # kept records (states, or the observable where the target returns one),
    # final state, acceptance and frozen step size agree bit for bit, with a
    # tuning update inside a noise chunk (step 75 of chunk 64..127) and with a
    # fixed step size; a keep function reduced chunk by chunk (110 and 130 kept
    # states: uneven last chunks) gives its values at every kept record
    ps, k = scaled_b
    t = Torus(2, 3)
    tilts = k * np.array([[0.0, 0.0], [0.25, 0.1], [0.5, 0.5]])
    psi = np.concatenate([[0.0], 0.3 * np.random.default_rng(4).standard_normal(t.n_dof)])
    rows = [(2, 0, 0), (2, 1, 0), (2, 2, 1)]
    gibbs_obs = make_gibbs_target(t, ps, tilts, 1.0, observable=True)
    for target in (make_gibbs_target(t, ps, tilts, 1.0), gibbs_obs, make_h1_target(t, ps, tilts, psi, 0.4)):
        for cfg in (ChainConfig(n_steps=200, burn_in=90, seed=8), ChainConfig(n_steps=150, burn_in=20, seed=9, step_size=0.3)):
            records, _ = _assert_matches_reference(target, cfg, rows)
            reduce = lambda X: np.stack([X.sum(axis=-1), np.abs(X).max(axis=-1)], axis=-1)
            for res, values in zip(run_chains(target, cfg, rows, keep=reduce), reduce(records)):
                assert np.array_equal(res.samples, values)
    with pytest.raises(ValueError, match="keep"):
        run_chains(target, cfg, rows, keep="state")

    # the proposal mean carried from the accepting step is recomputed wherever
    # tuning moves h: here an update falls on the last step of a noise chunk
    # (step 1599 = 25 * 64 - 1), so the next chunk starts at the new h
    cfg = ChainConfig(n_steps=1700, burn_in=1600, seed=12)
    assert cfg.burn_in % 25 == 0 and cfg.burn_in % NOISE_CHUNK == 0
    for target in (gibbs_obs, make_h1_target(t, ps, tilts, psi, 0.4)):
        _assert_matches_reference(target, cfg, rows)

    # four rows, tuned: steps where every row, no row, one or two rows (copied
    # row by row) and three rows (masked copies) accept all occur.  The
    # observable is copied with the state in every branch; the same rows run
    # without it keep their states, and the two runs move alike.  The reference
    # calls the target at the start state, then once per step; after burn-in a
    # row accepted a step when its kept state is that step's proposal
    tilts4 = k * np.linspace(0.0, 0.5, 4)[:, None] * np.ones(2)
    four, proposals = make_gibbs_target(t, ps, tilts4, 1.0), []

    def recorded(Y):
        proposals.append(Y.copy())
        return four.energy_grad(Y)

    cfg, rows4 = ChainConfig(n_steps=900, burn_in=600, seed=13), [(4, j, 0) for j in range(4)]
    samples, plain = _assert_matches_reference(Target(recorded, t.n_dof, four.step_hint), cfg, rows4)
    proposed = np.stack(proposals[1 + cfg.burn_in : 1 + cfg.n_steps], axis=1)
    assert set(np.all(samples == proposed, axis=-1).sum(axis=0).tolist()) == {0, 1, 2, 3, 4}
    _, observed = _assert_matches_reference(make_gibbs_target(t, ps, tilts4, 1.0, observable=True), cfg, rows4)
    _assert_same_chains(plain, observed)


def test_batched_targets_match_single_field_energies(pot_a):
    # each row of a batched call agrees with the single-field lattice functions;
    # the Gibbs target in the raw frame at beta 0.7, the induced h1 target (which
    # sums the anharmonic part g, so needs c1 = 1) in the unit frame
    t = Torus(2, 3)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, t.n_dof))
    tilts = rng.standard_normal((5, 2))
    psi = np.concatenate([[0.0], rng.standard_normal(t.n_dof)])
    E, G, O = make_gibbs_target(t, pot_a, tilts, 0.7, observable=True).energy_grad(X)
    unit_a, _ = scale_to_unit(pot_a, 0.7)
    E1, G1 = make_h1_target(t, unit_a, tilts, psi, 0.4).energy_grad(X)
    with pytest.raises(ValueError, match="unit-scaled"):
        make_h1_target(t, pot_a, tilts, psi, 0.4)
    for r in range(5):
        vals = Field.from_dof(t, X[r]).values
        assert E[r] == pytest.approx(0.7 * hamiltonian(t, tilts[r], vals, pot_a), rel=1e-12)
        np.testing.assert_allclose(G[r], 0.7 * grad_h(t, tilts[r], vals, pot_a), rtol=1e-12, atol=1e-12)
        bonds = vals[t.forward] - vals + tilts[r][:, None]
        np.testing.assert_allclose(O[r], pot_a.dv(bonds).sum(axis=1), rtol=1e-12)
        assert E1[r] == pytest.approx(induced_h1_energy(t, unit_a, tilts[r], psi, X[r], 0.4), rel=1e-12)
        np.testing.assert_allclose(G1[r], induced_h1_grad(t, unit_a, tilts[r], psi, X[r], 0.4), rtol=1e-12, atol=1e-12)


def test_row_samples_independent_of_batch(scaled_b):
    # a row run alone and inside a 64-row ensemble with other tilts gives the
    # same kept records, final state and frozen step size, bit for bit, for the
    # Gibbs target with and without its observable and for the induced h1 target
    ps, k = scaled_b
    t = Torus(2, 3)
    cfg = ChainConfig(n_steps=700, burn_in=300, seed=5)
    tilts = k * np.linspace(0.0, 0.5, 64)[:, None] * np.array([1.0, 0.5])
    rows = [(1, j // 2, j % 2) for j in range(64)]
    psi = np.concatenate([[0.0], 0.3 * np.random.default_rng(6).standard_normal(t.n_dof)])
    makes = (
        lambda u: make_gibbs_target(t, ps, u, 1.0),
        lambda u: make_gibbs_target(t, ps, u, 1.0, observable=True),
        lambda u: make_h1_target(t, ps, u, psi, 0.4),
    )
    for make in makes:
        ensemble = run_chains(make(tilts), cfg, rows)
        for r in (0, 37, 63):
            alone = run_chains(make(tilts[r]), cfg, [rows[r]])[0]
            assert alone.row == ensemble[r].row == rows[r]
            assert np.array_equal(alone.samples, ensemble[r].samples)
            assert np.array_equal(alone.state, ensemble[r].state)
            assert alone.step_size == ensemble[r].step_size
        assert not np.array_equal(ensemble[0].samples, ensemble[1].samples)


def test_symmetric_target_mean_zero(quick_chain):
    # example_a at u = 0 is even, so the mean field vanishes
    pa, _ = scale_to_unit(example_a(0.5), 0.05)
    t = Torus(1, 3)
    target = make_gibbs_target(t, pa, [0.0], 1.0)
    results = run_chains(target, ChainConfig(n_steps=30_000, burn_in=3_000, seed=11))
    mean, se, _ = batch_means([r.samples for r in results])
    assert np.all(np.abs(mean) < 4 * se)


@pytest.mark.parametrize(
    "n, repeats", [*(pytest.param(n, False, id=str(n)) for n in (14_000, 5_003, 37)), pytest.param(14_000, True, id="14000-runs")]
)
def test_phase_stats_match_batch_means(n, repeats):
    # block by block over all k, bitwise the batch means of the full phase
    # arrays of two chains, at a sample count that the blocks divide unevenly
    # and below the 2 * MIN_BLOCKS branch, and with runs of repeated values (a
    # rejected step repeats its state), some crossing block edges and one
    # filling a block
    rng = np.random.default_rng(n)
    gv = rng.standard_normal((2, n))
    if repeats:
        gv = np.stack([np.repeat(c, rng.integers(1, 6, n))[:n] for c in gv])
        gv[:, 300:500] = gv[:, 300:301]
    k = np.linspace(-6.0, 6.0, 401)
    re, im, se_re, se_im = _phase_stats(list(gv), k)
    mean_c, se_c, _ = batch_means([np.cos(np.outer(c, k)) for c in gv])
    mean_s, se_s, _ = batch_means([np.sin(np.outer(c, k)) for c in gv])
    for a, b in ((re, mean_c), (se_re, se_c), (im, mean_s), (se_im, se_s)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(1, 5_003, 3), (1, 1_000, 1), (1, 700), (1, 39, 2), (1, 25), (2, 1_003, 3)])
def test_batch_means_matches_plain_formula(shape):
    # bit for bit: the mean and error of the block means, or of the samples
    # themselves below 2 * MIN_BLOCKS, and n_eff = var / SE^2 over all samples,
    # capped at their number.  shape is (chains, n, ...); two chains at
    # different offsets give the block means of each chain's own blocks,
    # concatenated, so no block spans two chains
    x = np.random.default_rng(len(shape)).standard_normal(shape) * 2.0 + 0.3
    x[1:] += 4.0
    flat = x.reshape(-1, *shape[2:])
    mean, se, n_eff = batch_means(list(x))
    if shape[1] < 40:
        assert np.array_equal(mean, flat.mean(axis=0))
        assert np.array_equal(se, flat.std(axis=0, ddof=1) / math.sqrt(len(flat)))
        assert n_eff == len(flat)
        return
    means = np.concatenate([_blocks(c[None]).mean(axis=1) for c in x])
    assert np.array_equal(mean, means.mean(axis=0))
    assert np.array_equal(se, means.std(axis=0, ddof=1) / math.sqrt(len(means)))
    assert n_eff == min(float(np.min(flat.var(axis=0, ddof=1) / se**2)), len(flat))


@pytest.mark.parametrize(
    "m,n_chains,n_kept",
    [
        (4, 3, 12),     # blocks of one, below 2 * MIN_BLOCKS
        (4, 1, 30),     # one chain
        (4, 2, 1_000),  # not a multiple of NOISE_CHUNK; 31 blocks of 32 per chain, a tail of 8 dropped
        (4, 3, 150),    # 20 blocks of 7 per chain, the tail of 3 dropped; blocks split at chunk edges (64 = 9 * 7 + 1)
        (2, 2, 500),    # one dof
    ],
)
def test_block_sums_stream_what_stored_states_give(pot_gauss, m, n_chains, n_kept):
    # on the same seed, the in-run block sums give batch_means of the stored
    # per-chain states: mean and error to 1e-12 relative, n_eff to rounding; it
    # keeps nothing per state, and each row's final state is its last kept state
    t = Torus(1, m)
    target = make_gibbs_target(t, pot_gauss, [0.3], 1.0)
    cfg = ChainConfig(n_steps=n_kept + 200, burn_in=200, n_chains=n_chains, seed=3)
    stored = run_chains(target, cfg)
    sums = BlockSums(n_kept)
    with pytest.raises(ValueError, match="reduced"):
        sums.result()
    streamed = run_chains(target, cfg, keep=sums)
    mean, se, n_eff = sums.result()
    ref_mean, ref_se, ref_n_eff = batch_means([r.samples for r in stored])
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(se, ref_se, rtol=1e-12, atol=0.0)
    assert n_eff == pytest.approx(ref_n_eff, rel=1e-12, abs=0.0)
    for s, r in zip(streamed, stored):
        assert s.samples.shape == (n_kept, 0)
        assert np.array_equal(s.state, r.samples[-1])


def test_batch_means_iid():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20_000)
    mean, se, n_eff = batch_means([x])
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


def test_fluctuation_hessian_observable_is_both_tilt_derivatives(scaled_b, monkeypatch):
    # the Hessian target's observable is D_u H and then D_u^2 H from the step's
    # fused pass: on the states of the same chains run without the observable
    # (same final states and acceptances, bit for bit) they are the sums of V'
    # and V'' over each axis's bonds, and the estimate is the plain formula over
    # the blocked observable.  A row alone is bit for bit that row inside an ensemble
    import gil.mcmc

    ps, k = scaled_b
    t = Torus(2, 3)
    u = k * np.array([0.3, 0.1])
    real, runs = gil.mcmc.run_chains, []
    monkeypatch.setattr(gil.mcmc, "run_chains", lambda *args: runs.append(real(*args)) or runs[-1])
    cfg = ChainConfig(n_steps=400, burn_in=100, seed=3)
    est = fluctuation_hessian(u, ps, t, cfg)
    observed, = runs
    stored = real(make_gibbs_target(t, ps, u, 1.0), cfg, [r.row for r in observed])
    _assert_same_chains(stored, observed)
    for s, o in zip(stored, observed):
        assert o.samples.shape == (300, 4)
        for x, obs in zip(s.samples, o.samples):
            vals = Field.from_dof(t, x).values
            bonds = vals[t.forward] - vals + u[:, None]
            np.testing.assert_allclose(obs[:2], ps.dv(bonds).sum(axis=1), rtol=1e-13)
            np.testing.assert_allclose(obs[2:], ps.d2v(bonds).sum(axis=1), rtol=1e-12)
    obs = np.concatenate([r.samples for r in observed])  # 300 kept steps per chain: 20 whole blocks of 15
    plain = np.diag(obs[:, 2:].mean(axis=0)) - np.cov(obs[:, :2].T)
    np.testing.assert_allclose(est.value, plain, rtol=1e-12, atol=1e-12)

    tilts = u * np.array([[1.0], [0.5], [2.0]])
    rows = [(0, 0, 0), (0, 0, 1), (1, 0, 0)]
    ensemble = real(make_gibbs_target(t, ps, tilts, 1.0, observable=2), cfg, rows)
    for r, row in enumerate(rows):
        alone = real(make_gibbs_target(t, ps, tilts[r], 1.0, observable=2), cfg, [row])[0]
        assert alone.samples.shape == (300, 4)
        assert np.array_equal(alone.samples, ensemble[r].samples)
        assert np.array_equal(alone.state, ensemble[r].state)


def test_fluctuation_hessian_memory_does_not_grow_with_steps(scaled_b):
    # no kept state is stored: at 255 dof, 6000 more steps add well under the
    # 12 MB that one row of stored states would take
    import tracemalloc

    ps, k = scaled_b
    t = Torus(2, 16)
    peaks = []
    for n_steps in (2000, 8000):
        cfg = ChainConfig(n_steps=n_steps, burn_in=1000, seed=1, n_chains=1)
        tracemalloc.start()
        try:
            fluctuation_hessian(k * np.array([0.5, 0.5]), ps, t, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20, peaks


def test_fluctuation_hessian_requires_unit_scale():
    t = Torus(1, 3)
    with pytest.raises(ValueError):
        fluctuation_hessian([0.0], example_a(0.5), t, ChainConfig(n_steps=100, burn_in=10))


def test_fluctuation_hessian_matches_oracle(pot_a, pot_b, pot_c):
    # each family in d = 1: the chain row against the conditioning oracle's
    # direct tilt Hessian, within 3 standard errors plus the oracle's reported
    # error.  At half its primary-condition threshold (in hypothesis) the row
    # sits within a few SE of the Gaussian value m c1 = m; at 100x (example_a,
    # example_b) or 10x (example_c) the threshold it sits at least 15 SE away,
    # so the check pins each family's g''
    def check(p, factor, t, u, cfg, gap=0.0):
        ps, k = scale_to_unit(p, check_conditions(1.0, 1, p, norms(p)).beta_max_fcond * factor)
        est = fluctuation_hessian([k * u], ps, t, cfg)
        H, err = f_tilt_hessian([k * u], ps, t, 1.0)
        diff, se = abs(float(est.value[0, 0]) - H[0, 0]), float(est.std_error[0, 0])
        assert diff <= 3.0 * se + err, (p.family, factor, diff, se, err)
        assert abs(H[0, 0] - t.volume) >= gap * se, (p.family, factor, H[0, 0], se)

    for p in (pot_a, pot_b, pot_c):
        check(p, 0.5, Torus(1, 3), 0.25, ChainConfig(n_steps=30_000, burn_in=3_000, seed=17, n_chains=2))
    cfg = ChainConfig(n_steps=4_000, burn_in=500, seed=17, n_chains=2)
    for p, factor in ((pot_a, 100.0), (pot_b, 100.0), (pot_c, 10.0)):
        check(p, factor, Torus(1, 8), 0.3, cfg, gap=15.0)


def test_fluctuation_hessian_symmetric(scaled_b):
    ps, k = scaled_b
    t = Torus(2, 2)
    cfg = ChainConfig(n_steps=8_000, burn_in=1_000, seed=23, n_chains=2)
    est = fluctuation_hessian([0.1 * k, 0.2 * k], ps, t, cfg)
    np.testing.assert_allclose(est.value, np.asarray(est.value).T, atol=1e-12)


def _h1_samples(t, p, lam, cfg):
    target = make_h1_target(t, p, [0.0], np.zeros(t.volume), lam)
    return np.stack([r.samples for r in run_chains(target, cfg)])


@pytest.mark.parametrize("family", ["b", "c"])
def test_l1norm_bounds_integrate_two_norms(family, scaled_b, pot_c, monkeypatch):
    # ||g0''||_L1 and ||g0'||_L2 alone (example_c stores no g0'), and the report
    # is field for field the one built from the full norm report
    import dataclasses

    import gil.mcmc
    import gil.potentials

    ps = scaled_b[0] if family == "b" else scale_to_unit(pot_c, 0.5)[0]
    t = Torus(1, 3)
    gv = np.random.default_rng(3).standard_normal(800)
    real, calls = gil.potentials._integrate_tail_doubling, []
    monkeypatch.setattr(gil.potentials, "_integrate_tail_doubling", lambda *a: calls.append(a) or real(*a))
    rep = verify_l1norm_bounds(ps, t, [0.1], Field.zeros(t), [gv])
    assert len(calls) == (2 if family == "b" else 1)
    nr = gil.potentials.norms(ps)
    monkeypatch.setattr(gil.mcmc, "norm", lambda p, name, tol=1e-10: (getattr(nr, name), None))
    full = verify_l1norm_bounds(ps, t, [0.1], Field.zeros(t), [gv])
    for field in dataclasses.fields(rep):
        assert np.array_equal(getattr(rep, field.name), getattr(full, field.name)), field.name
    assert (rep.g0pp_bound_l2 is None) == (family == "c")


def test_characteristic_a_at_zero_and_bounded(pot_gauss, quick_chain):
    t = Torus(1, 3)
    gv = _h1_samples(t, pot_gauss, 0.5, quick_chain)[..., t.forward[0, 0] - 1]
    k = np.array([0.0, 0.7, 1.5, 3.0])
    rep = verify_l1norm_bounds(pot_gauss, t, [0.0], Field.zeros(t), gv, 0.5, k)
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
    gv = _h1_samples(t, pot_gauss, lam, cfg)[..., t.forward[0, 0] - 1]
    k = np.array([0.5, 1.0, 2.0])
    rep = verify_l1norm_bounds(pot_gauss, t, [0.0], Field.zeros(t), gv, lam, k)
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


def test_poincare_variance_check_gaussian_linear(pot_gauss):
    # exact variance (v, C v) obeys (1/delta) |v|^2 with strictness off the
    # minimal eigenvector
    t = Torus(1, 3)
    delta = poincare_constant(t)
    target = make_gibbs_target(t, pot_gauss, [0.0], 1.0)
    rng = np.random.default_rng(31)
    vs = rng.standard_normal((3, t.n_dof))
    cfg = ChainConfig(n_steps=30_000, burn_in=3_000, seed=37, n_chains=2)
    rep = poincare_variance_check([r.samples @ vs.T for r in run_chains(target, cfg)], delta, vs)
    assert rep.ok
    C = pinned_covariance(t)
    for j, v in enumerate(vs):
        assert rep.variances[j] == pytest.approx(float(v @ C @ v), abs=6 * rep.variance_se[j] + 1e-3)


def test_poincare_variance_check_needs_observables():
    # an empty list would report ok with nothing checked
    for empty in ([], np.zeros((0, 2))):
        with pytest.raises(ValueError):
            poincare_variance_check([np.zeros((100, 0))], 1.0, empty)
    with pytest.raises(ValueError, match="projections"):
        poincare_variance_check([np.zeros((100, 2))], 1.0, np.eye(3))


def test_poincare_variance_check_bounds_are_exact():
    # delta certifies the Hessian, so the bound of a linear observable is |v|^2 / delta, without error
    # (integer entries, so |v|^2 is exact in any summation order)
    vs = np.random.default_rng(5).integers(-3, 4, (4, 3)).astype(float)
    rep = poincare_variance_check([np.random.default_rng(6).standard_normal((500, 3)) @ vs.T], 0.7, vs)
    assert np.array_equal(rep.bounds, np.array([float(v @ v) / 0.7 for v in vs]))
    assert np.array_equal(rep.bound_se, np.zeros(4))
    assert rep.names == ("linear_0", "linear_1", "linear_2", "linear_3")


@pytest.mark.parametrize("n", [5_003, 37])
def test_poincare_variance_check_matches_per_direction_jackknife(n):
    # one projection and one blocked jackknife for all directions, against a loop
    # over directions and blocks of the delete-one unbiased variance of the
    # samples in whole blocks
    rng = np.random.default_rng(n)
    samples, vs = rng.standard_normal((n, 6)), rng.standard_normal((5, 6))
    rep = poincare_variance_check([samples @ vs.T], 1.0, vs)
    nb = n if n < 40 else max(20, math.isqrt(n))  # 37 blocks of one
    b = n // nb
    for j, v in enumerate(vs):
        x = samples[: nb * b] @ v
        jk = np.array([np.var(np.delete(x, np.s_[i * b : (i + 1) * b]), ddof=1) for i in range(nb)])
        se = math.sqrt((nb - 1) / nb * np.sum((jk - jk.mean()) ** 2))
        assert rep.variances[j] == pytest.approx(np.var(x, ddof=1), rel=1e-12)
        assert rep.variance_se[j] == pytest.approx(se, rel=1e-9)


@pytest.mark.parametrize("n", [14_000, 5_003, 37])
@pytest.mark.parametrize("width", [None, 1, 2])
def test_blocks_match_slice_loop(n, width):
    # block sums, means and outer products over the blocked view are bitwise those
    # of explicit slices: n blocks of one below 40 samples, else nb = max(20,
    # floor(sqrt n)) blocks of n // nb, tail dropped
    x = np.random.default_rng(n).standard_normal(n if width is None else (n, width))
    nb = n if n < 40 else max(20, math.isqrt(n))
    b = n // nb
    slices = [x[i * b : (i + 1) * b] for i in range(nb)]
    blocks = _blocks(x[None])
    assert blocks.shape == (nb, b) + x.shape[1:]
    assert np.array_equal(blocks.sum(axis=1), np.stack([s.sum(axis=0) for s in slices]))
    assert np.array_equal(blocks.mean(axis=1), np.stack([s.mean(axis=0) for s in slices]))
    if width is not None:
        assert np.array_equal(blocks.mT @ blocks, np.stack([s.T @ s for s in slices]))


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
    # the zero direction: a constant observable, with variance and bound 0
    projections = [r.samples @ np.zeros((2, 1)) for r in run_chains(target, quick_chain)]
    rep = poincare_variance_check(projections, 1.0, np.zeros((1, 2)))
    assert rep.ok and rep.variances[0] == 0.0 and rep.bounds[0] == 0.0


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
