import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gil.conditions import scale_to_unit
from gil.lattice import Field, Torus, anharmonic_g, bond_divergence, grad_all, grad_norm_sq, pinned

from conftest import grad_h, hamiltonian, induced_h1_energy, induced_h1_grad, random_pinned


def test_torus_geometry():
    t = Torus(2, 3)
    assert t.volume == 9 and t.n_dof == 8
    assert t.forward.shape == (2, 9)
    # forward then backward is the identity on every axis
    for i in range(t.d):
        assert np.array_equal(t.backward[i][t.forward[i]], np.arange(9))
    with pytest.raises(ValueError):
        Torus(0, 3)
    with pytest.raises(ValueError):
        Torus(1, 1)


def test_grad_examples():
    t = Torus(1, 3)
    phi = Field(t, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(grad_all(t, phi.values), [[1.0, -1.0, 0.0]])
    assert phi.values[t.forward[0, 0]] - phi.values[0] == 1.0
    const = Field(t, np.zeros(3))
    assert np.all(grad_all(t, const.values + 0.0) == 0.0)


@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 2), m=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_gradients_telescope(seed, d, m):
    t = Torus(d, m)
    vals = random_pinned(t, np.random.default_rng(seed))
    g = grad_all(t, vals)
    np.testing.assert_allclose(g.sum(axis=1), np.zeros(d), atol=1e-10)


LEADING_SHAPES = [(), (3,), (2, 3)]


def _site_loop_grad(t, values):
    """grad[..., i, x] = values[..., x + e_i] - values[..., x], one site at a time."""
    out = np.empty(values.shape[:-1] + (t.d, t.volume))
    for x in range(t.volume):
        for i in range(t.d):
            out[..., i, x] = values[..., t.forward[i, x]] - values[..., x]
    return out


def _site_loop_divergence(t, w):
    """sum over i = 0, 1, ... of w_i(x - e_i) - w_i(x) at each non-origin site, one site at a time."""
    out = np.empty(w.shape[:-2] + (t.n_dof,))
    for idx in np.ndindex(w.shape[:-2]):
        for x in range(1, t.volume):
            acc = 0.0
            for i in range(t.d):
                acc += float(w[idx + (i, t.backward[i, x])]) - float(w[idx + (i, x)])
            out[idx + (x - 1,)] = acc
    return out


@pytest.mark.parametrize("lead", LEADING_SHAPES)
@pytest.mark.parametrize("d,m", [(1, 5), (2, 4), (3, 3)])
def test_gather_kernels_match_site_loop_bitwise(d, m, lead):
    # d = 3 sums three axes, so the gather-and-sum must add them in the loop's order
    t = Torus(d, m)
    rng = np.random.default_rng(100 * d + len(lead))
    values = pinned(rng.standard_normal(lead + (t.n_dof,)))
    w = rng.standard_normal(lead + (d, t.volume))
    assert np.array_equal(grad_all(t, values), _site_loop_grad(t, values))
    assert np.array_equal(bond_divergence(t, w), _site_loop_divergence(t, w))


@pytest.mark.parametrize("lead", LEADING_SHAPES)
@pytest.mark.parametrize("d,m", [(1, 5), (2, 4), (3, 3)])
def test_bond_divergence_is_adjoint_of_grad_all(d, m, lead):
    # <w, grad_all(pinned(x))> = <bond_divergence(w), x> for dof vectors x, row by row
    t = Torus(d, m)
    rng = np.random.default_rng(7 * d + len(lead))
    x = rng.standard_normal(lead + (t.n_dof,))
    w = rng.standard_normal(lead + (d, t.volume))
    lhs = (w * grad_all(t, pinned(x))).sum(axis=(-2, -1))
    rhs = (bond_divergence(t, w) * x).sum(axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_hamiltonian_gaussian_values(pot_gauss):
    t = Torus(1, 3)
    assert hamiltonian(t, [0.0], Field(t, np.array([0.0, 1.0, 0.0])), pot_gauss) == pytest.approx(1.0)
    u = np.array([0.7, -0.4])
    t2 = Torus(2, 3)
    assert hamiltonian(t2, u, Field.zeros(t2), pot_gauss) == pytest.approx(t2.volume * float(u @ u) / 2)


def test_hamiltonian_matches_naive_loop(pot_a):
    t = Torus(1, 4)
    rng = np.random.default_rng(5)
    phi = random_pinned(t, rng)
    u = np.array([0.3])
    naive = 0.0
    for x in range(t.volume):
        for i in range(t.d):
            s = phi[t.forward[i, x]] - phi[x] + u[i]
            naive += float(s * s + 0.5 - math.log(s * s + 0.5))  # example (a) at a = 0.5
    assert hamiltonian(t, u, phi, pot_a) == pytest.approx(naive, rel=1e-12)


def test_hamiltonian_shift_invariance(pot_b):
    t = Torus(2, 3)
    rng = np.random.default_rng(7)
    phi = random_pinned(t, rng)
    u = np.array([0.2, -0.1])
    h0 = hamiltonian(t, u, phi, pot_b)
    assert hamiltonian(t, u, phi + 3.7, pot_b) == pytest.approx(h0, rel=1e-12)


def test_grad_h_gaussian_is_discrete_laplacian(pot_gauss):
    t = Torus(1, 4)
    rng = np.random.default_rng(2)
    phi = random_pinned(t, rng)
    gh = grad_h(t, [0.0], phi, pot_gauss)
    lap = 2 * phi - phi[t.forward[0]] - phi[t.backward[0]]
    np.testing.assert_allclose(gh, lap[1:], atol=1e-12)


def test_grad_h_zero_at_flat_field(pot_b):
    t = Torus(1, 4)
    np.testing.assert_allclose(grad_h(t, [0.0], Field.zeros(t), pot_b), 0.0, atol=1e-14)


@pytest.mark.parametrize("d,m", [(1, 3), (1, 5), (2, 3)])
def test_grad_h_matches_finite_differences(d, m, pot_a):
    t = Torus(d, m)
    rng = np.random.default_rng(d * 10 + m)
    dof = rng.standard_normal(t.n_dof)
    u = rng.standard_normal(d) * 0.4
    f = Field.from_dof(t, dof)
    gh = grad_h(t, u, f, pot_a)
    eps = 1e-5
    for j in range(t.n_dof):
        dp, dm_ = dof.copy(), dof.copy()
        dp[j] += eps
        dm_[j] -= eps
        fd = (hamiltonian(t, u, Field.from_dof(t, dp), pot_a) - hamiltonian(t, u, Field.from_dof(t, dm_), pot_a)) / (
            2 * eps
        )
        assert gh[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def _gaussian_part(t, u, values):
    u = np.asarray(u, dtype=float)
    return 0.5 * t.volume * float(u @ u) + 0.5 * grad_norm_sq(t, values)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_separate_identity(seed, scaled_b):
    # H separates into the exact Gaussian part and anharmonic_g when c1 = 1
    ps, _ = scaled_b
    t = Torus(1, 4)
    rng = np.random.default_rng(seed)
    phi = random_pinned(t, rng)
    u = rng.standard_normal(1)
    total = hamiltonian(t, u, phi, ps)
    assert _gaussian_part(t, u, phi) + anharmonic_g(t, u, phi, ps) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_separate_gaussian_g_part_zero(pot_gauss):
    t = Torus(1, 3)
    rng = np.random.default_rng(1)
    phi = random_pinned(t, rng)
    assert anharmonic_g(t, [0.4], phi, pot_gauss) == pytest.approx(0.0, abs=1e-12)


def test_separate_gradient_invariance(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 4)
    rng = np.random.default_rng(9)
    phi = random_pinned(t, rng)
    u = np.array([0.3])
    assert _gaussian_part(t, u, phi) == pytest.approx(_gaussian_part(t, u, phi + 2.5), rel=1e-12)
    assert anharmonic_g(t, u, phi, ps) == pytest.approx(anharmonic_g(t, u, phi + 2.5, ps), rel=1e-9, abs=1e-12)


def test_field_pinning():
    t = Torus(1, 3)
    with pytest.raises(ValueError):
        Field(t, np.array([1.0, 0.0, 0.0]))
    f = Field.from_dof(t, np.array([0.5, -0.25]))
    np.testing.assert_array_equal(f.values, [0.0, 0.5, -0.25])


def test_induced_h1_gradient_matches_fd(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 4)
    rng = np.random.default_rng(12)
    psi = random_pinned(t, rng)
    theta = rng.standard_normal(t.n_dof)
    u = np.array([0.2])
    lam = 5.0 / 12.0
    g = induced_h1_grad(t, ps, u, psi, theta, lam)
    eps = 1e-6
    for j in range(t.n_dof):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        fd = (induced_h1_energy(t, ps, u, psi, tp, lam) - induced_h1_energy(t, ps, u, psi, tm, lam)) / (2 * eps)
        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)
