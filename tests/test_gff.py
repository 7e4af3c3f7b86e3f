import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gil.gff import (
    ModeBasis,
    bond_matrix,
    pinned_form,
    poincare_constant,
    sample_gff,
    spectrum,
)
from gil.lattice import Torus, grad_all, grad_norm_sq


def full_dirichlet_matrix(t):
    """Unpinned volume x volume matrix M with phi . M phi = ||grad phi||^2."""
    D = grad_all(t, np.eye(t.volume)).reshape(t.volume, -1).T
    return D.T @ D

from conftest import pinned_covariance, random_pinned


@pytest.mark.parametrize(
    "d,m,expected",
    [
        (1, 4, [0.0, 2.0, 2.0, 4.0]),
        (1, 2, [0.0, 4.0]),
        (2, 2, [0.0, 4.0, 4.0, 8.0]),
    ],
)
def test_spectrum_examples(d, m, expected):
    np.testing.assert_allclose(sorted(spectrum(Torus(d, m))), expected, atol=1e-12)


@pytest.mark.parametrize("d,m", [(1, 4), (1, 5), (2, 3)])
def test_spectrum_matches_dense_eigensolve(d, m):
    t = Torus(d, m)
    dense = np.sort(np.linalg.eigvalsh(full_dirichlet_matrix(t)))
    np.testing.assert_allclose(np.sort(spectrum(t)), dense, atol=1e-10)


@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_mode_transform_diagonalizes(d, m):
    t = Torus(d, m)
    mb = ModeBasis.build(t)
    Q, lam = mb.Q, mb.lam
    np.testing.assert_allclose(Q @ Q.T, np.eye(t.n_dof), atol=1e-12)
    np.testing.assert_allclose(Q.T @ pinned_form(t) @ Q, np.diag(lam), atol=1e-10)
    assert np.all(lam > 0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_quadratic_form_identity(seed):
    t = Torus(2, 3)
    mb = ModeBasis.build(t)
    vals = random_pinned(t, np.random.default_rng(seed))
    modes = mb.Q.T @ vals[1:]
    lhs = float(np.sum(mb.lam * modes**2))
    rhs = grad_norm_sq(t, vals)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("d,m", [(1, 3), (1, 2), (1, 5)])
def test_poincare_examples(d, m):
    val = poincare_constant(Torus(d, m))
    if m == 3:
        assert val == pytest.approx(1.0, abs=1e-12)
    elif m == 2:
        assert val == pytest.approx(2.0, abs=1e-12)
    else:
        dense = np.linalg.eigvalsh(pinned_form(Torus(d, m)))[0]
        assert val == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 4)])
def test_poincare_positive_and_interlaced(d, m):
    t = Torus(d, m)
    delta = poincare_constant(t)
    assert delta > 0
    nz = np.sort(spectrum(t))[1]
    assert delta <= nz + 1e-12


def test_sample_dirichlet_energy_moment():
    t = Torus(1, 4)
    rng = np.random.default_rng(100)
    n = 100_000
    for scale in (1.0, 0.4):
        draws = sample_gff(t, scale, rng, n)
        gn = np.array([grad_norm_sq(t, v) for v in draws])
        mean = gn.mean()
        se = gn.std(ddof=1) / np.sqrt(n)
        assert abs(mean - scale * t.n_dof) < 3 * se


def test_sample_single_field_is_pinned():
    t = Torus(2, 3)
    f = sample_gff(t, 1.0, np.random.default_rng(0))
    assert f.values[0] == 0.0


def test_sample_covariance_matches_pinned_inverse():
    t = Torus(1, 3)
    rng = np.random.default_rng(7)
    n = 100_000
    draws = sample_gff(t, 1.0, rng, n)
    emp = np.cov(draws[:, 1:].T)
    exact = pinned_covariance(t)
    # entrywise within 4 standard errors; var of covariance entries ~ (Cii Cjj + Cij^2)/n
    for i in range(2):
        for j in range(2):
            se = np.sqrt((exact[i, i] * exact[j, j] + exact[i, j] ** 2) / n)
            assert abs(emp[i, j] - exact[i, j]) < 4 * se


def test_convolution_identity_moments():
    # phi1 + phi2 at scales lam, 1 - lam matches a scale-1 draw in distribution;
    # compare second and fourth moments of the Dirichlet energy
    t = Torus(1, 3)
    lam = 5.0 / 12.0
    rng = np.random.default_rng(21)
    n = 100_000
    a = sample_gff(t, lam, rng, n)
    b = sample_gff(t, 1.0 - lam, rng, n)
    c = sample_gff(t, 1.0, rng, n)
    gn_sum = np.array([grad_norm_sq(t, v) for v in a + b])
    gn_one = np.array([grad_norm_sq(t, v) for v in c])
    for power in (1, 2):
        x, y = gn_sum**power, gn_one**power
        se = np.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / n)
        assert abs(x.mean() - y.mean()) < 4 * se


def test_sample_rejects_bad_scale():
    t = Torus(1, 3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_gff(t, 0.0, rng)
    with pytest.raises(ValueError):
        sample_gff(t, 1.5, rng)


def test_bond_matrix_consistency():
    t = Torus(2, 3)
    D = bond_matrix(t)
    rng = np.random.default_rng(5)
    vals = random_pinned(t, rng)
    direct = grad_all(t, vals).ravel()
    np.testing.assert_allclose(D @ vals[1:], direct, atol=1e-12)


def test_grad_variance_matches_dense_covariance():
    # by symmetry each of the d V bonds carries an equal share of
    # E||grad phi||^2 = n_dof, so Var(grad_0 phi(0)) = (V - 1) / (d V); with
    # phi(0) = 0 it is Var(phi(e_0)) under the pinned field
    for d, m in ((1, 3), (2, 3)):
        t = Torus(d, m)
        e0 = t.forward[0, 0] - 1  # dof index of the site e_0
        assert (t.volume - 1) / (d * t.volume) == pytest.approx(pinned_covariance(t)[e0, e0], abs=1e-12)


def test_dense_cap_enforced():
    with pytest.raises(ValueError):
        poincare_constant(Torus(2, 70))
