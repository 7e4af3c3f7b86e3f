import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import math
import time

from gil.gff import fourier_modes, poincare_constant, sample_gff, spectrum
from gil.lattice import Torus, grad_all, grad_norm_sq
from gil.oracle import free_energy
from gil.potentials import gaussian_potential
from gil.quadrature import field_bond_map


def full_dirichlet_matrix(t):
    """Unpinned volume x volume matrix M with phi . M phi = ||grad phi||^2."""
    D = grad_all(t, np.eye(t.volume)).reshape(t.volume, -1).T
    return D.T @ D

from conftest import bond_matrix, pinned_covariance, pinned_form, random_pinned


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


@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (2, 2), (2, 3), (1, 6), (2, 8), (3, 3)])
def test_mode_transform_diagonalizes(d, m):
    # real orthonormal modes orthogonal to the constants, diagonalizing the torus Laplacian
    t = Torus(d, m)
    lam, S = fourier_modes(t)
    assert S.shape == (t.volume, t.n_dof) and lam.shape == (t.n_dof,)
    np.testing.assert_allclose(S.T @ S, np.eye(t.n_dof), rtol=0, atol=1e-13)
    np.testing.assert_allclose(S.sum(axis=0), 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(S.T @ full_dirichlet_matrix(t) @ S, np.diag(lam), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(np.sort(lam), np.sort(spectrum(t))[1:])
    assert np.all(lam > 0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_quadratic_form_identity(seed):
    # a pinned field is S w plus a constant, so its amplitudes are w = S^T phi
    t = Torus(2, 3)
    lam, S = fourier_modes(t)
    vals = random_pinned(t, np.random.default_rng(seed))
    modes = S.T @ vals
    lhs = float(np.sum(lam * modes**2))
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


SPECTRAL_SIZES = [(1, m) for m in range(2, 7)] + [(2, m) for m in range(2, 9)] + [(3, 2), (3, 3)]


@pytest.mark.parametrize("d,m", SPECTRAL_SIZES)
def test_poincare_and_log_det_match_dense(d, m):
    # the secular root and the matrix-tree log det against eigvalsh of the dense
    # pinned form; the log det is read back from the Gaussian free energy,
    # f = -(n/2) log(2 pi) + (1/2) log det at beta = c1 = 1 and u = 0
    t = Torus(d, m)
    dense = np.linalg.eigvalsh(pinned_form(t))
    assert abs(poincare_constant(t) - dense[0]) <= 1e-12
    log_det = 2.0 * free_energy([0.0] * d, gaussian_potential(), t, 1.0) + t.n_dof * math.log(2.0 * math.pi)
    assert abs(log_det - np.sum(np.log(dense))) <= 1e-12


@pytest.mark.parametrize("d,m", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 3)])
def test_field_bond_map_covariance_matches_dense(d, m):
    # F F^T is the bond covariance scale D A^-1 D^T of the pinned field
    t = Torus(d, m)
    D = bond_matrix(t)
    F = field_bond_map(t, 0.7)
    np.testing.assert_allclose(F @ F.T, 0.7 * D @ np.linalg.solve(pinned_form(t), D.T), rtol=0, atol=1e-13)


def test_poincare_constant_beyond_the_dense_cap():
    # the secular equation needs only the spectrum: Torus(2, 128) has 16383 dof
    t = Torus(2, 128)
    start = time.perf_counter()
    delta = poincare_constant(t)
    assert time.perf_counter() - start < 0.1
    assert 0.0 < delta <= 4.0 * math.sin(math.pi / 128) ** 2


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
    # only the dense volume x (volume - 1) mode matrix is capped
    t = Torus(2, 70)
    calls = (lambda: fourier_modes(t), lambda: field_bond_map(t, 1.0), lambda: sample_gff(t, 1.0, np.random.default_rng(0)))
    for call in calls:
        with pytest.raises(ValueError, match="capped at volume 4096"):
            call()
