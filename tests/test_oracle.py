import math

import numpy as np
import pytest

from gil.conditions import scale_to_unit
from gil.gff import pinned_covariance
from gil.lattice import Field, Torus
from gil.oracle import (
    QuadratureSpec,
    free_energy,
    hessian_fd,
    log_partition,
    renorm_apply_g,
    renorm_iterated_g,
    renorm_joint_g,
)
from gil.potentials import example_a, example_b, gaussian_potential
from gil.quadrature import QuadratureError, gh_log_expectation_doubling

# frozen from the iid-gradient conditioning reference (independent of the
# tensor backends): log Z for example_b(0.5), d=1, M=3, beta=1, u=0.1
LOGZ_B_REFERENCE = 1.2787192177616633

Q = QuadratureSpec()


def test_gaussian_log_partition_closed_form(pot_gauss):
    t = Torus(1, 3)
    # pinned form [[2,-1],[-1,2]] has determinant 3, so Z = 2 pi / sqrt(3)
    assert log_partition([0.0], pot_gauss, t, 1.0, Q) == pytest.approx(math.log(2 * math.pi / math.sqrt(3)), abs=1e-12)


def test_gaussian_tilt_dependence(pot_gauss):
    t = Torus(2, 2)
    u = np.array([0.3, -0.7])
    diff = log_partition(u, pot_gauss, t, 1.0, Q) - log_partition(np.zeros(2), pot_gauss, t, 1.0, Q)
    assert diff == pytest.approx(-0.5 * t.volume * float(u @ u), abs=1e-12)


def test_example_b_regression_constant(pot_b):
    got = log_partition([0.1], pot_b, Torus(1, 3), 1.0, Q)
    assert got == pytest.approx(LOGZ_B_REFERENCE, abs=1e-9)


def test_free_energy_is_scaled_log_partition(pot_b):
    t = Torus(1, 3)
    beta = 0.25
    u = [0.4]
    assert free_energy(u, pot_b, t, beta, Q) == pytest.approx(-log_partition(u, pot_b, t, beta, Q) / beta, rel=1e-14)


def test_oracle_size_cap(pot_gauss):
    with pytest.raises(QuadratureError):
        log_partition([0.0], pot_gauss, Torus(1, 8), 1.0, Q)


def test_quadrature_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_dim=4)
    with pytest.raises(ValueError):
        QuadratureSpec(max_dof=6)


@pytest.mark.parametrize("u", [0.5, 1.0])
def test_scaling_identity_moderate_beta(u, pot_a):
    # f_M^beta(u) - f_M^beta(0) = (1/beta) [f_M^1(k u) - f_M^1(0)] with k = sqrt(beta c1)
    t = Torus(1, 3)
    beta = 0.3
    lhs = free_energy([u], pot_a, t, beta, Q) - free_energy([0.0], pot_a, t, beta, Q)
    ps, k = scale_to_unit(pot_a, beta)
    rhs = (free_energy([k * u], ps, t, 1.0, Q) - free_energy([0.0], ps, t, 1.0, Q)) / beta
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_beta_rescaling_gaussian(pot_gauss):
    # on the quadratic family the free energy difference is beta independent
    t = Torus(1, 4)
    for beta in (0.5, 1.0, 2.0):
        diff = free_energy([0.6], pot_gauss, t, beta, Q) - free_energy([0.0], pot_gauss, t, beta, Q)
        assert diff == pytest.approx(0.5 * t.volume * 0.36, abs=1e-10)


def test_log_partition_cross_method_example_a(conditioning_reference):
    # independent check of the adaptive/GH backends against the conditioning route
    pa = example_a(0.5)
    beta = 0.3
    t = Torus(1, 3)
    ps, k = scale_to_unit(pa, beta)
    u = 0.2

    def g_scalar(s):
        return float(ps.v(s) - s * s / 2.0)

    ref_logE = conditioning_reference(k * u, 3, g_scalar, None)
    mb_logdet = math.log(3.0)  # det of the pinned form for M = 3
    expected = (
        -0.5 * 3 * (k * u) ** 2
        + 0.5 * 2 * math.log(2 * math.pi)
        - 0.5 * mb_logdet
        + ref_logE
        - 0.5 * 2 * math.log(beta * pa.c1)
    )
    got = log_partition([u], pa, t, beta, Q)
    assert got == pytest.approx(expected, abs=1e-8)


def test_hessian_fd_quadratic_exact():
    H = hessian_fd(lambda x: 1.5 * x[0] ** 2 + 0.5 * x[1] ** 2 + 0.25 * x[0] * x[1], [0.3, -0.2], h=1e-3)
    np.testing.assert_allclose(H, [[3.0, 0.25], [0.25, 1.0]], atol=1e-8)


def test_hessian_fd_quartic():
    H = hessian_fd(lambda x: x[0] ** 4, [1.0], h=1e-3)
    assert H[0, 0] == pytest.approx(12.0, abs=1e-4)


@pytest.mark.parametrize("d,expected", [(1, 5), (2, 17)])
def test_hessian_fd_evaluates_center_once(d, expected):
    # 1 + 2 (2d + 2d(d-1)) evaluations: f(u) is shared by the h and h/2 stencils
    calls = []

    def f(x):
        calls.append(x.copy())
        return float(np.sum(x**4))

    hessian_fd(f, np.full(d, 0.3), h=1e-3)
    assert len(calls) == expected
    assert sum(np.array_equal(x, np.full(d, 0.3)) for x in calls) == 1


def test_hessian_fd_symmetric(pot_b):
    t = Torus(1, 3)
    H = hessian_fd(lambda uu: free_energy(uu, pot_b, t, 0.116, Q), [0.2], h=1e-3)
    assert H.shape == (1, 1)


# one renormalization step (R f)(a) = -log E_b[exp(-f(a + b))] over the pinned
# Gaussian b at a variance scale, by the GH backend with node doubling


def test_renorm_apply_constant():
    t = Torus(1, 3)
    val, converged, _, _ = gh_log_expectation_doubling(lambda dof: np.full(len(dof), 3.25), t, 0.4, Q.nodes_per_dim)
    assert converged
    assert -val == pytest.approx(3.25, abs=1e-12)


def test_renorm_apply_linear_log_mgf():
    # f(values) = w . values gives R f(a) = w.a - (scale/2) w C w on the pinned
    # covariance C
    t = Torus(1, 3)
    w = np.array([0.7, -0.3])
    scale = 0.35
    a = Field.from_dof(t, np.array([0.2, 0.1]))
    val, converged, _, _ = gh_log_expectation_doubling(lambda dof: (a.values[1:] + dof) @ w, t, scale, Q.nodes_per_dim)
    assert converged
    C = pinned_covariance(t)
    expected = float(w @ a.values[1:]) - 0.5 * scale * float(w @ C @ w)
    assert -val == pytest.approx(expected, abs=1e-9)


def test_renorm_g_zero_for_gaussian(pot_gauss):
    t = Torus(1, 3)
    assert renorm_apply_g(pot_gauss, 0.5, [0.3], Field.zeros(t), Q) == 0.0


def test_renorm_g_shift_invariance(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 4)
    rng = np.random.default_rng(3)
    dof = rng.standard_normal(t.n_dof)
    psi1 = Field.from_dof(t, dof)
    shifted = psi1.values + 1.7
    psi2 = Field(t, shifted - shifted[0])
    r1 = renorm_apply_g(ps, 0.4, [0.2], psi1, Q)
    r2 = renorm_apply_g(ps, 0.4, [0.2], psi2, Q)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_renorm_iterated_equals_joint(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    lam = 5.0 / 12.0
    for u in (0.0, 0.3):
        it = renorm_iterated_g(ps, lam, [u], t, Q)
        jt = renorm_joint_g(ps, lam, [u], t, Q)
        assert math.exp(-it) == pytest.approx(math.exp(-jt), rel=1e-6)


def test_free_energy_decomposition_identity(scaled_b):
    # f(u) - f(0) = |T| u^2 / 2 + (R2 R1 G)(u, 0) - (R2 R1 G)(0, 0) in the unit frame
    ps, k = scaled_b
    t = Torus(1, 3)
    lam = 5.0 / 12.0
    us = 0.45
    lhs = free_energy([us], ps, t, 1.0, Q) - free_energy([0.0], ps, t, 1.0, Q)
    rhs = (
        0.5 * t.volume * us * us
        + renorm_iterated_g(ps, lam, [us], t, Q)
        - renorm_iterated_g(ps, lam, [0.0], t, Q)
    )
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_renorm_joint_requires_compact_support():
    pa, _ = scale_to_unit(example_a(0.5), 0.3)
    with pytest.raises(QuadratureError):
        renorm_joint_g(pa, 0.25, [0.0], Torus(1, 3), Q)


def test_envelope_scale_is_an_importance_reweighting(pot_gauss):
    # widening the sampling envelope must not move converged answers
    from gil.oracle import log_partition as lp

    t = Torus(1, 3)
    pa = example_a(0.5)
    base = lp([0.3], pa, t, 0.3, QuadratureSpec())
    wide = lp([0.3], pa, t, 0.3, QuadratureSpec(envelope_scale=2.0))
    assert wide == pytest.approx(base, abs=1e-7)
    # exact on the gaussian family at any envelope
    assert lp([0.0], pot_gauss, t, 1.0, QuadratureSpec(envelope_scale=1.7)) == pytest.approx(
        math.log(2 * math.pi / math.sqrt(3)), abs=1e-12
    )
