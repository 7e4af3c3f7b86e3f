import math
import time
import warnings

import numpy as np
import pytest

from gil.conditions import check_conditions, scale_to_unit
from gil.lattice import Field, Torus
from gil.oracle import (
    f_tilt,
    f_tilt_hessian,
    free_energy,
    hessian_fd,
    renorm_iterated_g,
    renorm_joint_g,
)
from gil.potentials import example_a, example_b, gaussian_potential, norms
from gil.quadrature import QuadratureError, _conditioning_grid, gh_log_expectation_doubling
from gil.renorm import DecompositionPlan, estimate_r1g

from conftest import pinned_covariance

# frozen from the iid-gradient conditioning reference (independent of the
# tensor backends): log Z for example_b(0.5), d=1, M=3, beta=1, u=0.1
LOGZ_B_REFERENCE = 1.2787192177616633



def test_gaussian_log_partition_closed_form(pot_gauss):
    t = Torus(1, 3)
    # pinned form [[2,-1],[-1,2]] has determinant 3, so Z = 2 pi / sqrt(3); log Z = -beta f
    assert -free_energy([0.0], pot_gauss, t, 1.0) == pytest.approx(math.log(2 * math.pi / math.sqrt(3)), abs=1e-12)


def test_gaussian_tilt_dependence(pot_gauss):
    t = Torus(2, 2)
    u = np.array([0.3, -0.7])
    diff = free_energy(np.zeros(2), pot_gauss, t, 1.0) - free_energy(u, pot_gauss, t, 1.0)
    assert diff == pytest.approx(-0.5 * t.volume * float(u @ u), abs=1e-12)


def test_example_b_regression_constant(pot_b):
    got = -free_energy([0.1], pot_b, Torus(1, 3), 1.0)
    assert got == pytest.approx(LOGZ_B_REFERENCE, abs=1e-9)


def test_gaussian_log_partition_closed_form_past_mayer_reach(pot_gauss):
    # 7 free coordinates: the pinned form of the cycle C_8 has determinant 8 (its
    # spanning trees), so log Z^beta(u) = -beta |T| u^2 / 2 + (7/2) log(2 pi / beta) - log(8) / 2
    t, beta, u = Torus(1, 8), 0.7, 0.3
    expected = -0.5 * beta * 8 * u * u + 3.5 * math.log(2 * math.pi / beta) - 0.5 * math.log(8)
    assert -beta * free_energy([u], pot_gauss, t, beta) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("u", [0.5, 1.0])
def test_scaling_identity_moderate_beta(u, pot_a):
    # f_M^beta(u) - f_M^beta(0) = (1/beta) [f_M^1(k u) - f_M^1(0)] with k = sqrt(beta c1)
    t = Torus(1, 3)
    beta = 0.3
    lhs = free_energy([u], pot_a, t, beta) - free_energy([0.0], pot_a, t, beta)
    ps, k = scale_to_unit(pot_a, beta)
    rhs = (free_energy([k * u], ps, t, 1.0) - free_energy([0.0], ps, t, 1.0)) / beta
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_beta_rescaling_gaussian(pot_gauss):
    # on the quadratic family the free energy difference is beta independent
    t = Torus(1, 4)
    for beta in (0.5, 1.0, 2.0):
        diff = free_energy([0.6], pot_gauss, t, beta) - free_energy([0.0], pot_gauss, t, beta)
        assert diff == pytest.approx(0.5 * t.volume * 0.36, abs=1e-10)


def test_log_partition_cross_method_example_a(conditioning_reference):
    # independent check of the d = 1 backend against the conditioning reference
    pa = example_a(0.5)
    beta = 0.3
    t = Torus(1, 3)
    ps, k = scale_to_unit(pa, beta)
    u = 0.2
    ref_logE = conditioning_reference(lambda e: ps.v(k * u + e) - 0.5 * (k * u + e) ** 2, 3)
    mb_logdet = math.log(3.0)  # det of the pinned form for M = 3
    expected = (
        -0.5 * 3 * (k * u) ** 2
        + 0.5 * 2 * math.log(2 * math.pi)
        - 0.5 * mb_logdet
        + ref_logE
        - 0.5 * 2 * math.log(beta * pa.c1)
    )
    got = -beta * free_energy([u], pa, t, beta)
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


@pytest.mark.parametrize(
    "family,m,u,factor,kappa",
    [
        ("example_b", 5, 0.0, 0.5, None),
        ("example_a", 64, 0.5, 0.5, 0.9984281253),
        ("example_a", 8, 0.3, 100.0, 0.80935418646),
    ],
)
def test_f_tilt_hessian_matches_richardson_stencil(family, m, u, factor, kappa):
    # factor is beta over the d = 1 threshold; kappa = f'' / (m c1)
    p = example_a(0.5) if family == "example_a" else example_b(0.5)
    beta = factor * check_conditions(1.0, 1, p, norms(p)).beta_max_fcond
    t = Torus(1, m)
    H, err = f_tilt_hessian([u], p, t, beta)
    stencil = hessian_fd(lambda uu: f_tilt(uu, p, t, beta), [u], h=1e-2)[0, 0]
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(stencil, rel=1e-8)
    assert math.isfinite(err) and 0.0 <= err <= 1e-8 * H[0, 0]
    if kappa is not None:
        assert H[0, 0] / (m * p.c1) == pytest.approx(kappa, abs=1e-10)


def test_f_tilt_hessian_error_floors_at_rounding():
    # at 100x the threshold kappa agrees on the 1024- and 2048-point grids, so
    # the doubling difference alone is 0; the reported error is the rounding
    # scale of the at-zero sums instead, which bounds how kappa moves on finer grids
    p, m, u = example_a(0.5), 8, 0.3
    beta = 100.0 * check_conditions(1.0, 1, p, norms(p)).beta_max_fcond
    t = Torus(1, m)
    H, err = f_tilt_hessian([u], p, t, beta)
    ps, k = scale_to_unit(p, beta)
    kappas = []
    for n in (4096, 8192, 16384):
        (rho0, _), (rho1, _), (rho2, _) = _conditioning_grid(ps.g, np.array([k * u]), np.array([m]), 1.0, n)
        ratio = rho1 / (1.0 + rho0)
        kappas.append((1.0 - m * rho2) / (1.0 + rho0) + m * ratio * ratio)
    assert err > 0.0
    assert err >= m * p.c1 * (max(kappas) - min(kappas))
    assert abs(H[0, 0] - m * p.c1 * kappas[-1]) <= err


@pytest.mark.parametrize("factor, m", [(1000.0, 512), (1e4, 64)])
def test_f_tilt_hessian_overflowing_excess_raises_without_warnings(pot_b, factor, m):
    # far out of hypothesis the excess D overflows to inf and then nan while it is
    # accumulated; the labelled error comes from the rho0 check, with no numpy
    # RuntimeWarning printed on the way there
    beta = factor * check_conditions(1.0, 1, pot_b, norms(pot_b)).beta_max_fcond
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite and positive"):
            f_tilt_hessian([0.3], pot_b, Torus(1, m), beta)


def test_f_tilt_hessian_gaussian_exact(pot_gauss):
    # g = 0: the excess D vanishes and f'' = c1 m at any beta, with error 0
    for beta in (0.3, 1.0):
        H, err = f_tilt_hessian([0.4], pot_gauss, Torus(1, 6), beta)
        assert H[0, 0] == 6.0 and err == 0.0


def test_f_tilt_hessian_needs_d1(pot_gauss):
    with pytest.raises(ValueError, match="d = 1"):
        f_tilt_hessian([0.0, 0.0], pot_gauss, Torus(2, 2), 1.0)


def test_hessian_fd_symmetric(pot_b):
    t = Torus(1, 3)
    H = hessian_fd(lambda uu: free_energy(uu, pot_b, t, 0.116), [0.2], h=1e-3)
    assert H.shape == (1, 1)


# one renormalization step (R f)(a) = -log E_b[exp(-f(a + b))] over the pinned
# Gaussian b at a variance scale, by the GH backend with node doubling


def test_renorm_apply_constant():
    t = Torus(1, 3)
    val, converged, _, _ = gh_log_expectation_doubling(lambda dof: np.full(len(dof), 3.25), t, 0.4)
    assert converged
    assert -val == pytest.approx(3.25, abs=1e-12)


def test_renorm_apply_linear_log_mgf():
    # f(values) = w . values gives R f(a) = w.a - (scale/2) w C w on the pinned
    # covariance C
    t = Torus(1, 3)
    w = np.array([0.7, -0.3])
    scale = 0.35
    a = Field.from_dof(t, np.array([0.2, 0.1]))
    val, converged, _, _ = gh_log_expectation_doubling(lambda dof: (a.values[1:] + dof) @ w, t, scale)
    assert converged
    C = pinned_covariance(t)
    expected = float(w @ a.values[1:]) - 0.5 * scale * float(w @ C @ w)
    assert -val == pytest.approx(expected, abs=1e-9)


def test_gh_doubling_fails_before_evaluating_when_no_doubling_fits():
    # at 5 dof even the first doubled grid (32^5 nodes) exceeds the point cap
    t = Torus(1, 6)
    seen = []

    def gfun(dof):
        seen.append(len(dof))
        return np.zeros(len(dof))

    val, converged, _, _ = gh_log_expectation_doubling(gfun, t, 1.0)
    assert not converged and math.isnan(val)
    assert sum(seen) == 0


def test_renorm_iterated_raises_fast_at_five_dof():
    ps, _ = scale_to_unit(example_b(0.5), 0.1)
    t = Torus(1, 6)
    start = time.perf_counter()
    with pytest.raises(QuadratureError):
        renorm_iterated_g(ps, 0.4, [0.3], t)
    assert time.perf_counter() - start < 1.0


def test_renorm_iterated_one_inner_call_per_gh_order(scaled_b, monkeypatch):
    # every outer GH order hands its whole node batch to one inner log_expectation
    import gil.oracle
    import gil.quadrature

    inner, orders = [], []
    log_expectation = gil.oracle.log_expectation
    gh_log_expectation = gil.quadrature.gh_log_expectation

    def counted_inner(*args, **kwargs):
        inner.append(kwargs["psi_values"].shape)
        return log_expectation(*args, **kwargs)

    def counted_order(gfun, t, scale, order):
        orders.append(order)
        return gh_log_expectation(gfun, t, scale, order)

    monkeypatch.setattr(gil.oracle, "log_expectation", counted_inner)
    monkeypatch.setattr(gil.quadrature, "gh_log_expectation", counted_order)
    ps, _ = scaled_b
    t = Torus(1, 3)
    renorm_iterated_g(ps, 5.0 / 12.0, [0.3], t)
    assert len(orders) >= 2
    assert len(inner) == len(orders)
    assert all(len(shape) == 2 and shape[1] == t.volume for shape in inner)


def test_renorm_iterated_heap_stays_in_slabs(scaled_b):
    # the criterion-5 call: GH order 32 hands the inner Mayer layer 716 base
    # fields, whose rank-2 grids (GL_ORDER^2 points a row) took 6.65 MB of heap
    # in one chunk; in slabs of SLAB_VALUES points it stays below 3 MB (a first
    # call fills the rule and geometry caches)
    import tracemalloc

    ps, _ = scaled_b
    t = Torus(1, 3)
    renorm_iterated_g(ps, 5.0 / 12.0, [0.3], t)
    tracemalloc.start()
    try:
        renorm_iterated_g(ps, 5.0 / 12.0, [0.3], t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_renorm_g_zero_for_gaussian(pot_gauss):
    t = Torus(1, 3)
    plan = DecompositionPlan.from_potential(pot_gauss, t, lam=0.5)
    assert estimate_r1g(plan, [0.3], Field.zeros(t)).value == 0.0


def test_renorm_g_shift_invariance(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 4)
    rng = np.random.default_rng(3)
    dof = rng.standard_normal(t.n_dof)
    psi1 = Field.from_dof(t, dof)
    shifted = psi1.values + 1.7
    psi2 = Field(t, shifted - shifted[0])
    plan = DecompositionPlan.from_potential(ps, t, lam=0.4)
    r1 = estimate_r1g(plan, [0.2], psi1).value
    r2 = estimate_r1g(plan, [0.2], psi2).value
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_renorm_iterated_equals_joint(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    lam = 5.0 / 12.0
    for u in (0.0, 0.3):
        it = renorm_iterated_g(ps, lam, [u], t)
        jt = renorm_joint_g(ps, lam, [u], t)
        assert math.exp(-it) == pytest.approx(math.exp(-jt), rel=1e-6)


def test_free_energy_decomposition_identity(scaled_b):
    # f(u) - f(0) = |T| u^2 / 2 + (R2 R1 G)(u, 0) - (R2 R1 G)(0, 0) in the unit frame
    ps, k = scaled_b
    t = Torus(1, 3)
    lam = 5.0 / 12.0
    us = 0.45
    lhs = free_energy([us], ps, t, 1.0) - free_energy([0.0], ps, t, 1.0)
    rhs = (
        0.5 * t.volume * us * us
        + renorm_iterated_g(ps, lam, [us], t)
        - renorm_iterated_g(ps, lam, [0.0], t)
    )
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_renorm_iterated_equals_joint_non_compact():
    # the joint side is the scale-1 expectation, so the identity covers
    # potentials whose anharmonicity is not compactly supported
    pa, _ = scale_to_unit(example_a(0.5), 0.3)
    t = Torus(1, 3)
    lam = 0.25
    it = renorm_iterated_g(pa, lam, [0.3], t)
    jt = renorm_joint_g(pa, lam, [0.3], t)
    assert math.exp(-it) == pytest.approx(math.exp(-jt), rel=1e-6)
