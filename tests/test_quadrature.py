import math

import numpy as np
import pytest

from gil.conditions import scale_to_unit
from gil.gff import ModeBasis, pinned_form
from gil.lattice import Torus, anharmonic_g, bond_args, pinned
from gil.potentials import custom_potential, example_a, example_b, gaussian_potential
from gil.quadrature import (
    GK21_NODES,
    GK21_WEIGHTS,
    QuadratureError,
    adaptive_log_expectation,
    compact_anharmonicity,
    field_bond_map,
    gh_log_expectation,
    gh_log_expectation_doubling,
    log_expectation,
    mayer_log_expectation,
)


def _quadratic_gfun(t, eps, u):
    def gfun(dof_batch):
        vals = np.zeros((dof_batch.shape[0], t.volume))
        vals[:, 1:] = dof_batch
        out = np.zeros(dof_batch.shape[0])
        for i in range(t.d):
            g = vals[:, t.forward[i]] - vals + u[i]
            out += (eps / 2.0 * g * g).sum(axis=1)
        return out

    return gfun


@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (2, 2)])
def test_gh_closed_form_quadratic(d, m):
    # G = (eps/2) sum (u + grad)^2 has log E = -(eps/2)|T||u|^2 - (n/2) log(1+eps)
    t = Torus(d, m)
    eps, u = 0.3, np.full(d, 0.4)
    got = gh_log_expectation(_quadratic_gfun(t, eps, u), t, 1.0, order=24)
    expected = -(eps / 2.0) * t.volume * float(u @ u) - 0.5 * t.n_dof * math.log(1.0 + eps)
    assert got == pytest.approx(expected, abs=1e-12)


def test_gh_doubling_converges_on_smooth():
    t = Torus(1, 3)
    val, converged, delta, order = gh_log_expectation_doubling(_quadratic_gfun(t, 0.2, np.array([0.1])), t, 1.0)
    assert converged and delta < 1e-8


def test_adaptive_matches_gh_on_smooth():
    t = Torus(1, 3)
    gfun = _quadratic_gfun(t, 0.25, np.array([0.3]))
    gh = gh_log_expectation(gfun, t, 1.0, order=32)
    ad, err = adaptive_log_expectation(gfun, t, 1.0)
    assert ad == pytest.approx(gh, abs=1e-9)
    assert err < 1e-8


def _counted(gfun):
    calls = []

    def wrapped(dof_batch):
        calls.append(len(dof_batch))
        return gfun(dof_batch)

    return wrapped, calls


# At m = 2 the two bonds are u + q w and u - q w; for u below the support's upper
# end 0.17 both can sit in the support, and Mayer's pair term then integrates the
# support's C^2 edges inside its Gauss-Legendre box (1.8e-12 off at u = 0.15 by a
# breakpoint-aware 1d quadrature).  u = 0.2 leaves the pair term exactly zero.
@pytest.mark.parametrize("m,u", [(2, 0.2), (3, 0.15)])
def test_adaptive_matches_mayer_example_b(scaled_b, m, u):
    # m = 2 is the one-mode path, m = 3 the batched inner integrals of two modes
    ps, _ = scaled_b
    t = Torus(1, m)
    tilt = np.array([u])
    val_mayer, info = log_expectation(t, ps, tilt)
    assert info["method"] == "mayer"
    gfun, calls = _counted(lambda dof: anharmonic_g(t, tilt, pinned(dof), ps))
    val_ad, err = adaptive_log_expectation(gfun, t, 1.0)
    assert val_ad == pytest.approx(val_mayer, abs=1e-12)
    assert err < 1e-12
    # one gfun call per refinement round, not one per integrand point
    assert len(calls) <= 200


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("m,u", [(2, 0.2), (3, 0.15)])
def test_adaptive_error_bounds_difference_from_mayer(scaled_b, m, u, tol):
    ps, _ = scaled_b
    t = Torus(1, m)
    tilt = np.array([u])
    val_mayer, _ = log_expectation(t, ps, tilt)
    val_ad, err = adaptive_log_expectation(lambda dof: anharmonic_g(t, tilt, pinned(dof), ps), t, 1.0, tol=tol)
    assert abs(val_ad - val_mayer) <= err


def test_adaptive_matches_conditioning_reference_example_a(conditioning_reference):
    # in-hypothesis temperature: GH cannot resolve the needle of g at this beta
    ps, k = scale_to_unit(example_a(0.5), 1e-3)
    t = Torus(1, 3)
    u = np.array([0.5 * k])
    ref = conditioning_reference(u[0], 3, lambda s: float(ps.v(s) - s * s / 2.0), None)
    val, info = log_expectation(t, ps, u)
    assert info["method"] == "adaptive"
    assert val == pytest.approx(ref, abs=1e-11)
    gfun, calls = _counted(lambda dof: anharmonic_g(t, u, pinned(dof), ps))
    adaptive_log_expectation(gfun, t, 1.0)
    assert len(calls) <= 200


@pytest.mark.parametrize(
    "gfun,message",
    [
        # a jump: the panel holding it never passes, whatever its width
        (lambda dof: np.where(dof[:, 0] > 0.1234567, 5.0, 0.0), "bisections"),
        # noise: every panel fails, so the panel count grows instead
        (lambda dof: 1e-3 * np.random.default_rng(len(dof)).standard_normal(len(dof)), "panels"),
        (lambda dof: np.where(dof[:, 0] > 1.0, np.nan, 0.0), "not finite"),
    ],
    ids=["depth_cap", "panel_cap", "nan"],
)
@pytest.mark.parametrize("m", [2, 3])
def test_adaptive_raises_instead_of_unconverged_value(gfun, message, m):
    with pytest.raises(QuadratureError, match=message):
        adaptive_log_expectation(gfun, Torus(1, m), 1.0)


def test_gk21_rule_exactness():
    # Kronrod integrates degree 31 exactly, its embedded Gauss rule degree 19
    for deg in range(32):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert GK21_WEIGHTS[:, 0] @ GK21_NODES**deg == pytest.approx(exact, abs=1e-15)
        if deg < 20:
            assert GK21_WEIGHTS[:, 1] @ GK21_NODES**deg == pytest.approx(exact, abs=1e-15)
    x, w = np.polynomial.legendre.leggauss(10)
    gauss = GK21_WEIGHTS[:, 1] > 0
    np.testing.assert_allclose(GK21_NODES[gauss], x, atol=1e-15)
    np.testing.assert_allclose(GK21_WEIGHTS[gauss, 1], w, atol=1e-15)


def test_mayer_matches_conditioning_reference(conditioning_reference, scaled_b):
    ps, k = scaled_b
    t = Torus(1, 3)
    u = 0.3
    lo, hi, h = compact_anharmonicity(ps)

    def g_scalar(s):
        return float(h(s))

    ref = conditioning_reference(u, 3, g_scalar, [lo, hi])
    F = field_bond_map(t, 1.0)
    shifts = bond_args(t, np.zeros(t.volume), [u]).ravel()
    got, pruned = mayer_log_expectation(F, shifts, h, (lo, hi))
    assert got == pytest.approx(ref, abs=5e-12)
    assert pruned < 1e-12


def test_mayer_matches_adaptive(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    u = np.array([0.15])
    val_mayer, info = log_expectation(t, ps, u)
    assert info["method"] == "mayer"

    def gfun(dof_batch):
        return anharmonic_g(t, u, pinned(dof_batch), ps)

    val_ad, err = adaptive_log_expectation(gfun, t, 1.0)
    assert val_mayer == pytest.approx(val_ad, abs=5e-9)


def test_log_expectation_gaussian_exact(pot_gauss):
    for t in (Torus(1, 3), Torus(2, 2)):
        val, info = log_expectation(t, pot_gauss, np.zeros(t.d))
        assert val == 0.0 and info["method"] == "exact"


def test_log_expectation_dispatch_example_a():
    # moderate temperature: GH converges; tiny temperature: adaptive fallback
    pa = example_a(0.5)
    t = Torus(1, 3)
    ps, _ = scale_to_unit(pa, 0.3)
    _, info = log_expectation(t, ps, np.array([0.2]))
    assert info["method"] in ("gh", "adaptive")
    ps2, _ = scale_to_unit(pa, 1e-3)
    val, info2 = log_expectation(t, ps2, np.array([0.2]))
    assert info2["method"] == "adaptive"
    assert math.isfinite(val)


def test_log_expectation_raises_beyond_fallback():
    # n_dof = 3 excludes the adaptive fallback; a needle the GH grid cannot see
    # must raise rather than return an unconverged number
    pa = example_a(0.5)
    ps, _ = scale_to_unit(pa, 1e-3)
    t = Torus(1, 4)
    with pytest.raises(QuadratureError):
        log_expectation(t, ps, np.array([0.2]), order_cap=32)


def test_log_expectation_requires_unit_scale():
    pa = example_a(0.5)
    with pytest.raises(ValueError):
        log_expectation(Torus(1, 3), pa, np.array([0.0]))


def test_compact_anharmonicity_detection(pot_gauss, scaled_b):
    ps, k = scaled_b
    lo, hi, h = compact_anharmonicity(ps)
    assert lo == 0.0 and hi == pytest.approx(0.5 * k)
    assert compact_anharmonicity(scale_to_unit(example_a(0.5), 0.3)[0]) is None
    g = compact_anharmonicity(pot_gauss)
    assert g is not None and g[1] - g[0] == 0.0


def test_mayer_degenerate_subsets_handled(scaled_b):
    # on the two-site torus forward and backward gradients are exact negatives,
    # so pair subsets have singular covariance; the rank-reduced route must not
    # blow up and must agree with the adaptive backend
    ps, _ = scaled_b
    t = Torus(1, 2)
    u = np.array([0.2])
    val, info = log_expectation(t, ps, u)
    assert info["method"] == "mayer"

    def gfun(dof_batch):
        return anharmonic_g(t, u, pinned(dof_batch), ps)

    ref, _ = adaptive_log_expectation(gfun, t, 1.0)
    assert val == pytest.approx(ref, abs=1e-9)


def test_anharmonic_energy_batch_matches_scalar(scaled_b):
    ps, _ = scaled_b
    t = Torus(2, 2)
    rng = np.random.default_rng(0)
    batch = np.zeros((5, t.volume))
    batch[:, 1:] = rng.standard_normal((5, t.n_dof))
    u = np.array([0.1, -0.2])
    vals = anharmonic_g(t, u, batch, ps)
    assert vals.shape == (5,)
    for j in range(5):
        assert vals[j] == pytest.approx(float(anharmonic_g(t, u, batch[j], ps)), rel=1e-12)
    # per-row tilts u[rows, d] broadcast like bond_args
    tilts = rng.standard_normal((5, t.d))
    rows = anharmonic_g(t, tilts, batch, ps)
    for j in range(5):
        assert rows[j] == pytest.approx(float(anharmonic_g(t, tilts[j], batch[j], ps)), rel=1e-12)


def test_mode_basis_diagonalizes_pinned_form():
    t = Torus(2, 3)
    mb = ModeBasis.build(t)
    A = pinned_form(t)
    np.testing.assert_allclose(mb.Q @ np.diag(mb.lam) @ mb.Q.T, A, atol=1e-10)
