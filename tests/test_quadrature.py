import math

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

import gil.quadrature
from conftest import pinned_form
from gil.conditions import check_conditions, scale_to_unit
from gil.gff import fourier_modes
from gil.lattice import Torus, anharmonic_g, bond_args, pinned
from gil.oracle import hessian_fd
from gil.potentials import example_a, example_b, example_c, gaussian_potential, norms
from gil.quadrature import (
    COND_MIN_POINTS,
    COND_PANEL_STEPS,
    COND_WIDTH,
    EXACT_TOL,
    GH_PRUNE,
    GL_ORDER,
    ORACLE_MAX_DOF,
    SLAB_VALUES,
    Y_CLIP,
    QuadratureError,
    _at_zero,
    _compact_transform,
    _conditioning_grid,
    _gh_rule,
    _subset_geometry,
    compact_anharmonicity,
    conditioning_tilt_curvature,
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


@pytest.mark.parametrize("order", [16, 32, 64, 128])
def test_gh_rule_matches_scipy(order):
    # numpy's probabilists' Hermite rule against scipy's, on every weight the
    # tensor grid keeps
    x, w = _gh_rule(order)
    x_ref, w_ref = roots_hermitenorm(order)
    w_ref = w_ref / math.sqrt(2.0 * math.pi)
    keep = w_ref >= GH_PRUNE * w_ref.max()
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w[keep], w_ref[keep], rtol=1e-12, atol=0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-15)


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


def test_conditioning_matches_gh_on_smooth():
    # the quadratic G of _quadratic_gfun is g(s) = (eps/2) s^2 at the shift u on every bond
    t = Torus(1, 3)
    gh = gh_log_expectation(_quadratic_gfun(t, 0.25, np.array([0.3])), t, 1.0, order=32)
    val, _, info = conditioning_tilt_curvature(lambda s: 0.125 * s * s, np.full(3, 0.3))
    assert val == pytest.approx(gh, abs=1e-12)
    assert info["error"] < 1e-12


def _counted(g):
    calls = []

    def wrapped(s):
        calls.append(len(s))
        return g(s)

    return wrapped, calls


# At m = 2 the two bonds are u + w and u - w, so Mayer's pair term has rank 1 and
# integrates over the exact intersection of both supports: no C^2 support edge
# falls inside its Gauss-Legendre interval.  For u below the support's upper end
# 0.17 both bonds can sit in the support (u = 0.15); u = 0.2 leaves the pair term
# exactly zero.  Each case runs without g's support (g sampled on the grid) and
# with it (compact bonds transformed exactly).
@pytest.mark.parametrize("m,u", [(2, 0.15), (2, 0.2), (3, 0.15)])
def test_conditioning_matches_mayer_example_b(scaled_b, m, u):
    ps, _ = scaled_b
    t = Torus(1, m)
    tilt = np.array([u])
    val_mayer, info = log_expectation(t, ps, tilt)
    assert info["method"] == "mayer"
    lo, hi, h = compact_anharmonicity(ps)
    for support in (None, (lo, hi)):
        g, calls = _counted(h)
        val, _, info = conditioning_tilt_curvature(g, bond_args(t, np.zeros(t.volume), tilt), 1.0, support)
        assert val == pytest.approx(val_mayer, abs=1e-12)
        assert info["error"] < 1e-12
        # every bond has the tilt as its shift: one g call per grid size, on the
        # grid's points when sampled and on the panels' nodes when transformed exactly
        assert len(calls) == round(math.log2(info["points"] / COND_MIN_POINTS)) + 1 <= 11
        assert support is not None or calls[-1] == info["points"]


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_conditioning_matches_mayer_with_base_field(scaled_b, m, scale):
    # a nonzero base field gives every bond its own shift, so no transform is shared
    ps, _ = scaled_b
    t = Torus(1, m)
    tilt = np.array([0.12])
    psi = np.zeros(t.volume)
    psi[1:] = 0.05 * np.random.default_rng(m).standard_normal(t.n_dof)
    val_mayer, info = log_expectation(t, ps, tilt, scale, psi_values=psi)
    assert info["method"] == "mayer"
    lo, hi, h = compact_anharmonicity(ps)
    shifts = bond_args(t, psi, tilt).ravel()
    assert len(np.unique(shifts)) == m
    for support in (None, (lo, hi)):
        val, _, _ = conditioning_tilt_curvature(h, shifts, scale, support)
        assert val == pytest.approx(val_mayer, abs=1e-12)


@pytest.fixture(scope="module")
def example_b_frames(pot_b):
    # example_b(0.5) in the unit frame at 0.5x, 10x and 100x its d = 1 threshold
    beta = check_conditions(1.0, 1, pot_b, norms(pot_b)).beta_max_fcond
    return {f: scale_to_unit(pot_b, f * beta) for f in (0.5, 10.0, 100.0)}


@pytest.mark.parametrize("u", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [5, 8, 64])
@pytest.mark.parametrize("factor", [0.5, 10.0, 100.0])
def test_compact_route_matches_sampled_route_example_b(example_b_frames, factor, m, u):
    # the exact transforms of the compact bonds and the sampled grid converge to
    # the same log E and kappa; the sampled grid needs 2^15 to 2^19 points here,
    # the exact one stops at 2048 to 4096 wherever its product fits one slab.  At
    # 100x, m = 8, u = 0.3 the dent is 1.7 wide, 68 steps of the 2048-point
    # grid: one fixed 64-node panel does not resolve exp(-i w e) at Nyquist there
    ps, k = example_b_frames[factor]
    lo, hi, h = compact_anharmonicity(ps)
    shifts = np.full(m, k * u)
    log_e, kappa, info = conditioning_tilt_curvature(h, shifts, 1.0, (lo, hi))
    ref_log_e, ref_kappa, ref_info = conditioning_tilt_curvature(h, shifts)
    assert log_e == pytest.approx(ref_log_e, abs=1e-11)
    assert kappa == pytest.approx(ref_kappa, abs=1e-11)
    assert max(info["error"], info["curvature_error"]) < EXACT_TOL
    assert info["points"] <= 4096 < ref_info["points"]


def test_compact_transform_resolves_nyquist(example_b_frames):
    # the 1.7-wide dent at 100x on the m = 8, 2048-point grid: panels of at most
    # COND_PANEL_STEPS steps agree to rounding, at every rfft frequency up to
    # Nyquist, with 4x as many panels; panels 4x wider miss there by 1e-4
    ps, k = example_b_frames[100.0]
    lo, hi, h = compact_anharmonicity(ps)
    m, n, shift = 8, 2048, 0.3 * k
    step = COND_WIDTH * math.sqrt(max(m, 4)) / n
    w = 2.0 * math.pi * np.fft.rfftfreq(n, step)
    panels = math.ceil((hi - lo) / (COND_PANEL_STEPS * step))

    def transform(count):
        return _compact_transform(h, shift, (lo, hi), 1.0, w, count)

    got, ref = transform(panels), transform(4 * panels)
    assert np.max(np.abs(got - ref)) < 1e-15
    assert np.max(np.abs(transform(panels // 4) - ref)) > 1e-6
    # the rfft of the integrand's samples differs from the transform by O(step^4)
    e = step * ((np.arange(n) + n // 2) % n - n // 2)
    sampled = np.fft.rfft(step * np.exp(-0.5 * e * e) / math.sqrt(2.0 * math.pi) * np.expm1(-h(shift + e)))
    assert np.max(np.abs(sampled - ref)) > 1e-9


def test_compact_transform_slices_match_one_shot_product(example_b_frames):
    # the Nyquist test's grid: 1025 frequencies x 216 nodes span four slices of
    # SLAB_VALUES phase entries, the last one partial.  Each frequency is its own
    # row's dot products, but BLAS takes a slice's last rows by another kernel
    # path, so a few values move (2.6e-18 measured): within 1e-15 of sum |f|,
    # the rounding scale of every dot product
    ps, k = example_b_frames[100.0]
    lo, hi, h = compact_anharmonicity(ps)
    n, shift, scale, panels = 2048, 0.3 * k, 1.0, 9
    w = 2.0 * math.pi * np.fft.rfftfreq(n, COND_WIDTH * math.sqrt(8.0) / n)
    x, wt = np.polynomial.legendre.leggauss(GL_ORDER)
    a = max(lo - shift, -Y_CLIP * math.sqrt(scale))
    width = (min(hi - shift, Y_CLIP * math.sqrt(scale)) - a) / panels
    e = (a + width * (np.arange(panels)[:, None] + 0.5 * (x + 1.0))).ravel()
    f = np.tile(0.5 * width * wt, panels) * np.exp(-0.5 * e * e / scale) * np.expm1(-h(shift + e))
    phase = np.multiply.outer(w, e)
    assert phase.size > 3 * SLAB_VALUES and len(w) % (SLAB_VALUES // len(e))
    ref = (np.cos(phase) @ f - 1j * (np.sin(phase) @ f)) / math.sqrt(2.0 * math.pi * scale)
    got = _compact_transform(h, shift, (lo, hi), scale, w, panels)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.abs(f).sum() / math.sqrt(2.0 * math.pi * scale)


def test_conditioning_refuses_to_stop_above_its_rounding_floor():
    # at 100x the d = 1 threshold of example_c the excess cancels K_G to about
    # 1e-10: the 1024- and 2048-point grids agree below EXACT_TOL, but the rounding
    # floor of log E is far above it, so the doubling goes on and raises instead of
    # returning log E with an error of 1.3e-10
    p = example_c(0.05, 2.0, 1.0)
    ps, k = scale_to_unit(p, 100.0 * check_conditions(1.0, 1, p, norms(p)).beta_max_fcond)
    t, scale = Torus(1, 8), 0.4
    psi = np.zeros(t.volume)
    psi[1:] = 0.05 * np.random.default_rng(0).standard_normal(t.n_dof)
    shifts, counts = np.unique(bond_args(t, psi, [k]).ravel(), return_counts=True)
    (rho0, round0), _, _ = _conditioning_grid(ps.g, shifts, counts, scale, 2048)
    assert round0 / (1.0 + rho0) > 100.0 * EXACT_TOL
    with pytest.raises(QuadratureError, match="no convergence"):
        log_expectation(t, ps, np.array([k]), scale, psi_values=psi)


def test_conditioning_matches_reference_example_a(conditioning_reference):
    # in-hypothesis temperature: g is a needle of width ~ 0.03 that GH cannot resolve
    ps, k = scale_to_unit(example_a(0.5), 1e-3)
    t = Torus(1, 3)
    u = np.array([0.5 * k])
    ref = conditioning_reference(lambda e: ps.v(u[0] + e) - 0.5 * (u[0] + e) ** 2, 3)
    val, info = log_expectation(t, ps, u)
    assert info["method"] == "conditioning"
    assert val == pytest.approx(ref, abs=1e-11)


def test_conditioning_curvature_in_hypothesis_example_a():
    # f''(u)/m at example (a), beta = 8e-4, u = 0.5, from h = 1e-2 Richardson
    # differences of f(u) - f(0) = m c1 u^2 / 2 - log E(k u) / beta
    pa, beta = example_a(0.5), 8.0e-4
    ps, k = scale_to_unit(pa, beta)
    curvatures = []
    for m, expected in ((4, 1.99590), (16, 1.99670), (64, 1.99686)):
        t = Torus(1, m)

        def f(u):
            val, info = log_expectation(t, ps, k * u)
            assert info["method"] == "conditioning"
            return 0.5 * m * pa.c1 * float(u @ u) - val / beta

        curvatures.append(hessian_fd(f, [0.5], h=1e-2)[0, 0] / m)
        assert curvatures[-1] == pytest.approx(expected, abs=2e-5)
    # the finite-m curvature rises toward its m -> infinity limit 1.99690
    assert curvatures[0] < curvatures[1] < curvatures[2] < 1.99690


@pytest.mark.parametrize("nyquist", [True, False])
@pytest.mark.parametrize("n", [2**10, 2**11, 2**12, 2**13, 2**14])
def test_at_zero_sum_is_the_inverse_transform_at_zero(n, nyquist):
    # one sum over the half spectrum replaces irfft(X, n)[0], to a few ulps of sum|X| / n
    rng = np.random.default_rng(n + nyquist)
    X = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    if not nyquist:
        X[-1] = 0.0
    val, rounding = _at_zero(X, n)
    size = np.abs(X).sum() / n
    assert abs(val - np.fft.irfft(X, n)[0]) <= 4.0 * np.finfo(float).eps * size
    # the rounding scale is that of the sum of Re X_k, which the imaginary parts do not enter
    assert 0.0 < rounding <= 2.0 * np.finfo(float).eps * np.abs(X.real).sum() / n


@pytest.mark.parametrize(
    "g,message",
    [
        # a jump: the trapezoid sums converge only as O(h), never to tol
        (lambda s: np.where(s > 0.1234567, 5.0, 0.0), "no convergence"),
        # noise: successive grids never agree
        (lambda s: 1e-3 * np.random.default_rng(len(s)).standard_normal(len(s)), "no convergence"),
        (lambda s: np.where(s > 1.0, np.nan, 0.0), "not finite"),
        # log E = -50 m, but the excess over the Gaussian cancels it to rounding
        (lambda s: np.full_like(s, 50.0), "not finite and positive"),
    ],
    ids=["jump", "noise", "nan", "vanishing"],
)
@pytest.mark.parametrize("m", [2, 3])
def test_conditioning_raises_instead_of_unconverged_value(g, message, m):
    with pytest.raises(QuadratureError, match=message):
        conditioning_tilt_curvature(g, np.zeros(m))


@pytest.mark.parametrize("m", [3, 4])
def test_conditioning_stops_where_log_e_alone_converges(m):
    # the benchmark's d = 1 free energies: the doubling that also waits for kappa
    # stops on the first grid where log E alone moves by less than EXACT_TOL, so a
    # caller that needs only log E pays for no extra grid
    ps, k = scale_to_unit(example_a(0.5), 8.031904623282352e-4)
    t = Torus(1, m)
    val, info = log_expectation(t, ps, np.array([0.5 * k]))
    assert info["method"] == "conditioning"
    shifts, counts = np.unique(bond_args(t, np.zeros(t.volume), [0.5 * k]), return_counts=True)
    n, prev = COND_MIN_POINTS, None
    while True:
        cur = math.log1p(_conditioning_grid(ps.g, shifts, counts, 1.0, n)[0][0])
        if prev is not None and abs(cur - prev) < EXACT_TOL:
            break
        prev, n = cur, 2 * n
    assert info["points"] == n == 8192
    assert val == cur


def test_conditioning_log_e_error_floors_at_rounding():
    # at 100x the threshold log E agrees on successive grids to the last bit; the
    # error is the rounding scale of the at-zero sums carried through log1p, not 0
    p, m, u = example_a(0.5), 8, 0.3
    ps, k = scale_to_unit(p, 100.0 * check_conditions(1.0, 1, p, norms(p)).beta_max_fcond)
    t = Torus(1, m)
    val, info = log_expectation(t, ps, np.array([k * u]))
    assert info["method"] == "conditioning" and val != 0.0
    assert 0.0 < info["error"] < 1e-14
    log_e, _, cinfo = conditioning_tilt_curvature(ps.g, np.full(m, k * u))
    assert (val, info["error"], info["points"]) == (log_e, cinfo["error"], cinfo["points"])


@pytest.mark.parametrize("scale", [1.0, 0.4])
def test_tilt_curvature_of_quadratic_g(scale):
    # for g = eps s^2 / 2 and sum(e) = 0, sum_b g(s_b + t + e_b) is its t = 0 value
    # plus eps t sum(s) + m eps t^2 / 2, so (log E)'' = -m eps and kappa = 1/scale + eps
    eps = 0.125
    _, kappa, info = conditioning_tilt_curvature(lambda s: 0.5 * eps * s * s, np.array([0.3, -0.1, 0.2]), scale)
    assert kappa == pytest.approx(1.0 / scale + eps, abs=1e-12)
    assert info["curvature_error"] < 1e-12


def test_mayer_matches_conditioning_reference(conditioning_reference, scaled_b):
    ps, k = scaled_b
    t = Torus(1, 3)
    u = 0.3
    lo, hi, h = compact_anharmonicity(ps)
    ref = conditioning_reference(lambda e: h(u + e), 3, [lo - u, hi - u])
    F = field_bond_map(t, 1.0)
    shifts = bond_args(t, np.zeros((1, t.volume)), [u]).reshape(1, -1)
    got, pruned = mayer_log_expectation(F, shifts, h, (lo, hi))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(ref, abs=5e-12)
    assert pruned < 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_mayer_largest_grid_matches_conditioning_reference(conditioning_reference, pot_b, scale):
    # m = 6 has 5 free coordinates, the most Mayer takes: its 5-bond and 6-bond
    # subsets have rank 5 and use the largest (GL_ORDER^5) grid.  At beta = 1 no
    # subset is pruned, so those are integrated too.  The reference takes N(0, 1)
    # gradients, so the scale goes into g and its kinks.
    ps, _ = scale_to_unit(pot_b, 1.0)
    t = Torus(1, 6)
    assert t.n_dof == ORACLE_MAX_DOF
    u, q = 0.15, math.sqrt(scale)
    lo, hi, h = compact_anharmonicity(ps)
    ref = conditioning_reference(lambda e: h(u + q * e), 6, [(lo - u) / q, (hi - u) / q])
    val, info = log_expectation(t, ps, np.array([u]), scale)
    assert info["method"] == "mayer" and info["error"] == 0.0
    assert val == pytest.approx(ref, abs=5e-12)


def test_mayer_batch_equals_rows(scaled_b):
    # at m = 5 a rank-3 subset's grid slab holds SLAB_VALUES // GL_ORDER^3 = 4
    # rows and a rank-4 subset's row, GL_ORDER^4 points, is summed in slabs of 4
    # axis-0 nodes, so 7 base fields span two slabs at rank 3 and 42 at rank 4;
    # each row's value must not depend on the batch it came in
    ps, _ = scaled_b
    t = Torus(1, 5)
    assert SLAB_VALUES // GL_ORDER**3 == 4 and SLAB_VALUES < GL_ORDER**4
    psi = np.zeros((7, t.volume))
    psi[:, 1:] = 0.1 * np.random.default_rng(5).standard_normal((7, t.n_dof))
    tilt = np.array([0.12])
    batch, info = log_expectation(t, ps, tilt, 0.4, psi_values=psi)
    assert info["method"] == "mayer" and batch.shape == (7,)
    rows = [log_expectation(t, ps, tilt, 0.4, psi_values=row)[0] for row in psi]
    assert all(isinstance(v, float) for v in rows)
    np.testing.assert_allclose(batch, rows, rtol=0.0, atol=1e-15)
    # batches that mix rows a subset skips (an empty box, or a dependent bond that
    # misses the support) with rows it integrates: the integrated rows do not
    # depend on their batch either, bitwise.  On Torus(1, 3) the three-bond
    # subset's arguments sum to 3u, so below u = hi the base fields that narrow
    # the boxes skip some rows, and above it every row
    lo, hi, h = compact_anharmonicity(ps)
    rng = np.random.default_rng(6)
    for t, tilts in ((Torus(1, 3), (0.9 * hi, 1.1 * hi)), (Torus(2, 2), (0.9 * hi,))):
        F = field_bond_map(t, 0.05)
        psi = pinned(np.geomspace(0.02, 2.0, 9)[:, None] * rng.standard_normal((9, t.n_dof)))
        for u in tilts:
            shifts = bond_args(t, psi, np.full(t.d, u)).reshape(len(psi), -1)
            grids = []

            def counting(s):
                if np.ndim(s) == 3 and np.shape(s)[1:] == (GL_ORDER, GL_ORDER):
                    grids.append(len(s))
                return h(s)

            batch, _ = mayer_log_expectation(F, shifts, counting, (lo, hi))
            rows = [mayer_log_expectation(F, row[None], h, (lo, hi))[0][0] for row in shifts]
            np.testing.assert_array_equal(batch, rows)
            if t.d == 1:  # the only full-grid call is the three-bond subset's, on its kept rows
                assert len(grids) == (u < hi) and all(0 < kept < len(psi) for kept in grids)


def test_mayer_builds_each_subset_geometry_once_per_map(scaled_b, monkeypatch):
    # a subset's geometry depends on F alone: a second call with the same F and
    # other base fields builds none, bitwise as the first, and a new F builds its own
    ps, _ = scaled_b
    lo, hi, h = compact_anharmonicity(ps)
    t = Torus(2, 2)
    psi = pinned(0.3 * np.random.default_rng(4).standard_normal((2, 2, t.n_dof)))
    shifts = bond_args(t, psi, [0.1, 0.2]).reshape(2, 2, -1)
    built, original = [], gil.quadrature._bond_coordinates

    def counting(F, S):
        built.append(tuple(S))
        return original(F, S)

    monkeypatch.setattr(gil.quadrature, "_bond_coordinates", counting)
    _subset_geometry.cache_clear()
    try:
        F = field_bond_map(t, 0.4)
        first = mayer_log_expectation(F, shifts[0], h, (lo, hi))[0]
        n_subsets = len(built)
        assert n_subsets > 100 and len(set(built)) == n_subsets
        mayer_log_expectation(F.copy(), shifts[1], h, (lo, hi))
        assert len(built) == n_subsets
        np.testing.assert_array_equal(mayer_log_expectation(F, shifts[0], h, (lo, hi))[0], first)
        mayer_log_expectation(field_bond_map(t, 0.3), shifts[0], h, (lo, hi))
        assert len(built) > n_subsets
    finally:
        _subset_geometry.cache_clear()


def test_mayer_skips_rows_a_dependent_bond_proves_zero(scaled_b):
    # on Torus(1, 3) the bond gradients sum to 0, so at tilt 0.3 the three-bond
    # subset's arguments sum to 0.9 > 3 hi: its dependent bond misses the support
    # on every row, the subset is 0, and h never sees its (rows, 24, 24) grid
    ps, _ = scaled_b
    lo, hi, h = compact_anharmonicity(ps)
    assert 0.9 > 3.0 * hi
    t = Torus(1, 3)
    psi = pinned(0.5 * np.random.default_rng(3).standard_normal((5, t.n_dof)))
    shifts = bond_args(t, psi, [0.3]).reshape(len(psi), -1)
    shapes = []

    def counting(s):
        shapes.append(np.shape(s))
        return h(s)

    vals, pruned = mayer_log_expectation(field_bond_map(t, 5.0 / 12.0), shifts, counting, (lo, hi))
    assert pruned < EXACT_TOL and np.all(vals != 0.0)
    assert (len(psi), 2, GL_ORDER) in shapes  # the pair subsets, on their node lines
    assert not any(len(s) == 3 and s[1:] == (GL_ORDER, GL_ORDER) for s in shapes)


def test_mayer_matches_conditioning(scaled_b):
    ps, _ = scaled_b
    t = Torus(1, 3)
    u = np.array([0.15])
    val_mayer, info = log_expectation(t, ps, u)
    assert info["method"] == "mayer"
    _lo, _hi, h = compact_anharmonicity(ps)
    val, _, _ = conditioning_tilt_curvature(h, bond_args(t, np.zeros(t.volume), u))
    assert val_mayer == pytest.approx(val, abs=5e-9)


def test_log_expectation_gaussian_exact(pot_gauss):
    for t in (Torus(1, 3), Torus(2, 2)):
        val, info = log_expectation(t, pot_gauss, np.zeros(t.d))
        assert val == 0.0 and info["method"] == "exact"


def test_log_expectation_dispatch_example_a():
    # the route follows from the input alone: d = 1 is the conditioning route at
    # any temperature, d = 2 is GH
    pa = example_a(0.5)
    for beta in (0.3, 1e-3):
        ps, _ = scale_to_unit(pa, beta)
        val, info = log_expectation(Torus(1, 3), ps, np.array([0.2]))
        assert info["method"] == "conditioning"
        assert math.isfinite(val)
    ps, _ = scale_to_unit(pa, 0.3)
    _, info = log_expectation(Torus(2, 2), ps, np.array([0.2, 0.1]))
    assert info["method"] == "gh"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_log_expectation_dispatch_example_b_mayer_reach(scaled_b, m):
    # compact anharmonicity goes to Mayer up to ORACLE_MAX_DOF free coordinates
    ps, _ = scaled_b
    assert Torus(1, m).n_dof <= ORACLE_MAX_DOF
    _, info = log_expectation(Torus(1, m), ps, np.array([0.15]))
    assert info["method"] == "mayer"


@pytest.mark.parametrize("m", [8, 16])
def test_log_expectation_dispatch_example_b_beyond_mayer(conditioning_reference, scaled_b, m):
    # past Mayer's reach d = 1 is conditioned, to the reference's precision
    ps, _ = scaled_b
    u = 0.15
    val, info = log_expectation(Torus(1, m), ps, np.array([u]))
    assert info["method"] == "conditioning"
    lo, hi, h = compact_anharmonicity(ps)
    assert val == pytest.approx(conditioning_reference(lambda e: h(u + e), m, [lo - u, hi - u]), abs=1e-12)


def test_log_expectation_raises_beyond_fallback():
    # d = 2 has no route but GH; a needle its grid cannot see must raise rather
    # than return an unconverged number
    pa = example_a(0.5)
    ps, _ = scale_to_unit(pa, 1e-3)
    t = Torus(2, 2)
    with pytest.raises(QuadratureError):
        log_expectation(t, ps, np.array([0.2, 0.1]))


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
    # blow up and must agree with the conditioning route
    ps, _ = scaled_b
    t = Torus(1, 2)
    u = np.array([0.2])
    val, info = log_expectation(t, ps, u)
    assert info["method"] == "mayer"
    _lo, _hi, h = compact_anharmonicity(ps)
    ref, _, _ = conditioning_tilt_curvature(h, bond_args(t, np.zeros(t.volume), u))
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
    # the amplitudes' map to dof vectors, dof = S w - (S w)(0), takes the pinned form to diag(lam)
    t = Torus(2, 3)
    lam, S = fourier_modes(t)
    M = S[1:] - S[0]
    np.testing.assert_allclose(M.T @ pinned_form(t) @ M, np.diag(lam), rtol=0, atol=1e-13)


# log_expectation on batches of three base fields, computed in the dense pinned
# eigenbasis that the Fourier modes replaced: GH may move within GH_TOL (a
# degenerate eigenspace's basis changes its nodes), Mayer only at rounding
BASE_22 = [
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -0.15812051543462802, 0.10556595400629183, 0.2428513075182271],
    [0.0, -0.388863919890881, 0.3070657012559569, 0.10202324870973584],
]
BASE_15 = [
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.31319194825203606, 0.10896729362894707, 0.46480325021222707, -0.37510255150674876],
    [0.0, 0.7104398935270972, 0.480955937654115, -0.2399831393828006, 0.2640665252241425],
]
DENSE_BASIS_ROWS = [
    # (family, beta or None for half the d-dimensional threshold, d, m, tilt on every axis or per axis, scale, values)
    ("a", 1.0, 2, 2, (0.3, -0.2), 1.0, [-5.800915167531787, -5.425671329715149, -4.869022855590397]),
    ("a", 1.0, 2, 2, (0.3, -0.2), 0.4, [-7.586503766064392, -7.231421988050219, -6.705520176942339]),
    ("c", None, 2, 2, (0.3, -0.2), 1.0, [-0.03369277536244031, -0.03574549179949571, -0.038641541246195565]),
    ("c", None, 2, 2, (0.3, -0.2), 0.4, [-0.020786541071570852, -0.024852873896892724, -0.03050096883360265]),
    ("b", None, 1, 5, (0.15,), 1.0, [0.0003153170713582938, 0.0002780436089463869, 0.00026675183814558144]),
    ("b", None, 1, 5, (0.15,), 0.4, [0.0004976351180174267, 0.0003779177017560207, 0.00033683860805804354]),
    ("b", None, 2, 2, (0.15, 0.15), 1.0, [0.0002604405948663118, 0.00024320869321923618, 0.0002195156322175051]),
    ("b", None, 2, 2, (0.15, 0.15), 0.4, [0.0004109787108804314, 0.0003504611417295577, 0.000273113731667864]),
]


@pytest.mark.parametrize("family,beta,d,m,u,scale,expected", DENSE_BASIS_ROWS)
def test_rows_match_the_dense_eigenbasis_values(family, beta, d, m, u, scale, expected):
    p = {"a": example_a(0.5), "b": example_b(0.5), "c": example_c(0.05, 2.0, 1.0)}[family]
    if beta is None:
        beta = check_conditions(1.0, d, p, norms(p)).beta_max_fcond / 2.0
    ps, k = scale_to_unit(p, beta)
    base = np.array(BASE_22 if d == 2 else BASE_15)
    vals, info = log_expectation(Torus(d, m), ps, k * np.array(u), scale, psi_values=base)
    assert info["method"] == ("mayer" if family == "b" else "gh")
    np.testing.assert_allclose(vals, expected, rtol=0, atol=gil.quadrature.GH_TOL if info["method"] == "gh" else 1e-12)


def test_mayer_rank5_grid_stays_in_slabs():
    # a single-row Mayer call on Torus(1, 6) integrates rank-5 subsets, whose
    # GL_ORDER^4 points per axis-0 node took 12.8 MiB of heap in one slab; runs
    # of axis-1 nodes keep each slab near SLAB_VALUES points (a first call fills
    # the rule cache)
    import tracemalloc

    ps, _ = scale_to_unit(example_b(0.5), 1.0)
    log_expectation(Torus(1, 3), ps, np.array([0.15]))
    tracemalloc.start()
    try:
        value, info = log_expectation(Torus(1, 6), ps, np.array([0.15]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["method"] == "mayer" and math.isfinite(value)
    assert peak < 4 * 2**20
