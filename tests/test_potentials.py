import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.integrate import quad

from gil.conditions import check_conditions, scale_to_unit
from gil.potentials import (
    PANEL_CAP,
    InvalidPotentialError,
    Potential,
    example_a,
    example_b,
    example_c,
    gaussian_potential,
    norm,
    norms,
)

FAMILIES = {
    "gaussian": gaussian_potential,
    "example_a": lambda: example_a(0.5),
    "example_b": lambda: example_b(0.5),
    "example_c": lambda: example_c(0.05, 2.0, 1.0),
}


def test_eval_gaussian_curvature_is_one(pot_gauss):
    assert pot_gauss.d2v(3.7) == 1.0


def test_eval_example_a_closed_form_at_zero(pot_a):
    # V(0) = a - log(a) for V(s) = s^2 + a - log(s^2 + a)
    a = 0.5
    assert pot_a.v(0.0) == pytest.approx(a - math.log(a), abs=1e-14)


def test_eval_example_a_curvature_tends_to_two(pot_a):
    assert pot_a.d2v(1e4) == pytest.approx(2.0, abs=1e-6)
    assert pot_a.d2v(3.0) == pytest.approx(2.0 + float(pot_a.d2g0(3.0)), abs=1e-12)


@pytest.mark.parametrize(
    "family,expected",
    [
        ("gaussian", (0.0, 1.0, 1.0)),
        ("example_a", (4.0, 2.0, 2.0)),
        ("example_b", (1.2, 1.0, 1.0)),
    ],
)
def test_constants_builtin(family, expected):
    p = FAMILIES[family]()
    assert (p.c0, p.c1, p.c2) == pytest.approx(expected)


def test_constants_example_c():
    p, k1, k2 = 0.05, 2.0, 1.0
    pot = example_c(p, k1, k2)
    c0, c1, c2 = pot.c0, pot.c1, pot.c2
    assert c1 == k2
    assert c2 == pytest.approx(p * k1 + (1 - p) * k2)
    assert c0 == pytest.approx(p * (k1 - k2) / (1 - p))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_norms_example_a_concave_mass(a):
    nr = norms(example_a(a), 1e-10)
    assert nr.l1_g0pp == pytest.approx(2.0 / math.sqrt(a), rel=1e-6)
    assert nr.l1_g0pp_abs == pytest.approx(4.0 / math.sqrt(a), rel=1e-6)
    assert nr.l2_g0p == pytest.approx(math.sqrt(2.0 * math.pi / math.sqrt(a)), rel=1e-8)
    assert nr.l1_g0 == math.inf and "l1_g0" in nr.divergent


def test_norms_gaussian_all_zero(pot_gauss):
    nr = norms(pot_gauss, 1e-10)
    assert (nr.l1_g0pp, nr.l2_g0p, nr.l1_g0, nr.l1_g0pp_abs) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
def test_norms_example_b_closed_forms(delta):
    nr = norms(example_b(delta), 1e-10)
    r5 = math.sqrt(5.0)
    assert nr.l1_g0pp == pytest.approx(24.0 * delta / (25.0 * r5), rel=1e-8)
    assert nr.l1_g0pp_abs == pytest.approx(48.0 * delta / (25.0 * r5), rel=1e-8)
    assert nr.l2_g0p == pytest.approx(math.sqrt(24.0 * delta**3 / 1155.0), rel=1e-8)
    assert nr.l1_g0 == pytest.approx(delta**3 / 35.0, rel=1e-8)


def test_norms_example_c_within_closed_bound(pot_c):
    p, k1, k2 = 0.05, 2.0, 1.0
    nr = norms(pot_c, 1e-10)
    assert nr.l1_g0pp == nr.l1_g0pp_abs  # g0'' <= 0 everywhere for this family
    assert nr.l1_g0pp <= 2 * p / (1 - p) * math.sqrt((k1 - k2) * math.pi)
    assert nr.l2_g0p == math.inf and nr.l1_g0 == math.inf


@pytest.mark.parametrize("k1", [1000.0, 1e4, 1e7, 1e8, 1e10])
def test_norms_example_c_stiff_matches_trapezoid(k1):
    # -g0'' is a bump of width ~ 1/sqrt(k1) at the origin; the dense trapezoid
    # over +-40/sqrt(k1) converges spectrally on it.  From k1 ~ 1e7 the bump falls
    # between the nodes of panels that do not start on its scale, and at 1e8 a
    # ladder of breakpoints out to only 4/sqrt(k1) is still 0.19% off
    p = example_c(0.5, k1, 1.0)
    half = 40.0 / math.sqrt(k1 - 1.0)
    s = np.linspace(-half, half, 400_001)
    ref = np.trapezoid(-p.d2g0(s), s)
    assert norms(p).l1_g0pp == pytest.approx(ref, rel=1e-8)


def test_check_conditions_example_c_stiff_thresholds_finite():
    p = example_c(0.5, 1000.0, 1.0)
    rep = check_conditions(1e-3, 2, p, norms(p))
    assert 0.0 < rep.lhs_fcond < math.inf
    assert 0.0 < rep.beta_max_fcond < math.inf


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_norms_report_is_its_norms(family):
    # the full report is the four single norms, bit for bit, and its error the
    # largest of their error bounds
    p = FAMILIES[family]()
    nr = norms(p, 1e-9)
    found = {name: norm(p, name, 1e-9) for name in ("l1_g0pp", "l1_g0pp_abs", "l2_g0p", "l1_g0")}
    assert {name: getattr(nr, name) for name in found} == {name: v for name, (v, _) in found.items()}
    assert nr.quadrature_error == max(e for _, e in found.values())
    assert nr.divergent == tuple(name for name, (v, e) in found.items() if v == math.inf and e == 0.0)


def test_divergent_norms_are_logged(caplog):
    # no norm is declared divergent silently: the log names the norm and why
    with caplog.at_level("INFO", logger="gil.potentials"):
        assert norm(example_a(0.5), "l1_g0") == (math.inf, 0.0)
        assert norm(example_c(0.05, 2.0, 1.0), "l2_g0p") == (math.inf, 0.0)
        assert norm(example_a(0.5), "l2_g0p")[0] < math.inf
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "norm l1_g0 of example_a is divergent: no g0 stored",
        "norm l2_g0p of example_c is divergent: no dg0 stored",
    ]


def test_norms_non_integrable_is_divergent(caplog):
    # g0'' = -1/|s| is not integrable at 0: the panel rule bisects towards the
    # singularity until PANEL_CAP and reports the norm divergent.  The cap stops
    # the bisection long before 1/|s| overflows.
    points = []

    def d2g0(s):
        points.append(np.size(s))
        return -1.0 / np.abs(s)

    p = Potential(family="singular", vfun=(None, None, None), d2g0=d2g0, c0=1.0, c1=1.0, c2=1.0)
    with np.errstate(divide="raise", over="raise"), caplog.at_level("INFO", logger="gil.potentials"):
        nr = norms(p)
    assert nr.l1_g0pp == math.inf and nr.l1_g0pp_abs == math.inf
    assert sum(f"more than {PANEL_CAP} panels" in r.getMessage() for r in caplog.records) == 2
    assert {"l1_g0pp", "l1_g0pp_abs"} <= set(nr.divergent)
    # two norms read g0'', each stopped in its first segment: at most
    # PANEL_CAP panels of 20 + 10 nodes apiece
    assert sum(points) <= 2 * PANEL_CAP * 30


def _quad_reference(f, edges):
    # QUADPACK between consecutive breakpoints of a compactly supported integrand
    edges = sorted(edges)
    return sum(quad(lambda s: float(f(s)), a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("beta", [8e-4, 0.058, 0.116])
@pytest.mark.parametrize("family", ["example_a", "example_b"])
def test_norms_scaled_copies_match_quad(family, beta):
    # the unit-frame copies the oracle and the thresholds use; every norm with
    # compact support is compared (example_a's concave part lives between its
    # breakpoints, example_b's g0 between its outer ones)
    ps, _ = scale_to_unit(FAMILIES[family](), beta)
    nr = norms(ps, 1e-10)
    pts = ps.g0pp_breakpoints
    assert nr.l1_g0pp == pytest.approx(_quad_reference(lambda s: max(-ps.d2g0(s), 0.0), pts), rel=1e-12)
    if family == "example_b":
        assert nr.l1_g0pp_abs == pytest.approx(_quad_reference(lambda s: abs(ps.d2g0(s)), pts), rel=1e-12)
        assert nr.l2_g0p**2 == pytest.approx(_quad_reference(lambda s: ps.dg0(s) ** 2, pts), rel=1e-12)
        assert nr.l1_g0 == pytest.approx(_quad_reference(lambda s: abs(ps.g0(s)), pts), rel=1e-12)


def test_remark_inequality_when_finite(pot_b):
    # int (g0')^2 = -int g0 g0'' <= c0 ||g0||_L1 whenever all three are finite
    nr = norms(pot_b, 1e-10)
    assert nr.l2_g0p**2 <= pot_b.c0 * nr.l1_g0 + 1e-12


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_curvature_grid_certificate(family):
    # V0'' = V'' - g0'' and g0'' on a dense grid plus the breakpoints certify
    # the declared constants, with a small relative slack for roundoff
    p = FAMILIES[family]()
    s = np.sort(np.concatenate([np.linspace(-50.0, 50.0, 10_001), np.asarray(p.g0pp_breakpoints, dtype=float)]))
    g0pp = np.asarray(p.d2g0(s), dtype=float)
    v0pp = np.asarray(p.d2v(s), dtype=float) - g0pp
    tol = 1e-9 * max(1.0, abs(p.c2), abs(p.c0))
    excess = float(max(g0pp.max(), 0.0))
    assert v0pp.min() >= p.c1 - tol and v0pp.max() <= p.c2 + tol, f"{family}: V0'' outside [c1, c2]"
    assert g0pp.min() >= -p.c0 - tol, f"{family}: g0'' below -c0"
    if family in ("gaussian", "example_c"):
        assert g0pp.max() <= tol
    else:
        # the log and bump families carry a convex excess in g0''; for
        # example_a it is absorbable into the quadratic part without moving
        # the composite constant max(c0/c1, c2/c1 - 1, 1)
        assert not g0pp.max() <= tol
        if family == "example_a":
            cbar_decl = max(p.c0 / p.c1, p.c2 / p.c1 - 1.0, 1.0)
            assert max(p.c0 / p.c1, (p.c2 + excess) / p.c1 - 1.0, 1.0) <= cbar_decl * (1.0 + 1e-12)
            assert excess == pytest.approx(1.0 / (4 * 0.5), rel=1e-3)
        else:
            assert excess == pytest.approx(1.5, rel=1e-3)


FD_POINTS = [
    ("gaussian", [0.0, 1.3, -2.2]),
    ("example_a", [0.0, 0.4, -1.5, 3.0]),
    ("example_b", [0.1, 0.25, 0.49, 0.7, -0.3]),
    ("example_c", [0.0, 0.8, -1.7, 4.0]),
]


def _check_derivatives_by_finite_differences(p, s_values, h):
    for s in s_values:
        d1 = (p.v(s + h) - p.v(s - h)) / (2 * h)
        d2 = (p.v(s + h) - 2 * p.v(s) + p.v(s - h)) / h**2
        scale1 = max(1.0, abs(p.dv(s)))
        scale2 = max(1.0, abs(p.d2v(s)))
        assert abs(d1 - p.dv(s)) / scale1 < 1e-6
        assert abs(d2 - p.d2v(s)) / scale2 < 1e-6


@pytest.mark.parametrize("family,s_values", FD_POINTS)
def test_finite_difference_derivative_consistency(family, s_values):
    # dv is the V' half of the fused (V, V') pass
    _check_derivatives_by_finite_differences(FAMILIES[family](), s_values, 1e-4)


@pytest.mark.parametrize("family,s_values", FD_POINTS)
def test_finite_difference_derivative_consistency_scaled(family, s_values):
    # the unit-frame copy's fused pass; its points and step are the family's times k
    p, k = scale_to_unit(FAMILIES[family](), 0.058)
    _check_derivatives_by_finite_differences(p, k * np.asarray(s_values), 1e-4 * k)


@given(s=st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_example_b_derivative_property(s):
    p = example_b(0.5)
    h = 1e-5
    fd = (float(p.v(s + h)) - float(p.v(s - h))) / (2 * h)
    assert fd == pytest.approx(float(p.dv(s)), rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("delta", [0.5, 0.3])
def test_example_b_g0_matches_closed_form_polynomial(delta):
    # g0 and g0' multiply the clipped r = max(s (delta - s), 0), and g0'' the
    # clipped 6 s (delta - s), instead of taking float powers under a mask
    p = example_b(delta)
    c = 4.0 / delta**4
    s_lo, s_hi = p.g0pp_breakpoints[1:3]
    s = np.concatenate([np.linspace(-0.2, delta + 0.2, 2001), [0.0, s_lo, s_hi, delta, delta / 2.0, -1e-300, 1e6]])
    inside = (s >= 0.0) & (s <= delta)
    g0 = np.where(inside, -c * s**3 * (delta - s) ** 3, 0.0)
    dg0 = np.where(inside, -3.0 * c * s**2 * (delta - s) ** 2 * (delta - 2.0 * s), 0.0)
    # the quadratic factor cancels at its roots s_lo and s_hi, so it is written as gil evaluates it
    quad = 5.0 * s * s - 5.0 * delta * s + delta * delta
    d2g0 = np.where(inside, -6.0 * c * s * (delta - s) * quad, 0.0)
    np.testing.assert_allclose(p.g0(s), g0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(p.dg0(s), dg0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(p.d2g0(s), d2g0, rtol=1e-15, atol=0.0)
    # the fused pass adds its own g0 and g0' to the quadratic part, grouped
    # as -c r^2 r and -3c r^2 ((delta - s) - s): within 4 eps of the terms (a
    # relative tolerance on the sum would not hold where s^2/2 and g0 cancel)
    v, dv = p.v_dv(s)
    eps = np.finfo(float).eps
    assert np.all(np.abs(v - (s**2 / 2.0 + p.g0(s))) <= 4.0 * eps * (s * s / 2.0 + np.abs(v)))
    assert np.all(np.abs(dv - (s + p.dg0(s))) <= 4.0 * eps * (np.abs(s) + np.abs(dv)))
    assert p.g0(0.0) == 0.0 and p.g0(delta) == 0.0


def _dv_unfused_formula(family, s):
    """V' computed on its own: example_b's g0' under a mask, example_c's weight w1 from e^{+z}."""
    if family == "gaussian":
        return np.array(s, dtype=float)
    if family == "example_a":
        return 2.0 * s + -2.0 * s / (s * s + 0.5)
    if family == "example_b":
        delta, c = 0.5, 4.0 / 0.5**4
        r = s * (delta - s)
        return s + np.where((s >= 0.0) & (s <= delta), -c * 3.0 * r * r * (delta - 2.0 * s), 0.0)
    p, k1, k2 = 0.05, 2.0, 1.0
    w1 = p / (p + (1.0 - p) * np.exp(np.clip((k1 - k2) * s * s / 2.0, 0.0, 700.0)))
    return s * (w1 * k1 + (1.0 - w1) * k2)


def _d2v_terms(family, y):
    """The terms of example_b's g0''(y) = -c w (5 y^2 - 5 delta y + delta^2), up to ~30 times its value; else 0."""
    if family != "example_b":
        return 0.0
    w = 4.0 / 0.5**4 * np.maximum(6.0 * y * (0.5 - y), 0.0)
    return w * (5.0 * y * y + 5.0 * 0.5 * np.abs(y) + 0.5 * 0.5)


@pytest.mark.parametrize("beta", [None, 0.058, 0.116])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_pair_matches_standalone_v_and_unfused_dv(family, beta):
    # the fused pass returns V' bitwise as computed on its own for gaussian and
    # example_a; example_c's posterior weight comes from the exponential g
    # takes, and example_b groups g' as -3c r^2 ((delta - s) - s).  Its V and
    # V' are bitwise p.v and p.dv in every frame, with or without the V'' it
    # returns when asked, and that V'' is p.d2v within 4 eps of c1 + |V''|
    # (plus example_b's terms, which cancel near the roots of its quadratic
    # factor).  A scaled copy evaluates the family's closed forms with beta
    # and k folded into their constants, so its g and V' round apart from
    # beta g(s/k) and (beta/k) V'(s/k): by at most 4 eps of s^2/2 + |V| and of
    # |s| + |V'|
    raw = FAMILIES[family]()
    p, k = raw, 1.0
    if beta is not None:
        p, k = scale_to_unit(raw, beta)
    s = k * np.concatenate([np.linspace(-6.0, 6.0, 4001), [0.0, 0.25, 0.5, 1e-300, -1e-300, 1e6, -1e6]])
    v, dv = p.v_dv(s)
    eps = np.finfo(float).eps
    assert np.array_equal(v, p.v(s)) and np.array_equal(dv, p.dv(s))
    v2, dv2, d2v = p.v_dv(s, second=True)
    assert np.array_equal(v2, v) and np.array_equal(dv2, dv)
    ref = p.d2v(s)
    assert np.all(np.abs(d2v - ref) <= 4.0 * eps * (p.c1 + np.abs(ref) + _d2v_terms(family, s / k)))
    if beta is None:
        assert np.array_equal(p.v(list(s[:5])), v[:5])  # v takes any array-like
    else:
        assert np.all(np.abs(p.g(s) - beta * raw.g(s / k)) <= 4.0 * eps * (s * s / 2.0 + np.abs(v)))
    expected = _dv_unfused_formula(family, s / k) * ((1.0 if beta is None else beta) / k)
    if family == "example_c":
        np.testing.assert_allclose(dv, expected, rtol=1e-15, atol=0.0)
    elif beta is None and family != "example_b":
        assert np.array_equal(dv, expected)
    else:
        assert np.all(np.abs(dv - expected) <= 4.0 * eps * (np.abs(s) + np.abs(dv)))


@pytest.mark.parametrize("beta", [8e-4, 0.058, 0.116])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unit_frame_closed_forms_match_the_scaled_raw_family(family, beta):
    # the unit frame's g, V, V' and V'' against beta g(s/k), beta V(s/k),
    # (beta/k) V'(s/k) and V''(s/k)/c1, within 4 eps of the quadratic part's
    # term plus the value.  example_b's g0'' = -c w (5 y^2 - 5 delta y + delta^2)
    # has terms up to ~30 times its value, which set its rounding in either frame
    raw = FAMILIES[family]()
    p, k = scale_to_unit(raw, beta)
    s = k * np.concatenate([np.linspace(-6.0, 6.0, 4001), [0.0, 0.25, 0.5, 1e-300, -1e-300, 1e6, -1e6]])
    y = s / k
    v, dv = p.v_dv(s)
    raw_v, raw_dv = raw.v_dv(y)
    d2v_ref = raw.d2v(y) / raw.c1
    terms = 1.0 + np.abs(d2v_ref) + _d2v_terms(family, y)
    quadratic = s * s / 2.0 + np.abs(v)
    for got, ref, scale in (
        (p.g(s), beta * raw.g(y), quadratic),
        (v, beta * raw_v, quadratic),
        (dv, (beta / k) * raw_dv, np.abs(s) + np.abs(dv)),
        (p.d2v(s), d2v_ref, terms),
    ):
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("beta", [None, 0.058, 0.116])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_anharmonic_part_is_v_less_its_quadratic(family, beta):
    # g = V - c1 s^2/2 in closed form: the fused V less the quadratic part
    # agrees to a few ulps of the larger of the two
    p = FAMILIES[family]()
    k = 1.0
    if beta is not None:
        p, k = scale_to_unit(p, beta)
    s = k * np.concatenate([np.linspace(-6.0, 6.0, 4001), [0.0, 0.25, 0.5, 1e-300, -1e-300, 1e6, -1e6]])
    v = p.v_dv(s)[0]
    quadratic = p.c1 * s * s / 2.0
    assert np.all(np.abs(p.g(s) - (v - quadratic)) <= 4.0 * np.finfo(float).eps * (quadratic + np.abs(v)))


def test_family_parameter_validation():
    with pytest.raises(InvalidPotentialError):
        example_a(1.5)
    with pytest.raises(InvalidPotentialError):
        example_b(0.0)
    with pytest.raises(InvalidPotentialError):
        example_c(0.5, 1.0, 2.0)  # needs k2 < k1


@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_closed_forms_take_scalars_and_arrays_alike(family, framed):
    # v_dv (with V''), g_dg, dv and d2v give the same bits on a float, a 0-d array and a
    # one-element array (the norms' reference quadrature passes floats, the
    # chains pass arrays), and leave their input as it was
    p = FAMILIES[family]()
    if framed:
        p, _ = scale_to_unit(p, 0.058)
    for x in (-0.7, 0.0, 0.1, 0.25, 0.4, 1.3):
        zero_d, one = np.array(x), np.array([x])
        outs = []
        for s in (x, zero_d, one):
            vals = (*p.v_dv(s, second=True), *p.g_dg(s), p.dv(s), p.d2v(s))
            outs.append([np.asarray(v, dtype=float).reshape(-1).tobytes() for v in vals])
        assert outs[0] == outs[1] == outs[2]
        assert zero_d == x and one.tolist() == [x]
