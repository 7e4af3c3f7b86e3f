import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gil.potentials import (
    InvalidPotentialError,
    PotentialDomainError,
    constants,
    curvature_report,
    custom_potential,
    eval_potential,
    example_a,
    example_b,
    example_c,
    gaussian_potential,
    norms,
    validate_growth,
)

FAMILIES = {
    "gaussian": gaussian_potential,
    "example_a": lambda: example_a(0.5),
    "example_b": lambda: example_b(0.5),
    "example_c": lambda: example_c(0.05, 2.0, 1.0),
}


def test_eval_gaussian_curvature_is_one(pot_gauss):
    assert eval_potential(pot_gauss, 3.7, 2) == 1.0


def test_eval_example_a_closed_form_at_zero(pot_a):
    # V(0) = a - log(a) for V(s) = s^2 + a - log(s^2 + a)
    a = 0.5
    assert eval_potential(pot_a, 0.0, 0) == pytest.approx(a - math.log(a), abs=1e-14)


def test_eval_example_a_curvature_tends_to_two(pot_a):
    assert eval_potential(pot_a, 1e4, 2) == pytest.approx(2.0, abs=1e-6)
    assert eval_potential(pot_a, 3.0, 2) == pytest.approx(2.0 + float(pot_a.d2g0(3.0)), abs=1e-12)


def test_eval_rejects_bad_order(pot_gauss):
    with pytest.raises(ValueError):
        eval_potential(pot_gauss, 1.0, 3)


def test_eval_signals_domain_error():
    bad = custom_potential(
        v0=lambda s: np.asarray(s) ** 2,
        dv0=lambda s: 2 * np.asarray(s),
        d2v0=lambda s: 2 * np.ones_like(np.asarray(s, dtype=float)),
        g0=lambda s: np.log(np.asarray(s, dtype=float)),  # not defined for s <= 0
        dg0=lambda s: 1 / np.asarray(s, dtype=float),
        d2g0=lambda s: np.zeros_like(np.asarray(s, dtype=float)) - 1e-9,
        c0=1.0,
        c1=2.0,
        c2=2.0,
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(PotentialDomainError):
            eval_potential(bad, -1.0, 0)


@pytest.mark.parametrize(
    "family,expected",
    [
        ("gaussian", (0.0, 1.0, 1.0)),
        ("example_a", (4.0, 2.0, 2.0)),
        ("example_b", (1.2, 1.0, 1.0)),
    ],
)
def test_constants_builtin(family, expected):
    assert constants(FAMILIES[family]()) == pytest.approx(expected)


def test_constants_example_c():
    p, k1, k2 = 0.05, 2.0, 1.0
    c0, c1, c2 = constants(example_c(p, k1, k2))
    assert c1 == k2
    assert c2 == pytest.approx(p * k1 + (1 - p) * k2)
    assert c0 == pytest.approx(p * (k1 - k2) / (1 - p))


def test_custom_rejects_violated_constants():
    with pytest.raises(InvalidPotentialError):
        custom_potential(
            v0=lambda s: np.asarray(s) ** 2,
            dv0=lambda s: 2 * np.asarray(s),
            d2v0=lambda s: 2 * np.ones_like(np.asarray(s, dtype=float)),
            g0=lambda s: -np.asarray(s) ** 2,
            dg0=lambda s: -2 * np.asarray(s),
            d2g0=lambda s: -2 * np.ones_like(np.asarray(s, dtype=float)),
            c0=1.0,  # true lower curvature of g0 is -2
            c1=2.0,
            c2=2.0,
        )


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


def test_remark_inequality_when_finite(pot_b):
    # int (g0')^2 = -int g0 g0'' <= c0 ||g0||_L1 whenever all three are finite
    nr = norms(pot_b, 1e-10)
    assert nr.l2_g0p**2 <= pot_b.c0 * nr.l1_g0 + 1e-12


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_curvature_grid_certificate(family):
    p = FAMILIES[family]()
    rep = curvature_report(p)
    assert rep.base_bounds_ok, f"{family}: V0'' outside [c1, c2]"
    assert rep.lower_bound_ok, f"{family}: g0'' below -c0"
    if family in ("gaussian", "example_c"):
        assert rep.concave_ok
    else:
        # the log and bump families carry a convex excess in g0''; for
        # example_a it is absorbable into the quadratic part without moving
        # the composite constant
        assert not rep.concave_ok
        if family == "example_a":
            assert rep.excess_absorbable
            assert rep.convex_excess == pytest.approx(1.0 / (4 * 0.5), rel=1e-3)
        else:
            assert rep.convex_excess == pytest.approx(1.5, rel=1e-3)


@pytest.mark.parametrize(
    "family,s_values",
    [
        ("gaussian", [0.0, 1.3, -2.2]),
        ("example_a", [0.0, 0.4, -1.5, 3.0]),
        ("example_b", [0.1, 0.25, 0.49, 0.7, -0.3]),
        ("example_c", [0.0, 0.8, -1.7, 4.0]),
    ],
)
def test_finite_difference_derivative_consistency(family, s_values):
    p = FAMILIES[family]()
    h = 1e-4
    for s in s_values:
        d1 = (eval_potential(p, s + h, 0) - eval_potential(p, s - h, 0)) / (2 * h)
        d2 = (eval_potential(p, s + h, 0) - 2 * eval_potential(p, s, 0) + eval_potential(p, s - h, 0)) / h**2
        scale1 = max(1.0, abs(eval_potential(p, s, 1)))
        scale2 = max(1.0, abs(eval_potential(p, s, 2)))
        assert abs(d1 - eval_potential(p, s, 1)) / scale1 < 1e-6
        assert abs(d2 - eval_potential(p, s, 2)) / scale2 < 1e-6


@given(s=st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_example_b_derivative_property(s):
    p = example_b(0.5)
    h = 1e-5
    fd = (float(p.v(s + h)) - float(p.v(s - h))) / (2 * h)
    assert fd == pytest.approx(float(p.dv(s)), rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("delta", [0.5, 0.3])
def test_example_b_g0_matches_closed_form_polynomial(delta):
    # g0 and dg0 multiply r = s (delta - s) instead of taking float powers
    p = example_b(delta)
    c = 4.0 / delta**4
    s_lo, s_hi = p.g0pp_breakpoints[1:3]
    s = np.concatenate([np.linspace(-0.2, delta + 0.2, 2001), [0.0, s_lo, s_hi, delta, delta / 2.0]])
    inside = (s >= 0.0) & (s <= delta)
    g0 = np.where(inside, -c * s**3 * (delta - s) ** 3, 0.0)
    dg0 = np.where(inside, -3.0 * c * s**2 * (delta - s) ** 2 * (delta - 2.0 * s), 0.0)
    np.testing.assert_allclose(p.g0(s), g0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(p.dg0(s), dg0, rtol=1e-15, atol=0.0)
    assert p.g0(0.0) == 0.0 and p.g0(delta) == 0.0


def test_validate_growth_gaussian(pot_gauss):
    assert validate_growth(pot_gauss, 0.5, 0.0)
    assert not validate_growth(pot_gauss, 0.51, 0.0)  # above the curvature cap


def test_validate_growth_example_a(pot_a):
    assert validate_growth(pot_a, 0.5, 1.0)


def test_validate_growth_rejects_nonpositive_a(pot_gauss):
    with pytest.raises(ValueError):
        validate_growth(pot_gauss, 0.0, 0.0)


def test_family_parameter_validation():
    with pytest.raises(InvalidPotentialError):
        example_a(1.5)
    with pytest.raises(InvalidPotentialError):
        example_b(0.0)
    with pytest.raises(InvalidPotentialError):
        example_c(0.5, 1.0, 2.0)  # needs k2 < k1


def test_example_c_split_consistency(pot_c):
    # total closed form equals integrated split on a few points
    for s in (0.0, 0.5, -1.2, 2.5):
        assert float(pot_c.v(s)) == pytest.approx(float(pot_c.v0(s) + pot_c.g0(s)), abs=1e-10)
        assert float(pot_c.dv(s)) == pytest.approx(float(pot_c.dv0(s) + pot_c.dg0(s)), abs=1e-10)
