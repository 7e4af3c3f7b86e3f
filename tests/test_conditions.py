import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gil.conditions import cbar, check_conditions, primary_condition, scale_to_unit
from gil.potentials import NormReport, example_a, example_b, norms


def test_cbar_examples(pot_a):
    assert cbar(0.0, 1.0, 1.0) == 1.0
    assert cbar(1.2, 1.0, 1.0) == pytest.approx(6.0 / 5.0)
    assert cbar(*((pot_a.c0, pot_a.c1, pot_a.c2))) == pytest.approx(2.0)


def test_cbar_rejects_bad_constants():
    with pytest.raises(ValueError):
        cbar(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cbar(1.0, 2.0, 1.0)


@pytest.mark.parametrize("a", [0.25, 0.5])
@pytest.mark.parametrize("d", [1, 2])
def test_threshold_saturation_example_a(a, d):
    # beta = a^2 pi^2 / (6 * 16^2 * d) makes the primary lhs exactly 1/2
    p = example_a(a)
    beta = a * a * math.pi**2 / (6.0 * 16.0**2 * d)
    rep = check_conditions(beta, d, p, norms(p, 1e-12))
    assert rep.lhs_fcond == pytest.approx(0.5, abs=1e-10)
    assert rep.beta_max_fcond == pytest.approx(beta, rel=1e-10)


@pytest.mark.parametrize("delta,d", [(0.4, 1), (0.3, 2)])
def test_example_b_threshold_with_quoted_bound(delta, d):
    # plugging the quoted norm bound (3/(10 sqrt 5)) delta^5 into the primary
    # condition at beta = (5 sqrt(5 d) pi / (2 delta))^2 keeps the lhs below 1/2
    p = example_b(delta)
    quoted = 3.0 * delta**5 / (10.0 * math.sqrt(5.0))
    nr = NormReport(l1_g0pp=quoted, l2_g0p=0.0, l1_g0=0.0, quadrature_error=0.0, l1_g0pp_abs=quoted)
    beta = (5.0 * math.sqrt(5.0 * d) * math.pi / (2.0 * delta)) ** 2
    rep = check_conditions(beta, d, p, nr)
    assert rep.lhs_fcond == pytest.approx(18.0 * math.sqrt(0.4) * d * delta**4, rel=1e-12)
    assert rep.lhs_fcond <= 0.5
    assert rep.beta_max_fcond >= beta


def test_gaussian_always_satisfied(pot_gauss):
    rep = check_conditions(123.0, 3, pot_gauss, norms(pot_gauss))
    assert rep.lhs_fcond == 0.0 and rep.lhs_9 == 0.0 and rep.lhs_11 == 0.0
    assert rep.beta_max_fcond == math.inf
    assert all(rep.satisfied.values())


def test_check_alt_example_a(pot_a):
    rep = check_conditions(1e-3, 1, pot_a, norms(pot_a))
    lhs9, lhs11 = rep.lhs_9, rep.lhs_11
    expected9 = 50.0 / math.sqrt(2 * math.pi) * 1 * 2.0 * (1e-3 * 2.0) ** 0.75 / 2.0 * math.sqrt(2 * math.pi / math.sqrt(0.5))
    assert lhs9 == pytest.approx(expected9, rel=1e-8)
    assert lhs11 == math.inf  # ||g0||_L1 diverges for the log family


def test_check_alt_example_c(pot_c):
    rep = check_conditions(1e-3, 1, pot_c, norms(pot_c))
    lhs9, lhs11 = rep.lhs_9, rep.lhs_11
    assert lhs9 == math.inf and lhs11 == math.inf


def test_check_alt_example_b_closed_form(pot_b):
    beta, d = 0.116, 1
    nr = norms(pot_b)
    rep = check_conditions(beta, d, pot_b, nr)
    lhs9, lhs11 = rep.lhs_9, rep.lhs_11
    assert lhs9 == pytest.approx(50 / math.sqrt(2 * math.pi) * 1.2 * beta**0.75 * nr.l2_g0p, rel=1e-10)
    assert lhs11 == pytest.approx(2500 / (2 * math.pi) * 1.2**3 * beta**1.5 * nr.l1_g0, rel=1e-10)


def test_scale_to_unit_gaussian_fixed_point(pot_gauss):
    ps, k = scale_to_unit(pot_gauss, 4.0)
    assert k == 2.0
    s = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(ps.v(s), s * s / 2.0, atol=1e-14)
    assert (ps.c0, ps.c1, ps.c2) == (0.0, 1.0, 1.0)


def test_scale_to_unit_identity_at_unit_frame(pot_b):
    ps, k = scale_to_unit(pot_b, 1.0)
    assert k == 1.0
    s = np.linspace(-1, 1, 21)
    np.testing.assert_allclose(ps.v(s), pot_b.v(s), atol=1e-14)


def test_scale_to_unit_composes_and_needs_closed_forms(pot_a):
    # a unit-frame copy rescales through the family's closed forms: scaling at
    # 0.3 and then at 0.5 is the scaling at 0.15
    ps, k = scale_to_unit(pot_a, 0.3)
    twice, k2 = scale_to_unit(ps, 0.5)
    direct, k_direct = scale_to_unit(pot_a, 0.15)
    s = np.linspace(-3.0, 3.0, 61)
    assert k * k2 == pytest.approx(k_direct, rel=1e-15)
    assert (twice.c0, twice.c1, twice.c2) == (direct.c0, direct.c1, direct.c2)
    np.testing.assert_allclose(twice.v_dv(s), direct.v_dv(s), rtol=1e-14, atol=1e-15)
    with pytest.raises(ValueError, match="closed forms"):
        scale_to_unit(replace(pot_a, frame=None), 0.3)


def test_scaled_constants_and_curvature_grid(pot_a):
    ps, k = scale_to_unit(pot_a, 1e-3)
    assert (ps.c0, ps.c1, ps.c2) == (2.0, 1.0, 1.0)
    s = np.linspace(-50, 50, 10001)
    v0pp = ps.d2v(s) - ps.d2g0(s)
    assert v0pp.min() >= 1 - 1e-12 and v0pp.max() <= 1 + 1e-12
    assert cbar(ps.c0, ps.c1, ps.c2) == cbar(pot_a.c0, pot_a.c1, pot_a.c2)


def test_scaled_norm_follows_the_reduction_rule(pot_a):
    beta = 1e-3
    ps, k = scale_to_unit(pot_a, beta)
    nr_s = norms(ps, 1e-10)
    nr = norms(pot_a, 1e-10)
    assert nr_s.l1_g0pp == pytest.approx(k / pot_a.c1 * nr.l1_g0pp, rel=1e-8)


@given(beta=st.floats(1e-4, 10.0))
@settings(max_examples=25, deadline=None)
def test_lhs_invariance_under_scaling(beta):
    p = example_b(0.5)
    nr = norms(p)
    rep = check_conditions(beta, 1, p, nr)
    ps, _ = scale_to_unit(p, beta)
    rep_s = check_conditions(1.0, 1, ps, norms(ps))
    assert rep_s.lhs_fcond == pytest.approx(rep.lhs_fcond, rel=1e-9)
    assert rep_s.lhs_9 == pytest.approx(rep.lhs_9, rel=1e-9)
    assert rep_s.lhs_11 == pytest.approx(rep.lhs_11, rel=1e-9)
    assert rep_s.cbar == pytest.approx(rep.cbar, rel=1e-12)


@pytest.mark.parametrize("beta", [1e-3, 1.0])
def test_primary_condition_is_check_conditions_fcond(pot_a, pot_b, beta):
    # the narrow path reads the same formula: the same left side, bit for bit,
    # and the same verdict, at the norm and at the norm plus its error
    for p in (pot_a, pot_b):
        nr = norms(p)
        rep = check_conditions(beta, 2, p, nr)
        assert primary_condition(beta, 2, p, nr.l1_g0pp) == (rep.lhs_fcond, rep.satisfied["fcond"])
        eps = nr.quadrature_error
        assert primary_condition(beta, 2, p, nr.l1_g0pp + eps)[1] == rep.satisfied_pessimistic["fcond"]


@pytest.mark.parametrize("beta, d, constants", [(0.0, 1, None), (1.0, 0, None), (1.0, 1, (1.0, 0.0, 1.0)), (1.0, 1, (1.0, 2.0, 1.0))])
def test_primary_condition_validates_as_check_conditions(pot_b, beta, d, constants):
    p = pot_b if constants is None else replace(pot_b, c0=constants[0], c1=constants[1], c2=constants[2])
    with pytest.raises(ValueError):
        primary_condition(beta, d, p, 1.0)
    with pytest.raises(ValueError):
        check_conditions(beta, d, p, norms(pot_b))


def test_threshold_self_consistency(pot_b):
    nr = norms(pot_b)
    rep = check_conditions(1.0, 1, pot_b, nr)
    rep_at_max = check_conditions(rep.beta_max_fcond, 1, pot_b, nr)
    assert rep_at_max.lhs_fcond == pytest.approx(0.5, rel=1e-12)
    rep9 = check_conditions(rep.beta_max_9, 1, pot_b, nr)
    assert rep9.lhs_9 == pytest.approx(0.5, rel=1e-10)
    rep11 = check_conditions(rep.beta_max_11, 1, pot_b, nr)
    assert rep11.lhs_11 == pytest.approx(0.25, rel=1e-10)


def test_pessimistic_verdict_uses_norm_error(pot_b):
    nr = norms(pot_b)
    rep = check_conditions(1.0, 1, pot_b, nr)
    inflated = NormReport(
        l1_g0pp=nr.l1_g0pp,
        l2_g0p=nr.l2_g0p,
        l1_g0=nr.l1_g0,
        quadrature_error=1.0,
        l1_g0pp_abs=nr.l1_g0pp_abs,
    )
    rep2 = check_conditions(rep.beta_max_fcond, 1, pot_b, inflated)
    assert rep2.satisfied["fcond"]
    assert not rep2.satisfied_pessimistic["fcond"]
