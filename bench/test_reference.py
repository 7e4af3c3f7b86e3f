"""Checks of the benchmark's independent d = 1 free-energy reference.

Run with: python3 -m pytest bench/test_reference.py
"""

import benchenv  # noqa: F401  (thread pinning before numpy)
import pytest

from gil.conditions import check_conditions
from gil.lattice import Torus
from gil.oracle import free_energy
from gil.potentials import example_a, example_b, gaussian_potential, norms

import reference


def _oracle_delta_f(p, beta, m, u):
    t = Torus(1, m)
    return free_energy([u], p, t, beta) - free_energy([0.0], p, t, beta)


@pytest.mark.parametrize("m", [3, 5])
def test_gaussian_closed_form(m):
    g = gaussian_potential()
    beta, u = 0.7, 0.4
    ref = reference.delta_f_1d(g.v, g.c1, beta, m, u)
    assert ref == pytest.approx(m * g.c1 * u * u / 2.0, abs=1e-12)
    assert ref == pytest.approx(_oracle_delta_f(g, beta, m, u), abs=1e-9)


def _beta_half(p, d=1):
    return check_conditions(1.0, d, p, norms(p)).beta_max_fcond / 2.0


@pytest.mark.parametrize(
    "beta",
    [
        pytest.param(_beta_half(example_b(0.5)), id="example_b_threshold"),
        # the temperature of the stored example (a) references, where 1/beta
        # magnifies an error in log E about 1250-fold on delta_f
        pytest.param(_beta_half(example_a(0.5)), id="example_a_threshold"),
    ],
)
@pytest.mark.parametrize("m", [3, 4])
def test_example_b_matches_mayer_oracle(m, beta):
    # compact anharmonicity: gil's exact inclusion-exclusion backend is an
    # independent route to the same free energy
    p = example_b(0.5)
    u = 0.25
    ref = reference.delta_f_1d(p.v, p.c1, beta, m, u, p.g0pp_breakpoints)
    assert ref == pytest.approx(_oracle_delta_f(p, beta, m, u), abs=1e-10)


def test_stored_references_are_current():
    stored = reference.load_references()
    fresh = reference.compute_references()["rows"]
    assert len(stored) == len(fresh)
    for old, new in zip(stored, fresh):
        assert {k: old[k] for k in ("a", "d", "m", "u", "beta")} == {k: new[k] for k in ("a", "d", "m", "u", "beta")}
        assert old["delta_f"] == pytest.approx(new["delta_f"], abs=1e-12)
