import sys
from pathlib import Path

import numpy as np
import pytest

from gil.conditions import check_conditions, scale_to_unit
from gil.lattice import Field, Torus, bond_args, bond_divergence, grad_all, grad_norm_sq, pinned
from gil.mcmc import ChainConfig
from gil.potentials import example_a, example_b, example_c, gaussian_potential, norms


@pytest.fixture(scope="session")
def pot_gauss():
    return gaussian_potential()


@pytest.fixture(scope="session")
def pot_a():
    return example_a(0.5)


@pytest.fixture(scope="session")
def pot_b():
    return example_b(0.5)


@pytest.fixture(scope="session")
def pot_c():
    return example_c(0.05, 2.0, 1.0)


@pytest.fixture(scope="session")
def beta_half_b(pot_b):
    """Half the primary-condition threshold for example_b(0.5) at d = 1."""
    return check_conditions(1.0, 1, pot_b, norms(pot_b)).beta_max_fcond / 2.0


@pytest.fixture(scope="session")
def scaled_b(pot_b, beta_half_b):
    ps, k = scale_to_unit(pot_b, beta_half_b)
    return ps, k


@pytest.fixture
def quick_chain():
    return ChainConfig(n_steps=6000, burn_in=1000, n_chains=2, seed=1234)


@pytest.fixture(scope="session")
def conditioning_reference():
    """Independent d = 1 reference: log_expectation_1d(g, m, kinks) from bench/reference.py.

    It evaluates log E[exp(-sum_b g(e_b))] for m iid N(0, 1) bond gradients
    conditioned to sum to zero as one Fourier integral on fixed Gauss-Legendre
    grids, sharing no code with gil's backends; g is vectorized in the bond
    argument (the tilt already added) and kinks lists its non-smooth points.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from reference import log_expectation_1d

    return log_expectation_1d


def random_pinned(t: Torus, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    vals = np.zeros(t.volume)
    vals[1:] = scale * rng.standard_normal(t.n_dof)
    return vals


# Single-field reference forms of the batched lattice kernels, used only to check
# the kernels and the targets built on them.


def hamiltonian(t: Torus, u, phi, p) -> float:
    """Total energy H(u, phi) = sum over sites and axes of V(grad + u_i)."""
    values = phi.values if isinstance(phi, Field) else np.asarray(phi, dtype=float)
    return float(np.sum(p.v(bond_args(t, values, u))))


def grad_h(t: Torus, u, phi, p) -> np.ndarray:
    """dH/dphi(x) = sum_i [V'(grad_i phi(x - e_i) + u_i) - V'(grad_i phi(x) + u_i)] over non-origin x."""
    values = phi.values if isinstance(phi, Field) else np.asarray(phi, dtype=float)
    return bond_divergence(t, p.dv(bond_args(t, values, u)))


def induced_h1_energy(t: Torus, p, u, psi_values, theta_dof, lam: float) -> float:
    """H1(theta) = G(u, psi + theta) + ||grad theta||^2 / (2 lam), theta pinned.

    G sums V(s) - s^2/2 formed here, as the h1 target does for any c1.
    """
    theta = pinned(theta_dof)
    arg = bond_args(t, psi_values + theta, u)
    return float(np.sum(p.v(arg) - arg * arg / 2.0)) + grad_norm_sq(t, theta) / (2.0 * lam)


def induced_h1_grad(t: Torus, p, u, psi_values, theta_dof, lam: float) -> np.ndarray:
    """dH1/dtheta(x) over non-origin sites, as a dof vector."""
    theta = pinned(theta_dof)
    arg = bond_args(t, psi_values + theta, u)
    return bond_divergence(t, (p.dv(arg) - arg) + grad_all(t, theta) / lam)


def h1_form_probes(plan, u, psi_values, n_probes: int, rng: np.random.Generator):
    """The exact quadratic form D^2 H1(theta)(theta_dot, theta_dot) on random pinned pairs.

    D^2 H1 = sum g''(u_i + grad_i(psi + theta)) (grad_i theta_dot)^2 + ||grad theta_dot||^2 / lambda
    with g'' = V'' - 1; returns (form, ||grad theta_dot||^2, ||theta_dot||^2), each (n_probes,).
    """
    t = plan.torus
    draws = pinned(rng.standard_normal((n_probes, 2, t.n_dof)))
    theta, tdot = draws[:, 0], draws[:, 1]
    gdot2 = grad_all(t, tdot) ** 2
    gn = gdot2.sum(axis=(1, 2))
    g2 = plan.potential.d2v(bond_args(t, psi_values + theta, u)) - 1.0
    return (g2 * gdot2).sum(axis=(1, 2)) + gn / plan.lam, gn, (tdot * tdot).sum(axis=1)


def bond_matrix(t: Torus) -> np.ndarray:
    """Dense reference: the linear map from dof vectors to all d * volume bond gradients.

    Row (i * volume + x) carries grad_i phi(x) with phi(0) = 0 implicit.
    """
    n = t.n_dof
    return grad_all(t, pinned(np.eye(n))).reshape(n, -1).T


def pinned_form(t: Torus) -> np.ndarray:
    """Dense reference: the Dirichlet form on the non-origin coordinates, dof . A dof = ||grad phi||^2."""
    D = bond_matrix(t)
    return D.T @ D


def pinned_covariance(t: Torus) -> np.ndarray:
    """Inverse of the pinned form: covariance of the pinned Gaussian field."""
    return np.linalg.inv(pinned_form(t))
