import sys
from pathlib import Path

import numpy as np
import pytest

from gil.conditions import check_conditions, scale_to_unit
from gil.lattice import Torus
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
    return ChainConfig(n_steps=6000, burn_in=1000, thinning=1, n_chains=2, seed=1234)


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
