"""Numerical laboratory for lattice gradient interface models.

Potentials V = V0 + g0 on torus-indexed height fields, free energies and their
tilt Hessians at desk scale, the one-step Gaussian scale decomposition with its
convexity certificates, and quadrature/Monte Carlo cross checks for every
estimator.
"""

from .conditions import ConditionReport, cbar, check_conditions, scale_to_unit
from .gff import fourier_modes, poincare_constant, sample_gff, spectrum
from .lattice import Field, Torus, grad_all
from .mcmc import ChainConfig, Estimate, Target, fluctuation_hessian, run_chains
from .oracle import free_energy, hessian_fd
from .potentials import (
    NormReport,
    Potential,
    example_a,
    example_b,
    example_c,
    gaussian_potential,
    norms,
)
from .renorm import DecompositionPlan, certify_h1_convexity, estimate_r1g, verify_theorem

__version__ = "0.1.0"
