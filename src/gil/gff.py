"""Spectral form of the lattice Dirichlet energy and exact Gaussian field sampling.

The pinned Gaussian measure exp(-||grad phi||^2 / 2) lives on the dof vectors
(origin value fixed at zero), where the Dirichlet energy is the form D^T D of the
bond matrix D.  ModeBasis is its eigendecomposition, dof = Q w with energy
sum lam w^2; the quadrature backends integrate in it and sample_gff draws in it,
independent mode amplitudes of variance scale / lam, so one basis serves both.
The circulant eigenvalues of the unpinned torus are kept as ``spectrum`` for
checks against the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Torus, Field, grad_all, pinned

__all__ = [
    "ModeBasis",
    "spectrum",
    "sample_gff",
    "poincare_constant",
    "pinned_form",
    "bond_matrix",
]

DENSE_CAP = 4096


def bond_matrix(t: Torus) -> np.ndarray:
    """Linear map from dof vectors to all d * volume bond gradients.

    Row (i * volume + x) carries grad_i phi(x) with phi(0) = 0 implicit.
    """
    n = t.n_dof
    return grad_all(t, pinned(np.eye(n))).reshape(n, -1).T


def pinned_form(t: Torus) -> np.ndarray:
    """Dirichlet form on the non-origin coordinates: dof . A dof = ||grad phi||^2."""
    D = bond_matrix(t)
    return D.T @ D


@dataclass(frozen=True)
class ModeBasis:
    """Eigendecomposition of the pinned Dirichlet form: dof = Q w, form = sum lam w^2."""

    torus: Torus
    lam: np.ndarray
    Q: np.ndarray

    @classmethod
    def build(cls, t: Torus) -> "ModeBasis":
        return _mode_basis(t.d, t.m)


@lru_cache(maxsize=64)
def _mode_basis(d: int, m: int) -> ModeBasis:
    t = Torus(d, m)
    if t.volume > DENSE_CAP:
        raise ValueError(f"dense eigensolve capped at volume {DENSE_CAP}, got {t.volume}")
    lam, Q = np.linalg.eigh(pinned_form(t))
    return ModeBasis(torus=t, lam=lam, Q=Q)


def spectrum(t: Torus) -> np.ndarray:
    """Circulant eigenvalues sum_i 4 sin^2(pi k_i / m) over all modes, zero first."""
    ks = np.arange(t.m)
    axis_eig = 4.0 * np.sin(np.pi * ks / t.m) ** 2
    mu = np.zeros((t.m,) * t.d)
    for i in range(t.d):
        shape = [1] * t.d
        shape[i] = t.m
        mu = mu + axis_eig.reshape(shape)
    return mu.ravel()


def sample_gff(t: Torus, variance_scale: float, rng: np.random.Generator, n_samples: int | None = None):
    """Draw pinned Gaussian fields with Dirichlet weight exp(-||grad||^2 / (2 scale)).

    Returns a Field for n_samples None, else an (n_samples, volume) array of
    pinned site values.
    """
    if not 0.0 < variance_scale <= 1.0:
        raise ValueError(f"variance_scale must be in (0, 1], got {variance_scale}")
    mb = ModeBasis.build(t)
    n = 1 if n_samples is None else n_samples
    z = rng.standard_normal((n, t.n_dof))
    sites = pinned((z * np.sqrt(variance_scale / mb.lam)) @ mb.Q.T)
    if n_samples is None:
        return Field(t, sites[0])
    return sites


def poincare_constant(t: Torus) -> float:
    """delta_m, the smallest Rayleigh quotient ||grad eta||^2 / ||eta||^2 over pinned fields.

    It is the smallest eigenvalue of the pinned Dirichlet form (dense solve).
    """
    return float(ModeBasis.build(t).lam[0])
