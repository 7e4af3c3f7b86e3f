"""Brute-force partition functions, free energies, and renormalization maps.

Ground truth for every Monte Carlo estimator, on the systems a quadrature route
reaches: d = 1 at any m, compact anharmonicity at most ORACLE_MAX_DOF free
coordinates in any d, and GH otherwise.  All integrals reduce to pinned-Gaussian
expectations handled by the quadrature backends; the change of variables to the
beta = 1, c1 = 1 frame is exact, so scaling identities hold to machine precision
by construction and are tested against independent references elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .conditions import scale_to_unit
from .gff import ModeBasis
from .lattice import Torus, Field
from .potentials import Potential
from .quadrature import GH_TOL, QuadratureError, gh_log_expectation_doubling, log_expectation

__all__ = [
    "ORACLE_ERROR",
    "log_partition",
    "free_energy",
    "hessian_fd",
    "renorm_apply_g",
    "renorm_iterated_g",
    "renorm_joint_g",
]


# the error an oracle value reports until routes estimate their own: the GH tolerance
ORACLE_ERROR = GH_TOL


def log_partition(u, p: Potential, t: Torus, beta: float) -> float:
    """log Z = log integral over pinned fields of exp(-beta H(u, phi)).

    Internally rescales to the unit frame: log Z^beta(u) = -(n/2) log(beta c1)
    + log Z^1(u_scaled, p_scaled), then splits off the exact Gaussian part.
    The expectation comes first, so a torus no route serves fails before the
    dense eigensolve.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ps, k = scale_to_unit(p, beta)
    us = k * u
    log_e, _info = log_expectation(t, ps, us, 1.0)
    mb = ModeBasis.build(t)
    n = t.n_dof
    log_z1 = (
        -0.5 * t.volume * float(us @ us)
        + 0.5 * n * math.log(2.0 * math.pi)
        - 0.5 * float(np.sum(np.log(mb.lam)))
        + log_e
    )
    return log_z1 - 0.5 * n * math.log(beta * p.c1)


def free_energy(u, p: Potential, t: Torus, beta: float) -> float:
    """f = -(1/beta) log Z."""
    return -log_partition(u, p, t, beta) / beta


def hessian_fd(f, u, h: float = 1e-3) -> np.ndarray:
    """Symmetrized central second differences of a scalar map on R^d.

    The h and h/2 stencils are combined (Richardson) to cancel the leading
    O(h^2) truncation term; both stencils share the one f(u).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    f0 = f(u)

    def stencil(step):
        d = len(u)
        H = np.zeros((d, d))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = step
            H[i, i] = (f(u + ei) - 2.0 * f0 + f(u - ei)) / step**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = step
                H[i, j] = H[j, i] = (
                    f(u + ei + ej) - f(u + ei - ej) - f(u - ei + ej) + f(u - ei - ej)
                ) / (4.0 * step**2)
        return H

    H1 = stencil(h)
    H = (4.0 * stencil(h / 2.0) - H1) / 3.0
    return 0.5 * (H + H.T)


def renorm_apply_g(p: Potential, variance_scale: float, u, a: Field) -> float:
    """(R G)(u, a) for the anharmonic bond energy G of a unit-scaled potential.

    Uses the exact inclusion-exclusion route for compact anharmonicity and the
    generic backends otherwise.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val, _info = log_expectation(a.torus, p, u, variance_scale, psi_values=a.values)
    return -val


def renorm_iterated_g(p: Potential, lam: float, u, t: Torus) -> float:
    """(R2 R1 G)(u, 0): integrate theta at scale lam, then psi at scale 1 - lam.

    The outer integrand exp(-R1G(u, psi)) is a Gaussian smoothing of the bond
    energy and hence smooth, so the outer layer uses GH with node doubling; each
    inner value comes from renorm_apply_g.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def outer_gfun(dof_batch):
        out = np.empty(dof_batch.shape[0])
        for j in range(dof_batch.shape[0]):
            psi = Field.from_dof(t, dof_batch[j])
            out[j] = renorm_apply_g(p, lam, u, psi)
        return out

    val, converged, delta, _order = gh_log_expectation_doubling(outer_gfun, t, 1.0 - lam)
    if not converged:
        raise QuadratureError(f"outer renorm layer did not converge (last delta {delta:.3e})")
    return -val


def renorm_joint_g(p: Potential, lam: float, u, t: Torus) -> float:
    """The same map evaluated as one quadrature over the sum of both layers.

    Independent pinned fields at scales lam and 1 - lam sum to one pinned field
    at scale 1, so the joint side is -log E[exp(-G(u, phi))] at scale 1 and
    does not depend on lam.  Agreement with renorm_iterated_g is the numerical
    decomposition identity.
    """
    return -log_expectation(t, p, np.atleast_1d(np.asarray(u, dtype=float)), 1.0)[0]
