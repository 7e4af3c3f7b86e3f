"""Brute-force partition functions, free energies, and renormalization maps.

Ground truth for every Monte Carlo estimator, restricted to systems with at most
``max_dof`` free coordinates.  All integrals reduce to pinned-Gaussian
expectations handled by the quadrature backends; the change of variables to the
beta = 1, c1 = 1 frame is exact, so scaling identities hold to machine precision
by construction and are tested against independent references elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import scale_to_unit
from .gff import ModeBasis
from .lattice import Torus, Field, bond_args
from .potentials import Potential
from .quadrature import (
    QuadratureError,
    compact_anharmonicity,
    field_bond_map,
    gh_log_expectation_doubling,
    mayer_log_expectation,
    log_expectation,
)

__all__ = [
    "QuadratureSpec",
    "log_partition",
    "free_energy",
    "hessian_fd",
    "renorm_apply_g",
    "renorm_iterated_g",
    "renorm_joint_g",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite order schedule and size caps for the oracle integrals."""

    nodes_per_dim: int = 16
    envelope_scale: float = 1.0
    max_dof: int = 5
    tol: float = 1e-8
    node_cap: int = 128

    def __post_init__(self):
        if self.nodes_per_dim < 8:
            raise ValueError("nodes_per_dim must be at least 8")
        if self.max_dof > 5:
            raise ValueError("max_dof is capped at 5")
        if self.envelope_scale <= 0 or self.tol <= 0:
            raise ValueError("envelope_scale and tol must be positive")


def _check_size(t: Torus, q: QuadratureSpec):
    if t.n_dof > q.max_dof:
        raise QuadratureError(f"system has {t.n_dof} free coordinates, oracle cap is {q.max_dof}")


def log_partition(u, p: Potential, t: Torus, beta: float, q: QuadratureSpec = QuadratureSpec()) -> float:
    """log Z = log integral over pinned fields of exp(-beta H(u, phi)).

    Internally rescales to the unit frame: log Z^beta(u) = -(n/2) log(beta c1)
    + log Z^1(u_scaled, p_scaled), then splits off the exact Gaussian part.
    """
    _check_size(t, q)
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ps, k = scale_to_unit(p, beta)
    us = k * u
    mb = ModeBasis.build(t)
    n = t.n_dof
    log_e, _info = log_expectation(
        t, ps, us, 1.0, order0=q.nodes_per_dim, tol=q.tol, order_cap=q.node_cap, envelope=q.envelope_scale
    )
    log_z1 = (
        -0.5 * t.volume * float(us @ us)
        + 0.5 * n * math.log(2.0 * math.pi)
        - 0.5 * float(np.sum(np.log(mb.lam)))
        + log_e
    )
    return log_z1 - 0.5 * n * math.log(beta * p.c1)


def free_energy(u, p: Potential, t: Torus, beta: float, q: QuadratureSpec = QuadratureSpec()) -> float:
    """f = -(1/beta) log Z."""
    return -log_partition(u, p, t, beta, q) / beta


def hessian_fd(f, u, h: float = 1e-3, richardson: bool = True) -> np.ndarray:
    """Symmetrized central second differences of a scalar map on R^d.

    With richardson=True the h and h/2 stencils are combined to cancel the
    leading O(h^2) truncation term; both stencils share the one f(u).
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
    if not richardson:
        return 0.5 * (H1 + H1.T)
    H2 = stencil(h / 2.0)
    H = (4.0 * H2 - H1) / 3.0
    return 0.5 * (H + H.T)


def renorm_apply_g(p: Potential, variance_scale: float, u, a: Field, q: QuadratureSpec = QuadratureSpec()) -> float:
    """(R G)(u, a) for the anharmonic bond energy G of a unit-scaled potential.

    Uses the exact inclusion-exclusion route for compact anharmonicity and the
    generic backends otherwise.
    """
    t = a.torus
    _check_size(t, q)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    val, _info = log_expectation(
        t, p, u, variance_scale, psi_values=a.values, order0=q.nodes_per_dim, tol=q.tol, order_cap=q.node_cap
    )
    return -val


def renorm_iterated_g(
    p: Potential, lam: float, u, t: Torus, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """(R2 R1 G)(u, 0): integrate theta at scale lam, then psi at scale 1 - lam.

    The outer integrand exp(-R1G(u, psi)) is a Gaussian smoothing of the bond
    energy and hence smooth, so the outer layer uses GH with node doubling; each
    inner value comes from renorm_apply_g.
    """
    _check_size(t, q)
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def outer_gfun(dof_batch):
        out = np.empty(dof_batch.shape[0])
        for j in range(dof_batch.shape[0]):
            psi = Field.from_dof(t, dof_batch[j])
            out[j] = renorm_apply_g(p, lam, u, psi, q)
        return out

    val, converged, delta, _order = gh_log_expectation_doubling(
        outer_gfun, t, 1.0 - lam, q.nodes_per_dim, q.tol, q.node_cap
    )
    if not converged:
        raise QuadratureError(f"outer renorm layer did not converge (last delta {delta:.3e})")
    return -val


def renorm_joint_g(
    p: Potential, lam: float, u, t: Torus, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """The same map evaluated as one joint quadrature over both Gaussian layers.

    Both fields' latent coordinates enter a single (bonds x 2 n_dof) linear map;
    compact anharmonicity is required.  Agreement with renorm_iterated_g is the
    numerical decomposition identity.
    """
    _check_size(t, q)
    compact = compact_anharmonicity(p)
    if compact is None:
        raise QuadratureError("joint quadrature requires compactly supported anharmonicity")
    lo, hi, h = compact
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if hi - lo <= 0.0:
        return 0.0
    F = np.hstack([field_bond_map(t, 1.0 - lam), field_bond_map(t, lam)])
    shifts = bond_args(t, np.zeros(t.volume), u).ravel()
    val, _pruned = mayer_log_expectation(F, shifts, h, (lo, hi), tol=min(q.tol, 1e-12))
    return -val
