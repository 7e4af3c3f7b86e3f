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
from .gff import spectrum
from .lattice import Torus, bond_args, pinned
from .potentials import Potential
from .quadrature import (
    GH_TOL,
    QuadratureError,
    compact_anharmonicity,
    conditioning_tilt_curvature,
    gh_log_expectation_doubling,
    log_expectation,
)

__all__ = [
    "ORACLE_ERROR",
    "f_tilt",
    "f_tilt_hessian",
    "free_energy",
    "hessian_fd",
    "renorm_iterated_g",
    "renorm_joint_g",
]


# the error an oracle value reports until routes estimate their own: the GH tolerance
ORACLE_ERROR = GH_TOL


def f_tilt(u, p: Potential, t: Torus, beta: float) -> float:
    """The u-dependent part of f: |T| c1 u.u / 2 - log E[exp(-G(k u, phi))] / beta, k = sqrt(beta c1).

    G is the anharmonic bond energy of the unit-scaled potential and phi the
    pinned field at scale 1.  Finite differences in u should difference this
    part alone: the u-independent rest of f is large at large |T| and small
    beta, and differencing it only adds rounding.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ps, k = scale_to_unit(p, beta)
    log_e, _info = log_expectation(t, ps, k * u, 1.0)
    return 0.5 * t.volume * p.c1 * float(u @ u) - log_e / beta


def f_tilt_hessian(u, p: Potential, t: Torus, beta: float) -> tuple[np.ndarray, float]:
    """D^2 f(u) on a d = 1 torus from one conditioning pass, and its error.

    In the unit frame f''(u) = c1 m kappa(k u), with kappa from
    quadrature.conditioning_tilt_curvature, the doubling loop that also gives
    log_expectation its d = 1 log E, so no finite difference of f is taken;
    any potential takes this route, a compact one with its support.  A pure Gaussian
    has g = 0, hence D = 0 and f'' = c1 m exactly.  Returns the (1, 1) Hessian
    and c1 m times the curvature's error: its last doubling difference,
    floored at its rounding scale.
    """
    if t.d != 1:
        raise ValueError(f"f_tilt_hessian needs a d = 1 torus, got d = {t.d}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ps, k = scale_to_unit(p, beta)
    compact = compact_anharmonicity(ps)
    shifts = bond_args(t, np.zeros(t.volume), k * u).ravel()
    _log_e, kappa, info = conditioning_tilt_curvature(ps.g, shifts, 1.0, None if compact is None else compact[:2])
    m_c1 = t.volume * p.c1
    return np.array([[m_c1 * kappa]]), float(m_c1 * info["curvature_error"])


def free_energy(u, p: Potential, t: Torus, beta: float) -> float:
    """f = -(1/beta) log Z = f_tilt(u) plus the Gaussian part that does not depend on u.

    In the unit frame log Z^beta(u) = -(n/2) log(beta c1) + log Z^1(k u), and the
    exact Gaussian part of log Z^1 is (n/2) log(2 pi) - (1/2) log det of the
    pinned form.  By the matrix-tree theorem that determinant is the product
    of the nonzero torus eigenvalues over |T|, so the Gaussian part costs one
    sum over the closed-form spectrum.
    """
    tilt = f_tilt(u, p, t, beta)
    log_det = float(np.sum(np.log(spectrum(t)[1:]))) - math.log(t.volume)
    log_z_gauss = 0.5 * t.n_dof * math.log(2.0 * math.pi / (beta * p.c1)) - 0.5 * log_det
    return tilt - log_z_gauss / beta


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


def renorm_iterated_g(p: Potential, lam: float, u, t: Torus) -> float:
    """(R2 R1 G)(u, 0): integrate theta at scale lam, then psi at scale 1 - lam.

    The outer integrand exp(-R1G(u, psi)) is a Gaussian smoothing of the bond
    energy and hence smooth, so the outer layer uses GH with node doubling; the
    inner values at all nodes of one GH order come from one log_expectation
    call with the nodes as a batch of base fields.  Reach: one doubling of the
    outer GH grid must fit under GH_POINT_CAP (32^n_dof <= 2e7), so it serves
    Torus(1, m) only for m <= 5 (at most 4 free coordinates); beyond, it raises
    QuadratureError without evaluating the inner layer.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def outer_gfun(dof_batch):
        return -log_expectation(t, p, u, lam, psi_values=pinned(dof_batch))[0]

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
