"""Fourier modes of the lattice Dirichlet energy and exact Gaussian field sampling.

The torus Laplacian is circulant: its eigenvalues are the closed-form spectrum
sum_i 4 sin^2(pi k_i / m), with the real Fourier modes as eigenvectors.  The
pinned Gaussian measure exp(-||grad phi||^2 / 2) on the dof vectors (origin
value fixed at zero) is the image of the zero-mean torus field S w, w_k of
variance 1 / lam_k, under phi = S w - (S w)(0): subtracting a constant leaves
every gradient unchanged.  The quadrature backends integrate over the mode
amplitudes w and sample_gff draws them, so one basis serves both.  Pinning
enters the spectrum only through the Poincare constant and the log det of the
pinned form, both closed-form sums over the spectrum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import Torus, Field

__all__ = [
    "spectrum",
    "fourier_modes",
    "sample_gff",
    "poincare_constant",
]

DENSE_CAP = 4096  # largest volume whose dense volume x (volume - 1) mode matrix is formed


def spectrum(t: Torus) -> np.ndarray:
    """Circulant eigenvalues sum_i 4 sin^2(pi k_i / m) over all modes k, row-major like the sites, zero first.

    Each k_i is folded to min(k_i, m - k_i), so k and -k carry bitwise equal eigenvalues.
    """
    ks = np.arange(t.m)
    ks = np.minimum(ks, t.m - ks)
    axis_eig = 4.0 * np.sin(np.pi * ks / t.m) ** 2
    mu = np.zeros((t.m,) * t.d)
    for i in range(t.d):
        shape = [1] * t.d
        shape[i] = t.m
        mu = mu + axis_eig.reshape(shape)
    return mu.ravel()


@lru_cache(maxsize=64)
def fourier_modes(t: Torus) -> tuple[np.ndarray, np.ndarray]:
    """(lam, S): the nonzero eigenvalues of the torus Laplacian and its real orthonormal modes S[x, j].

    For each pair k != -k the columns sqrt(2 / V) cos(2 pi k.x / m) and
    sqrt(2 / V) sin(2 pi k.x / m), for each self-conjugate k != 0 (all k_i in
    {0, m/2}) the one column cos(2 pi k.x / m) / sqrt(V); the zero mode is
    dropped, so S is volume x (volume - 1).  Read-only; raises ValueError
    beyond volume DENSE_CAP.
    """
    if t.volume > DENSE_CAP:
        raise ValueError(f"dense Fourier modes capped at volume {DENSE_CAP}, got {t.volume}")
    shape = (t.m,) * t.d
    coords = np.stack(np.unravel_index(np.arange(t.volume), shape), axis=1)  # a site x and a mode k alike
    conj = np.ravel_multi_index(tuple((-coords.T) % t.m), shape)
    idx = np.arange(t.volume)
    pair, self_conj = idx < conj, (idx == conj) & (idx > 0)
    keep = pair | self_conj
    angle = (2.0 * np.pi / t.m) * ((coords @ coords[keep].T) % t.m)
    cos = np.cos(angle) * np.where(pair[keep], np.sqrt(2.0 / t.volume), np.sqrt(1.0 / t.volume))
    sin = np.sin(angle[:, pair[keep]]) * np.sqrt(2.0 / t.volume)
    S = np.concatenate([cos, sin], axis=1)
    mu = spectrum(t)
    lam = np.concatenate([mu[keep], mu[pair]])
    for a in (lam, S):
        a.flags.writeable = False
    return lam, S


def sample_gff(t: Torus, variance_scale: float, rng: np.random.Generator, n_samples: int | None = None):
    """Draw pinned Gaussian fields with Dirichlet weight exp(-||grad||^2 / (2 scale)).

    Returns a Field for n_samples None, else an (n_samples, volume) array of
    pinned site values.
    """
    if not 0.0 < variance_scale <= 1.0:
        raise ValueError(f"variance_scale must be in (0, 1], got {variance_scale}")
    lam, S = fourier_modes(t)
    n = 1 if n_samples is None else n_samples
    z = rng.standard_normal((n, t.n_dof))
    fields = (z * np.sqrt(variance_scale / lam)) @ S.T
    sites = fields - fields[:, :1]
    if n_samples is None:
        return Field(t, sites[0])
    return sites


def poincare_constant(t: Torus) -> float:
    """delta_m, the smallest Rayleigh quotient ||grad eta||^2 / ||eta||^2 over pinned fields.

    It is the smallest eigenvalue of the pinned Dirichlet form, the torus
    Laplacian without the origin's row and column.  Every Fourier mode has
    weight 1/V at the origin, so that form's eigenvalues mu are the roots of
    sum_k 1 / (lam_k - mu) = 0 over all V modes, the zero mode included; the
    sum increases from -inf to +inf on (0, lam_1), and bisection finds its root
    there to the last bit.
    """
    lam = spectrum(t)
    lo, hi = 0.0, float(np.min(lam[1:]))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if np.sum(1.0 / (lam - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
