"""Torus geometry, pinned fields, discrete gradients, and energy evaluations.

Sites of the d-dimensional discrete torus of side m are indexed row-major over
(x_1, ..., x_d); the origin has index 0 and its field value is pinned to zero.
The energy of a configuration under tilt u is

    H(u, phi) = sum_x sum_i V(grad_i phi(x) + u_i),

with V = V0 + g0 from the potentials module.  The inverse temperature is never
folded into H; it enters only through Gibbs weights exp(-beta H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .potentials import Potential

__all__ = [
    "Torus",
    "Field",
    "grad_all",
    "pinned",
    "bond_args",
    "bond_kernel",
    "bond_divergence",
    "grad_norm_sq",
    "anharmonic_g",
]


@dataclass(frozen=True)
class Torus:
    """Periodic lattice (Z/mZ)^d with the neighbor gather tables of the bond kernels."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 2:
            raise ValueError(f"need d >= 1 and m >= 2, got d={self.d}, m={self.m}")

    @property
    def volume(self) -> int:
        return self.m**self.d

    @property
    def n_dof(self) -> int:
        """Free coordinates once the origin is pinned."""
        return self.volume - 1

    @cached_property
    def forward(self) -> np.ndarray:
        """forward[i, x] = flat index of x + e_i, shape (d, volume)."""
        idx = np.arange(self.volume).reshape((self.m,) * self.d)
        return np.stack([np.roll(idx, -1, axis=i).ravel() for i in range(self.d)])

    @cached_property
    def backward(self) -> np.ndarray:
        """backward[i, x] = flat index of x - e_i."""
        idx = np.arange(self.volume).reshape((self.m,) * self.d)
        return np.stack([np.roll(idx, 1, axis=i).ravel() for i in range(self.d)])

    @cached_property
    def backward_flat(self) -> np.ndarray:
        """backward_flat[i, x] = i * volume + backward[i, x]: bond (i, x - e_i) in a flattened (d, V) bond array."""
        return self.backward + self.volume * np.arange(self.d)[:, None]


@dataclass
class Field:
    """Real field on the torus pinned to zero at the origin."""

    torus: Torus
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.torus.volume,):
            raise ValueError(f"expected {self.torus.volume} site values, got shape {self.values.shape}")
        if self.values[0] != 0.0:
            raise ValueError("field must vanish at the origin")

    @classmethod
    def zeros(cls, torus: Torus) -> "Field":
        return cls(torus, np.zeros(torus.volume))

    @classmethod
    def from_dof(cls, torus: Torus, dof: np.ndarray) -> "Field":
        return cls(torus, pinned(dof))


def pinned(dof: np.ndarray) -> np.ndarray:
    """Site values of pinned fields from dof vectors: dof[..., V - 1] -> values[..., V]."""
    dof = np.asarray(dof, dtype=float)
    return np.concatenate((np.zeros(dof.shape[:-1] + (1,)), dof), axis=-1)


def grad_all(t: Torus, values: np.ndarray) -> np.ndarray:
    """All forward differences, values[..., V] -> [..., d, V]: grad[..., i, x] = phi(x+e_i) - phi(x)."""
    values = np.asarray(values, dtype=float)
    return values.take(t.forward, axis=-1) - values[..., None, :]


def bond_args(t: Torus, values: np.ndarray, u) -> np.ndarray:
    """Bond arguments u_i + grad_i phi(x) of batched fields: values[..., V], u[..., d] -> [..., d, V].

    Elementwise per leading index, so a row's result does not depend on the batch.
    """
    return grad_all(t, values) + np.asarray(u, dtype=float)[..., :, None]


def bond_kernel(t: Torus, shift):
    """Dof vectors X[..., V - 1] -> (grad, grad + shift), each [..., d, V]; grad is bitwise grad_all(pinned(X)).

    A zero-padded site buffer and shift as a full array are laid out once per leading shape of X, so
    a call is one copy, one gather, an in-place subtract and one same-shape add (single-threaded).
    """
    layouts = {}

    def kernel(X):
        lead = X.shape[:-1]
        if lead not in layouts:
            layouts[lead] = np.zeros(lead + (t.volume,)), np.broadcast_to(shift, lead + (t.d, t.volume)).copy()
        pad, full_shift = layouts[lead]
        pad[..., 1:] = X
        grad = pad.take(t.forward, axis=-1)
        grad -= pad[..., None, :]
        return grad, grad + full_shift

    return kernel


def bond_divergence(t: Torus, w: np.ndarray) -> np.ndarray:
    """Adjoint of grad_all on dof vectors: sum_i [w_i(x - e_i) - w_i(x)] over non-origin x.

    w[..., d, V] -> [..., V - 1]; the derivative of sum w(grad phi) with respect to phi.
    One gather over the flattened bonds, then a sum over the axes in order i = 0, 1, ...
    """
    diff = w.reshape(w.shape[:-2] + (-1,)).take(t.backward_flat, axis=-1)
    diff -= w
    out = diff[..., 0, 1:]
    for i in range(1, t.d):
        out = out + diff[..., i, 1:]
    return out


def grad_norm_sq(t: Torus, values: np.ndarray) -> float:
    """Dirichlet energy ||grad phi||^2 summed over sites and axes."""
    return float(np.sum(grad_all(t, values) ** 2))


def anharmonic_g(t: Torus, u, values: np.ndarray, p: Potential) -> np.ndarray:
    """G(u, phi) = sum_{x,i} g(u_i + grad_i phi(x)) with g(s) = V(s) - s^2/2, read as p.g.

    p must be unit-scaled (c1 = 1).  Batched like bond_args: values[..., V], u[d]
    or u[..., d] -> [...].  Each row is summed over its own (d, V) bonds, so its
    value does not depend on the batch.
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("anharmonic_g requires a unit-scaled potential (c1 = 1)")
    w = p.g(bond_args(t, values, u))
    return w.reshape(w.shape[:-2] + (-1,)).sum(axis=-1)
