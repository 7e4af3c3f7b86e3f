"""Deterministic integration backends for tiny-system Gaussian expectations.

Everything here evaluates log E[exp(-G(phi))] for phi a pinned Gaussian field
with Dirichlet weight exp(-||grad phi||^2 / (2 scale)) and G an anharmonic bond
energy (lattice.anharmonic_g).  log_expectation picks one route from its input
alone, with no fallback between routes:

  exact         a pure Gaussian (zero anharmonicity): log E = 0.
  mayer         compactly supported anharmonicity, any d, at most
                ORACLE_MAX_DOF free coordinates: exact inclusion-exclusion over
                bonds, E[prod_b (1 + b_b)] expanded into 2^B Gaussian moments
                of compactly supported factors, each integrated spectrally on
                its own box.  Subsets are pruned by rigorous magnitude bounds.
  conditioning  d = 1, any other input, any m, scale and base field: the m
                bond gradients are iid N(0, scale) conditioned to sum to zero,
                so log E is one convolution at zero, evaluated with FFTs on a
                periodic grid that doubles until converged.
  gh            d >= 2 otherwise: tensor-product Gauss-Hermite in
                gff.ModeBasis, the eigenbasis of the pinned form that
                sample_gff also draws in, with node doubling from
                GH_START_ORDER until the change drops below GH_TOL; raises
                QuadratureError when it does not converge by GH_MAX_ORDER or
                GH_POINT_CAP.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermitenorm

from .gff import ModeBasis, bond_matrix
from .lattice import Torus, anharmonic_g, bond_args, pinned
from .potentials import Potential

__all__ = [
    "QuadratureError",
    "compact_anharmonicity",
    "gh_log_expectation",
    "gh_log_expectation_doubling",
    "conditioning_log_expectation",
    "mayer_log_expectation",
    "log_expectation",
    "field_bond_map",
]

ORACLE_MAX_DOF = 5  # Mayer's reach; beyond it d = 1 is conditioned and d >= 2 is left to GH
EXACT_TOL = 1e-12  # Mayer's pruned-mass budget and the conditioning grid's convergence
GH_TOL = 1e-8  # GH stops doubling once successive orders differ by less

GH_START_ORDER = 16
GH_MAX_ORDER = 128
GH_POINT_CAP = 20_000_000  # tensor grids beyond this are declared non-convergent
GH_PRUNE = 1e-18  # tensor nodes below this fraction of the largest weight are dropped
GL_ORDER = 24
Y_CLIP = 9.0  # standard-normal tail beyond this contributes < 1e-18

COND_MIN_POINTS = 2**10
COND_MAX_POINTS = 2**20
COND_WIDTH = 18.0  # conditioning grid width over sqrt(scale * max(m, 4)): the circular wrap is below 1e-16


class QuadratureError(RuntimeError):
    """Raised when no backend can certify the requested tolerance."""


def compact_anharmonicity(p: Potential):
    """Return (lo, hi, h) when V(s) - s^2/2 is compactly supported, else None.

    h is the scalar anharmonicity; the certificate checks |h| <= 1e-10 on a probe
    grid outside the declared support and requires c1 = c2 = 1.
    """
    if p.g0_support is None or abs(p.c1 - 1.0) > 1e-12 or abs(p.c2 - 1.0) > 1e-12:
        return None
    lo, hi = p.g0_support

    def h(s):
        s = np.asarray(s, dtype=float)
        return p.v(s) - s * s / 2.0

    width = max(hi - lo, 1.0)
    probes = np.concatenate(
        [np.linspace(lo - 6 * width, lo - 1e-9, 64), np.linspace(hi + 1e-9, hi + 6 * width, 64)]
    )
    if np.max(np.abs(h(probes))) > 1e-10:
        return None
    return lo, hi, h


# ---------------------------------------------------------------------------
# Gauss-Hermite backend


@lru_cache(maxsize=32)
def _gh_rule(order: int):
    x, w = roots_hermitenorm(order)
    return x, w / math.sqrt(2.0 * math.pi)


def _gh_tensor(order: int, sigmas: np.ndarray):
    """Pruned tensor grid: nodes (n_pts, n), log-weights (n_pts,)."""
    x, w = _gh_rule(order)
    logw = np.log(w)
    n = len(sigmas)
    idx = np.meshgrid(*[np.arange(order)] * n, indexing="ij")
    logW = sum(logw[ii] for ii in idx).reshape(-1)
    keep = logW >= logW.max() + math.log(GH_PRUNE)
    pts = np.stack([sigmas[j] * x[idx[j]].reshape(-1)[keep] for j in range(n)], axis=-1)
    return pts, logW[keep]


def gh_log_expectation(gfun, t: Torus, scale: float, order: int) -> float:
    """One fixed-order tensor GH evaluation of log E[exp(-gfun(dof))]."""
    mb = ModeBasis.build(t)
    pts, logW = _gh_tensor(order, np.sqrt(scale / mb.lam))
    gv = gfun(pts @ mb.Q.T)
    m = np.max(logW - gv)
    return float(m + np.log(np.sum(np.exp(logW - gv - m))))


def gh_log_expectation_doubling(gfun, t: Torus, scale: float):
    """GH with node doubling from GH_START_ORDER to GH_TOL; returns (value, converged, last_delta, order).

    When not even one doubling fits under GH_POINT_CAP, convergence cannot be
    shown, so it returns (nan, False, inf, GH_START_ORDER) without calling gfun.
    """
    order = GH_START_ORDER
    if (2 * order) ** t.n_dof > GH_POINT_CAP:
        return math.nan, False, math.inf, order
    prev, delta = gh_log_expectation(gfun, t, scale, order), math.inf
    while 2 * order <= GH_MAX_ORDER and (2 * order) ** t.n_dof <= GH_POINT_CAP:
        order *= 2
        cur = gh_log_expectation(gfun, t, scale, order)
        delta = abs(cur - prev)
        if delta < GH_TOL:
            return cur, True, delta, order
        prev = cur
    return prev, False, delta, order


# ---------------------------------------------------------------------------
# conditioning backend (d = 1)


def conditioning_log_expectation(g, shifts: np.ndarray, scale: float = 1.0) -> tuple[float, dict]:
    """log E[exp(-sum_b g(shifts[b] + e_b))] for e iid N(0, scale) conditioned on sum(e) = 0.

    On the d = 1 torus these are the bond gradients of the pinned field, so the
    m - 1 dimensional integral is the convolution (f_1 * ... * f_m)(0) over
    N^{*m}(0), with f_b(e) = N(e) exp(-g(shifts[b] + e)).  Each f_b is sampled on
    one periodic grid and the convolution is a product of FFTs; writing
    f_b = N + r_b, the difference prod F_b - G^m is accumulated bond by bond, so
    log1p of its ratio to G^m keeps its relative precision when g is small.
    Bonds with equal shifts share one transform.  The grid doubles until two
    successive values differ by less than EXACT_TOL; returns (log E, {"error", "points"})
    and raises QuadratureError at COND_MAX_POINTS or on a non-finite value.
    """
    shifts = np.asarray(shifts, dtype=float).ravel()
    m = len(shifts)
    width = COND_WIDTH * math.sqrt(scale * max(m, 4))
    n, prev = COND_MIN_POINTS, None
    while n <= COND_MAX_POINTS:
        step = width / n
        e = step * ((np.arange(n) + n // 2) % n - n // 2)  # index 0 at e = 0
        gauss = np.exp(-0.5 * e * e / scale) * step / math.sqrt(2.0 * math.pi * scale)
        G = np.fft.rfft(gauss)
        P, D = np.ones_like(G), np.zeros_like(G)  # prod_{b<j} F_b and its excess over G^j
        for shift, count in zip(*np.unique(shifts, return_counts=True)):
            with np.errstate(all="ignore"):
                r = gauss * np.expm1(-g(shift + e))
            if not np.all(np.isfinite(r)):
                raise QuadratureError("conditioning backend: integrand is not finite")
            R = np.fft.rfft(r)
            F = G + R
            for _ in range(count):
                D = D * G + P * R
                P = P * F
        # both circular convolutions at e = 0: index 0 of the inverse transforms
        cur = math.log1p(np.fft.irfft(D, n)[0] / np.fft.irfft(G**m, n)[0])
        if not math.isfinite(cur):
            raise QuadratureError("conditioning backend: value is not finite")
        if prev is not None and abs(cur - prev) < EXACT_TOL:
            return cur, {"error": abs(cur - prev), "points": n}
        prev, n = cur, 2 * n
    raise QuadratureError(f"conditioning backend: no convergence below {EXACT_TOL} at {COND_MAX_POINTS} grid points")


# ---------------------------------------------------------------------------
# inclusion-exclusion (Mayer) backend for compact support


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _box_moment(F_S: np.ndarray, lo: np.ndarray, hi: np.ndarray, bfuns) -> float:
    """E[prod_b b_b((F_S z)_b)] for z standard normal, b_b supported on [lo_b, hi_b].

    Marginalizes the null space of F_S exactly and integrates the remaining
    coordinates with tensor Gauss-Legendre over the interval-arithmetic bounding
    rectangle of the support box.
    """
    U, sv, _ = np.linalg.svd(F_S, full_matrices=False)
    r = int(np.sum(sv > 1e-12 * max(sv[0], 1e-300)))
    if r == 0:
        out = 1.0
        for b, f in enumerate(bfuns):
            if lo[b] <= 0.0 <= hi[b]:
                out *= float(f(np.array([0.0]))[0])
            else:
                return 0.0
        return out
    A = U[:, :r] * sv[:r]  # zeta_S = A y, y ~ N(0, I_r)
    # bounding rectangle for y from zeta in the box: y = pinv(A) zeta
    P = np.linalg.pinv(A)
    ylo = np.sum(np.minimum(P * lo, P * hi), axis=1)
    yhi = np.sum(np.maximum(P * lo, P * hi), axis=1)
    ylo = np.maximum(ylo, -Y_CLIP)
    yhi = np.minimum(yhi, Y_CLIP)
    if np.any(ylo >= yhi):
        return 0.0
    x, w = _gl_rule(GL_ORDER)
    half = (yhi - ylo) / 2.0
    mid = (yhi + ylo) / 2.0
    axes = [mid[j] + half[j] * x for j in range(r)]
    grids = np.meshgrid(*axes, indexing="ij")
    Y = np.stack([g.reshape(-1) for g in grids], axis=-1)  # (n_pts, r)
    wts = np.ones(Y.shape[0])
    widx = np.meshgrid(*[np.arange(GL_ORDER)] * r, indexing="ij")
    for j in range(r):
        wts = wts * (half[j] * w[widx[j].reshape(-1)])
    Z = Y @ A.T  # (n_pts, |S|)
    vals = np.exp(-0.5 * np.sum(Y * Y, axis=1)) / (2.0 * math.pi) ** (r / 2.0)
    for b, f in enumerate(bfuns):
        vals = vals * f(Z[:, b])
    return float(wts @ vals)


def mayer_log_expectation(F: np.ndarray, shifts: np.ndarray, h, support: tuple[float, float]) -> tuple[float, float]:
    """log E[prod_b (1 + b_b)] with b_b(zeta) = exp(-h(shift_b + zeta_b)) - 1.

    F maps latent standard-normal coordinates to the per-bond arguments zeta.
    Returns (value, rigorous bound on the pruned mass, at most EXACT_TOL).
    Exact up to pruning and the spectral box quadrature.
    """
    lo_s, hi_s = support
    B = F.shape[0]
    grid = np.linspace(lo_s, hi_s, 2001)
    hvals = h(grid)
    bmax = float(max(np.exp(-hvals.min()) - 1.0, 1.0 - np.exp(-hvals.max())))
    if bmax == 0.0:
        return 0.0, 0.0
    sigma = np.sqrt(np.sum(F * F, axis=1))
    width = hi_s - lo_s
    # per-bond hit probability bound P(zeta_b in support); correlations between
    # bonds are unknown, so a subset bound may use only the single smallest one
    p_hit = np.minimum(1.0, width / np.maximum(sigma, 1e-300) / math.sqrt(2.0 * math.pi))

    lo = lo_s - shifts
    hi = hi_s - shifts

    def bfun(b):
        def f(z):
            return np.exp(-h(shifts[b] + z)) - 1.0

        return f

    bfuns_all = [bfun(b) for b in range(B)]
    total = 0.0
    pruned = 0.0
    for size in range(1, B + 1):
        for S in itertools.combinations(range(B), size):
            idx = list(S)
            bound = bmax**size * float(np.min(p_hit[idx]))
            if bound < EXACT_TOL / (2.0**B):
                pruned += bound
                continue
            total += _box_moment(F[idx, :], lo[idx], hi[idx], [bfuns_all[b] for b in idx])
    if total <= -1.0:
        raise QuadratureError("inclusion-exclusion sum left the domain of log1p")
    return math.log1p(total), pruned


# ---------------------------------------------------------------------------
# dispatch helpers


def field_bond_map(t: Torus, scale: float) -> np.ndarray:
    """Linear map from latent standard normal modes to bond gradients at a scale.

    Rows are ordered axis-major like bond_matrix and like bond_args(...).ravel().
    """
    mb = ModeBasis.build(t)
    return bond_matrix(t) @ mb.Q @ np.diag(np.sqrt(scale / mb.lam))


def log_expectation(
    t: Torus, p: Potential, u: np.ndarray, scale: float = 1.0, psi_values: np.ndarray | None = None
) -> tuple[float, dict]:
    """log E[exp(-G(u, psi + phi))] for phi a pinned field at the given scale.

    p must be unit-scaled (c1 = 1).  Returns (log E, info) with info["method"]
    the route, chosen from the input alone: "exact" for a pure Gaussian,
    "mayer" for compact anharmonicity in any d at most ORACLE_MAX_DOF free
    coordinates, then "conditioning" for any other input in d = 1 and "gh"
    with node doubling in d >= 2, which raises QuadratureError when
    unconverged.
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("log_expectation requires a unit-scaled potential (c1 = 1)")
    base = np.zeros(t.volume) if psi_values is None else psi_values
    compact = compact_anharmonicity(p)
    if compact is not None:
        lo, hi, h = compact
        if hi - lo <= 0.0:
            return 0.0, {"method": "exact", "error": 0.0}
        if t.n_dof <= ORACLE_MAX_DOF:
            F = field_bond_map(t, scale)
            val, pruned = mayer_log_expectation(F, bond_args(t, base, u).ravel(), h, (lo, hi))
            return val, {"method": "mayer", "error": pruned}
    if t.d == 1:
        val, info = conditioning_log_expectation(lambda s: p.v(s) - 0.5 * s * s, bond_args(t, base, u), scale)
        return val, {"method": "conditioning", **info}

    def gfun(dof_batch):
        return anharmonic_g(t, u, pinned(dof_batch) + base, p)

    val, converged, delta, order = gh_log_expectation_doubling(gfun, t, scale)
    if not converged:
        raise QuadratureError(f"GH did not converge below {GH_TOL} by order {order} under its caps (last delta {delta:.3e})")
    return val, {"method": "gh", "error": delta, "order": order}
