"""Deterministic integration backends for tiny-system Gaussian expectations.

Everything here evaluates log E[exp(-G(phi))] for phi a pinned Gaussian field
with Dirichlet weight exp(-||grad phi||^2 / (2 scale)) and G an anharmonic bond
energy (lattice.anharmonic_g in log_expectation), through one of three routes:

  gh        tensor-product Gauss-Hermite in gff.ModeBasis, the eigenbasis of the
            pinned form that sample_gff also draws in, with node doubling until
            the change drops below tol; right for integrands that are smooth on
            the scale of the Gaussian.
  adaptive  iterated, locally adaptive Gauss-Kronrod (QUADPACK's 21/10-point
            pair) over the mode coordinates (n_dof <= 2 only), batched so that
            each refinement round is one integrand call; robust to narrow
            features the GH nodes cannot see, and it raises QuadratureError
            rather than return an unconverged value.
  mayer     exact inclusion-exclusion over bonds for anharmonicities of compact
            support: E[prod_b (1 + b_b)] expands into 2^B Gaussian moments of
            compactly supported factors, each integrated spectrally on its own
            box.  Subsets are pruned by rigorous magnitude bounds.

The mayer route also handles the two-field integral behind the decomposition
identity: the latent standard-normal coordinates of both fields enter one linear
map, directions the integrand ignores marginalize to one exactly, and the rest
is a low-dimensional box integral.
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
    "adaptive_log_expectation",
    "mayer_log_expectation",
    "log_expectation",
    "field_bond_map",
]

GH_MIN_ORDER = 8
GH_MAX_ORDER = 128
GH_POINT_CAP = 20_000_000  # tensor grids beyond this are declared non-convergent
GL_ORDER = 24
Y_CLIP = 9.0  # standard-normal tail beyond this contributes < 1e-18

# QUADPACK qk21: 21-point Kronrod nodes on [0, 1] (the odd entries are the 10-point
# Gauss nodes), their Kronrod weights, and the Gauss weights (zero off the Gauss nodes)
_GK21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK21_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980242240, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
)
# the rule on [-1, 1]: 21 nodes and the weight columns [Kronrod, Gauss]
GK21_NODES = np.concatenate([np.negative(_GK21_X), _GK21_X[-2::-1]])
GK21_WEIGHTS = np.array([_GK21_WK + _GK21_WK[-2::-1], _GK21_WG + _GK21_WG[-2::-1]]).T
GK_MAX_DEPTH = 40  # bisections of one panel before the adaptive backend gives up
GK_MAX_PANELS = 512  # active panels of one integral in one round; bounds the work like QUADPACK's limit


class QuadratureError(RuntimeError):
    """Raised when no backend can certify the requested tolerance."""


def compact_anharmonicity(p: Potential, certify_tol: float = 1e-10):
    """Return (lo, hi, h) when V(s) - s^2/2 is compactly supported, else None.

    h is the scalar anharmonicity; the certificate checks h vanishes on a probe
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
    if np.max(np.abs(h(probes))) > certify_tol:
        return None
    return lo, hi, h


# ---------------------------------------------------------------------------
# Gauss-Hermite backend


@lru_cache(maxsize=32)
def _gh_rule(order: int):
    x, w = roots_hermitenorm(order)
    return x, w / math.sqrt(2.0 * math.pi)


def _gh_tensor(order: int, sigmas: np.ndarray, prune: float):
    """Pruned tensor grid: nodes (n_pts, n), log-weights (n_pts,)."""
    x, w = _gh_rule(order)
    logw = np.log(w)
    n = len(sigmas)
    idx = np.meshgrid(*[np.arange(order)] * n, indexing="ij")
    logW = sum(logw[ii] for ii in idx).reshape(-1)
    keep = logW >= logW.max() + math.log(prune)
    pts = np.stack([sigmas[j] * x[idx[j]].reshape(-1)[keep] for j in range(n)], axis=-1)
    return pts, logW[keep]


def gh_log_expectation(gfun, t: Torus, scale: float, order: int, prune: float = 1e-18, envelope: float = 1.0) -> float:
    """One fixed-order tensor GH evaluation of log E[exp(-gfun(dof))].

    envelope != 1 widens (or narrows) the sampling Gaussian by that variance
    factor and reweights the integrand by the exact density ratio, which helps
    when the integrand puts mass outside the natural envelope.
    """
    mb = ModeBasis.build(t)
    sigmas = np.sqrt(envelope * scale / mb.lam)
    pts, logW = _gh_tensor(order, sigmas, prune)
    dof = pts @ mb.Q.T
    gv = gfun(dof)
    if envelope != 1.0:
        # density ratio between the target and widened Gaussians
        quad = np.sum((pts / sigmas) ** 2 * (envelope - 1.0), axis=1)
        logW = logW + 0.5 * t.n_dof * math.log(envelope) - 0.5 * quad
    m = np.max(logW - gv)
    return float(m + np.log(np.sum(np.exp(logW - gv - m))))


def gh_log_expectation_doubling(
    gfun,
    t: Torus,
    scale: float,
    order0: int = GH_MIN_ORDER,
    tol: float = 1e-8,
    order_cap: int = GH_MAX_ORDER,
    envelope: float = 1.0,
):
    """GH with node doubling; returns (value, converged, last_delta, order)."""
    order = max(GH_MIN_ORDER, order0)
    prev = gh_log_expectation(gfun, t, scale, order, envelope=envelope)
    while 2 * order <= order_cap and (2 * order) ** t.n_dof <= GH_POINT_CAP:
        order *= 2
        cur = gh_log_expectation(gfun, t, scale, order, envelope=envelope)
        if abs(cur - prev) < tol:
            return cur, True, abs(cur - prev), order
        prev = cur
    return prev, False, math.inf, order


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod backend (n_dof <= 2)


def _gk_adaptive(integrand, half_width: np.ndarray, epsabs: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate integrand over [-half_width[p], half_width[p]] for every problem p at once.

    integrand(prob, x) -> (values, errors) at the points x of problems prob; errors
    is the absolute error already in those values (0 for exact values).  Each round
    evaluates the GK21 rule on every active panel in one integrand call; a panel is
    accepted when |K21 - G10| <= epsabs * width / (2 half_width), else bisected.
    Returns (integrals, errors): per problem the sums over accepted panels of K21 and
    of |K21 - G10| plus the Kronrod-weighted error of the values.
    """
    n_prob = len(half_width)
    prob = np.arange(n_prob)
    lo, hi = -half_width, half_width
    total = np.zeros(n_prob)
    error = np.zeros(n_prob)
    for _depth in range(GK_MAX_DEPTH + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * GK21_NODES
        fv, fe = integrand(np.repeat(prob, len(GK21_NODES)), x.ravel())
        fv = fv.reshape(x.shape)
        if not np.all(np.isfinite(fv)):
            raise QuadratureError("adaptive backend: integrand is not finite")
        kronrod, gauss = (half[:, None] * (fv @ GK21_WEIGHTS)).T
        gap = np.abs(kronrod - gauss)
        ok = gap <= epsabs * half / half_width[prob]
        err = gap + half * (fe.reshape(x.shape) @ GK21_WEIGHTS[:, 0])
        np.add.at(total, prob[ok], kronrod[ok])
        np.add.at(error, prob[ok], err[ok])
        if ok.all():
            return total, error
        prob, lo, hi, mid = prob[~ok], lo[~ok], hi[~ok], mid[~ok]
        if 2 * np.bincount(prob).max() > GK_MAX_PANELS:
            raise QuadratureError(f"adaptive backend: more than {GK_MAX_PANELS} panels in one integral")
        prob = np.repeat(prob, 2)
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    raise QuadratureError(f"adaptive backend: no convergence after {GK_MAX_DEPTH} bisections")


def adaptive_log_expectation(gfun, t: Torus, scale: float, tol: float = 1e-10) -> tuple[float, float]:
    """Iterated adaptive Gauss-Kronrod quadrature over mode coordinates; returns (log E, rel error).

    Only n_dof <= 2 is supported.  Each mode coordinate w_j is integrated over
    +-10 sigma_j against its Gaussian weight (absolute tolerance tol 1e-2 for the
    outer, tol 1e-3 for the inner integral); for n_dof = 2 the inner integrals of
    every outer node of a refinement round form one batch, so each round of each
    level makes one gfun call.  The error is the sum of the accepted panels'
    |K21 - G10|, inner errors included, over the value.
    """
    mb = ModeBasis.build(t)
    n = t.n_dof
    if n > 2:
        raise QuadratureError(f"adaptive backend supports n_dof <= 2, got {n}")
    sigmas = np.sqrt(scale / mb.lam)
    lims = 10.0 * sigmas
    epsabs = (tol * 1e-2, tol * 1e-3)
    log_norm = sum(0.5 * math.log(2.0 * math.pi) + math.log(s) for s in sigmas)

    def integrate(prefix: np.ndarray):
        # integrate mode coordinate `level` with the leading ones fixed at prefix[p]
        level = prefix.shape[1]

        def integrand(prob, x):
            w = np.column_stack([prefix[prob], x])
            log_gauss = -0.5 * (x / sigmas[level]) ** 2
            if level == n - 1:
                return np.exp(-gfun(w @ mb.Q.T) + log_gauss), np.zeros(len(x))
            inner, inner_err = integrate(w)
            gauss = np.exp(log_gauss)
            return gauss * inner, gauss * inner_err

        return _gk_adaptive(integrand, np.full(len(prefix), lims[level]), epsabs[level])

    (val,), (err,) = integrate(np.empty((1, 0)))
    return math.log(val) - log_norm, err / val


# ---------------------------------------------------------------------------
# inclusion-exclusion (Mayer) backend for compact support


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _box_moment(F_S: np.ndarray, lo: np.ndarray, hi: np.ndarray, bfuns, gl_order: int) -> float:
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
    x, w = _gl_rule(gl_order)
    half = (yhi - ylo) / 2.0
    mid = (yhi + ylo) / 2.0
    axes = [mid[j] + half[j] * x for j in range(r)]
    grids = np.meshgrid(*axes, indexing="ij")
    Y = np.stack([g.reshape(-1) for g in grids], axis=-1)  # (n_pts, r)
    wts = np.ones(Y.shape[0])
    widx = np.meshgrid(*[np.arange(gl_order)] * r, indexing="ij")
    for j in range(r):
        wts = wts * (half[j] * w[widx[j].reshape(-1)])
    Z = Y @ A.T  # (n_pts, |S|)
    vals = np.exp(-0.5 * np.sum(Y * Y, axis=1)) / (2.0 * math.pi) ** (r / 2.0)
    for b, f in enumerate(bfuns):
        vals = vals * f(Z[:, b])
    return float(wts @ vals)


def mayer_log_expectation(
    F: np.ndarray,
    shifts: np.ndarray,
    h,
    support: tuple[float, float],
    tol: float = 1e-12,
    gl_order: int = GL_ORDER,
) -> tuple[float, float]:
    """log E[prod_b (1 + b_b)] with b_b(zeta) = exp(-h(shift_b + zeta_b)) - 1.

    F maps latent standard-normal coordinates to the per-bond arguments zeta.
    Returns (value, rigorous bound on the pruned mass).  Exact up to pruning and
    the spectral box quadrature.
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
            if bound < tol / (2.0**B):
                pruned += bound
                continue
            total += _box_moment(F[idx, :], lo[idx], hi[idx], [bfuns_all[b] for b in idx], gl_order)
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
    t: Torus,
    p: Potential,
    u: np.ndarray,
    scale: float = 1.0,
    psi_values: np.ndarray | None = None,
    order0: int = GH_MIN_ORDER,
    tol: float = 1e-8,
    order_cap: int = GH_MAX_ORDER,
    envelope: float = 1.0,
) -> tuple[float, dict]:
    """log E[exp(-G(u, psi + phi))] for phi a pinned field at the given scale.

    p must be unit-scaled (c1 = 1).  Dispatch: exact zero for pure Gaussians,
    Mayer expansion for compact anharmonicity, else GH with node doubling and an
    adaptive fallback when n_dof <= 2.
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("log_expectation requires a unit-scaled potential (c1 = 1)")
    base = np.zeros(t.volume) if psi_values is None else psi_values
    compact = compact_anharmonicity(p)
    if compact is not None:
        lo, hi, h = compact
        if hi - lo <= 0.0:
            return 0.0, {"method": "exact", "error": 0.0}
        F = field_bond_map(t, scale)
        shifts = bond_args(t, base, u).ravel()
        val, pruned = mayer_log_expectation(F, shifts, h, (lo, hi), tol=min(tol, 1e-12))
        return val, {"method": "mayer", "error": pruned}

    def gfun(dof_batch):
        return anharmonic_g(t, u, pinned(dof_batch) + base, p)

    val, converged, delta, order = gh_log_expectation_doubling(gfun, t, scale, order0, tol, order_cap, envelope)
    if converged:
        return val, {"method": "gh", "error": delta, "order": order}
    if t.n_dof <= 2:
        val, err = adaptive_log_expectation(gfun, t, scale, tol=min(tol, 1e-10))
        return val, {"method": "adaptive", "error": err}
    raise QuadratureError(
        f"GH did not converge below {tol} at order cap {order_cap} (last delta {delta:.3e}) "
        f"and n_dof = {t.n_dof} excludes the adaptive fallback"
    )
