"""Deterministic integration backends for tiny-system Gaussian expectations.

Everything here evaluates log E[exp(-G(psi + phi))] for phi a pinned Gaussian
field with Dirichlet weight exp(-||grad phi||^2 / (2 scale)), psi a base field
(zero by default, or a batch of them, one per row) and G the anharmonic bond
energy, the sum of the closed-form Potential.g over the bonds
(lattice.anharmonic_g).  log_expectation picks one route from its input alone,
with no fallback between routes:

  exact         a pure Gaussian (zero anharmonicity): log E = 0.
  mayer         compactly supported anharmonicity, any d, at most
                ORACLE_MAX_DOF free coordinates: exact inclusion-exclusion over
                bonds, E[prod_b (1 + b_b)] expanded into 2^B Gaussian moments
                of compactly supported factors.  Each subset is integrated in
                bond coordinates: a maximal independent set of its bonds spans
                the rest, and tensor Gauss-Legendre runs over the independent
                bonds' arguments, whose support edges are the rule's end
                points.  Subsets are pruned by rigorous magnitude bounds.  The
                geometry and the pruning depend on the torus and scale alone:
                a subset's geometry is kept across calls, and one call serves
                a whole batch of base fields, in grid slabs of SLAB_VALUES.
  conditioning  d = 1, any other input, any m, scale and base field: the m
                bond gradients are iid N(0, scale) conditioned to sum to zero,
                so log E is one convolution at zero: per-bond transforms on
                a periodic grid (rffts of samples, or for compact g exact
                Gauss-Legendre transforms over the support, in frequency
                slices of SLAB_VALUES) and one sum over the half spectrum.
                One doubling loop (conditioning_tilt_curvature) gives log E
                and its curvature in a uniform bond shift, the d = 1 tilt
                Hessian, and stops once both errors, floored at rounding, are
                below EXACT_TOL.
  gh            d >= 2 otherwise: tensor-product Gauss-Hermite over the
                amplitudes of gff.fourier_modes, the torus's real Fourier
                modes that sample_gff also draws in, with node doubling from
                GH_START_ORDER until the change drops below GH_TOL; raises
                QuadratureError when it does not converge by GH_MAX_ORDER or
                GH_POINT_CAP.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .gff import fourier_modes
from .lattice import Torus, anharmonic_g, bond_args, grad_all, pinned
from .potentials import Potential

__all__ = [
    "QuadratureError",
    "compact_anharmonicity",
    "gh_log_expectation",
    "gh_log_expectation_doubling",
    "conditioning_tilt_curvature",
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
SLAB_VALUES = 2**16  # values one slab of an oracle route holds: Mayer grid points, phase entries, r1g's working set
Y_CLIP = 9.0  # standard-normal tail beyond this contributes < 1e-18

COND_MIN_POINTS = 2**10
COND_MAX_POINTS = 2**20
COND_WIDTH = 18.0  # conditioning grid width over sqrt(scale * max(m, 4)): the circular wrap is below 1e-16
COND_PANEL_STEPS = 8.0  # a compact bond's GL_ORDER-node panels span at most this many grid steps: 4 turns at Nyquist
COND_EXACT_VALUES = 2**20  # most frequencies times nodes of one exact bond transform (grows as n^2); beyond, sample


class QuadratureError(RuntimeError):
    """Raised when no backend can certify the requested tolerance."""


def compact_anharmonicity(p: Potential):
    """Return (lo, hi, p.g) when the anharmonic part g = V - s^2/2 is compactly supported, else None.

    The certificate checks |g| <= 1e-10 on a probe grid outside the declared
    support and requires c1 = c2 = 1.
    """
    if p.g0_support is None or abs(p.c1 - 1.0) > 1e-12 or abs(p.c2 - 1.0) > 1e-12:
        return None
    lo, hi = p.g0_support
    width = max(hi - lo, 1.0)
    probes = np.concatenate(
        [np.linspace(lo - 6 * width, lo - 1e-9, 64), np.linspace(hi + 1e-9, hi + 6 * width, 64)]
    )
    if np.max(np.abs(p.g(probes))) > 1e-10:
        return None
    return lo, hi, p.g


# ---------------------------------------------------------------------------
# Gauss-Hermite backend


@lru_cache(maxsize=32)
def _gh_rule(order: int):
    x, w = np.polynomial.hermite_e.hermegauss(order)  # probabilists' rule, weights sum to sqrt(2 pi)
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
    """One fixed-order tensor GH evaluation of log E[exp(-gfun(dof))].

    The nodes are Fourier amplitudes w of gff.fourier_modes, mapped to dof = S w - (S w)(0).
    """
    lam, S = fourier_modes(t)
    pts, logW = _gh_tensor(order, np.sqrt(scale / lam))
    fields = pts @ S.T
    gv = gfun(fields[:, 1:] - fields[:, :1])
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


def _at_zero(X: np.ndarray, n: int) -> tuple[float, float]:
    """irfft(X, n)[0] for a half spectrum X, n even, as the O(n) sum (Re X_0 + 2 sum_{0<k<n/2} Re X_k + Re X_{n/2}) / n.

    Returns it and its rounding scale, eps times the same sum of the |Re X_k|.
    """
    re = X.real
    size = np.abs(re)
    total = re[0] + 2.0 * re[1:-1].sum() + re[-1]
    return float(total) / n, np.finfo(float).eps * float(size[0] + 2.0 * size[1:-1].sum() + size[-1]) / n


def _compact_transform(g, shift: float, support, scale: float, w: np.ndarray, panels: int) -> np.ndarray:
    """int N(e) expm1(-g(shift + e)) exp(-i w e) de at the frequencies w, N the N(0, scale) density.

    The integrand vanishes off [lo - shift, hi - shift] for g's support
    (lo, hi); cut to +-Y_CLIP sqrt(scale), inside the grid's window, that is
    split into `panels` equal Gauss-Legendre panels, so the C^2 edges are
    panel ends.  An empty cut has zero weights and gives 0.  The phase matrix
    (frequencies x nodes) is formed in slices of at most SLAB_VALUES entries
    (one frequency per slice beyond that many nodes).
    """
    cut = Y_CLIP * math.sqrt(scale)
    lo = max(support[0] - shift, -cut)
    width = max(min(support[1] - shift, cut) - lo, 0.0) / panels
    x, wt = _gl_rule(GL_ORDER)
    e = (lo + width * (np.arange(panels)[:, None] + 0.5 * (x + 1.0))).ravel()
    f = np.tile(0.5 * width * wt, panels) * np.exp(-0.5 * e * e / scale) * np.expm1(-g(shift + e))
    out = np.empty(len(w), dtype=complex)
    rows = max(1, SLAB_VALUES // len(e))
    for k in range(0, len(w), rows):
        phase = np.multiply.outer(w[k : k + rows], e)
        out[k : k + rows] = np.cos(phase) @ f - 1j * (np.sin(phase, out=phase) @ f)
    return out / math.sqrt(2.0 * math.pi * scale)


def _conditioning_grid(g, shifts: np.ndarray, counts: np.ndarray, scale: float, n: int, support=None):
    """The excess ratios (rho0, rho1, rho2) on the n-point grid, each a (value, rounding scale) pair.

    K = f_1 * ... * f_m with f_b(e) = N(e) exp(-g(s_b + e)), e_b iid N(0, scale)
    and counts[i] bonds at the distinct shift shifts[i]; K_G = N^{*m} is K at
    g = 0.  On one periodic grid centred on e = 0 the excess D = prod F_b - G^m
    is accumulated bond by bond (f_b = N + r_b), so ratios to K_G keep their
    relative precision when g is small.  G and each distinct R_b are the rffts
    of N's and r_b's samples; given g's compact support (lo, hi), where r_b's
    C^2 edges make the samples converge as O(step^4), R_b is instead r_b's
    exact transform at the rfft frequencies (_compact_transform, panels of at
    most COND_PANEL_STEPS steps) while its product holds COND_EXACT_VALUES.
    rho_j = D^(j)(0) / K_G(0) are the at-zero sums (_at_zero) of Re D, -w Im D
    and -w^2 Re D, the real parts of (i w)^j D, over K_G(0).  Raises
    QuadratureError on a non-finite integrand or unless 1 + rho0 is finite and
    positive: at large beta and m the excess cancels K_G to rounding, which a
    Cramer-tilted grid (centred on the tilted density's mean) would serve;
    that grid is not built.
    """
    m = int(counts.sum())
    step = COND_WIDTH * math.sqrt(scale * max(m, 4)) / n
    e = step * ((np.arange(n) + n // 2) % n - n // 2)  # index 0 at e = 0
    gauss = np.exp(-0.5 * e * e / scale) * step / math.sqrt(2.0 * math.pi * scale)
    G = np.fft.rfft(gauss)
    w = 2.0 * math.pi * np.fft.rfftfreq(n, step)  # Im D is 0 in the real Nyquist bin
    width = 0.0 if support is None else min(support[1] - support[0], 2.0 * Y_CLIP * math.sqrt(scale))
    panels = math.ceil(width / (COND_PANEL_STEPS * step))
    exact = 0 < len(w) * panels * GL_ORDER <= COND_EXACT_VALUES
    P, D = np.ones_like(G), np.zeros_like(G)  # prod_{b<j} F_b and its excess over G^j
    for shift, count in zip(shifts, counts):
        with np.errstate(all="ignore"):  # an overflowing excess is caught by the rho0 check below
            if exact:
                R = _compact_transform(g, shift, support, scale, w, panels)
            else:
                R = np.fft.rfft(gauss * np.expm1(-g(shift + e)))
            if not np.all(np.isfinite(R)):
                raise QuadratureError("conditioning backend: integrand is not finite")
            F = G + R
            for _ in range(count):
                D = D * G + P * R
                P = P * F
    k_gauss, k_round = _at_zero(G**m, n)

    def ratio(X):  # an at-zero sum over K_G(0), and its rounding scale
        val, val_round = _at_zero(X, n)
        return val / k_gauss, (val_round + abs(val) * k_round / k_gauss) / k_gauss

    rho0 = ratio(D)
    if not (math.isfinite(rho0[0]) and rho0[0] > -1.0):
        raise QuadratureError(f"conditioning backend: K(0) / K_G(0) = 1 + {rho0[0]!r} is not finite and positive")
    return rho0, ratio(-w * D.imag), ratio(-(w * w) * D.real)


def conditioning_tilt_curvature(g, shifts: np.ndarray, scale: float = 1.0, support=None) -> tuple[float, float, dict]:
    """log E[exp(-sum_b g(shifts[b] + e_b))] for e iid N(0, scale) with sum(e) = 0, and its tilt curvature.

    On the d = 1 torus these e_b are the pinned field's bond gradients, and
    log E = log1p(rho0) in the ratios of _conditioning_grid, which takes g's
    compact support (lo, hi) when there is one.  Shifting every bond by t
    moves the shift onto the point where K is evaluated:
    log E(t) = m t^2 / (2 scale) + log K(m t) + const.  So the curvature
    kappa = 1/scale - (log E)''(0) / m = -m (log K)''(0) is
    (1/scale - m rho2) / (1 + rho0) + m (rho1 / (1 + rho0))^2, and at scale 1
    and zero base field the d = 1 tilt free energy has f''(u) = c1 m kappa.
    Each error is the doubling difference from the last grid floored at the
    ratios' rounding carried through log1p and the kappa formula (0 only for
    g = 0).  The grid doubles from COND_MIN_POINTS until both errors are below
    EXACT_TOL; returns (log E, kappa, {"error", "curvature_error", "points"}).
    Raises QuadratureError where _conditioning_grid does, on a non-finite
    kappa, and beyond COND_MAX_POINTS.
    """
    shifts, counts = np.unique(np.asarray(shifts, dtype=float), return_counts=True)
    m = int(counts.sum())
    prev = None
    n = COND_MIN_POINTS
    while n <= COND_MAX_POINTS:
        (rho0, round0), (rho1, round1), (rho2, round2) = _conditioning_grid(g, shifts, counts, scale, n, support)
        q = 1.0 + rho0
        ratio = rho1 / q
        head = (1.0 / scale - m * rho2) / q
        cur = (math.log1p(rho0), head + m * ratio * ratio)
        if not math.isfinite(cur[1]):
            raise QuadratureError("conditioning backend: curvature is not finite")
        if prev is not None:
            # each ratio's rounding times |d kappa / d rho_j|, and the formulas' own last
            # roundings unless D = 0 made them exact
            last = 2.0 * np.finfo(float).eps * (round0 > 0.0)
            floor = (abs(head) + 2.0 * m * ratio * ratio) * round0 + 2.0 * m * abs(ratio) * round1 + m * round2
            floors = round0 / q + last * abs(cur[0]), floor / q + last * abs(cur[1])
            err = [max(abs(now - before), low) for now, before, low in zip(cur, prev, floors)]
            if max(err) < EXACT_TOL:
                return cur[0], cur[1], {"error": err[0], "curvature_error": err[1], "points": n}
        prev = cur
        n *= 2
    raise QuadratureError(f"conditioning backend: no convergence below {EXACT_TOL} at {COND_MAX_POINTS} grid points")


# ---------------------------------------------------------------------------
# inclusion-exclusion (Mayer) backend for compact support


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _bond_coordinates(F: np.ndarray, S: np.ndarray):
    """Split the bonds S into independent ones I and dependent ones D.

    Returns (I, D, M, R, norm): zeta_D = M zeta_I, zeta_I ~ N(0, C) with
    C = F_I F_I^T, y^T C^-1 y = |R y|^2 for the upper triangular R, and
    norm = det(2 pi C)^(-1/2).  The rank r = len(I) comes from the SVD; I is
    picked by pivoted Gram-Schmidt, largest residual first.
    """
    sv = np.linalg.svd(F[S], compute_uv=False)
    r = int(np.sum(sv > 1e-12 * sv[0]))
    res, picked = F[S], []
    for _ in range(r):
        j = int(np.argmax(np.sum(res * res, axis=1)))
        picked.append(j)
        q = res[j] / np.linalg.norm(res[j])
        res = res - np.outer(res @ q, q)
    I, D = S[sorted(picked)], S[[j for j in range(len(S)) if j not in picked]]
    C = F[I] @ F[I].T
    Cinv = np.linalg.inv(C)
    norm = 1.0 / math.sqrt(np.linalg.det(2.0 * math.pi * C))
    return I, D, F[D] @ F[I].T @ Cinv, np.linalg.cholesky(Cinv).T, norm


@lru_cache(maxsize=1024)
def _subset_geometry(F_bytes: bytes, shape: tuple, S: tuple):
    """_bond_coordinates of the subset S for the F with these bytes and shape, computed once, read-only."""
    geometry = _bond_coordinates(np.frombuffer(F_bytes).reshape(shape), np.array(S))
    for a in geometry[:4]:
        a.flags.writeable = False
    return geometry


def _subset_moment(geometry, sigma: np.ndarray, shifts: np.ndarray, f, lo: float, hi: float) -> np.ndarray:
    """E[prod_{b in S} f(shift_b + zeta_b)] for each row of shifts (n, B).

    Integrates in s_I = shift_I + zeta_I with tensor Gauss-Legendre over
    [lo, hi] cut to shift_b +- Y_CLIP sigma_b per independent bond, so those
    bonds' support edges are the rule's endpoints and f is evaluated on r node
    lines only; dependent bonds are evaluated on the full grid.  In a rank-1
    subset every bond is a multiple of the one coordinate, so the interval is
    the exact intersection of all members' supports.  The grid is summed in
    slabs of at most SLAB_VALUES points: whole rows, or where one row's
    GL_ORDER^r points are more, runs of its axis-0 nodes, and where one node's
    GL_ORDER^(r-1) are more too (rank 5), runs of its axis-1 nodes.  Where the box is empty or a
    dependent argument (affine on the box: centre +- radius) misses [lo, hi] by
    more than a rounding pad, f is 0 at every node: such rows get 0, no grid.
    """
    I, D, M, R, norm = geometry
    n, r = shifts.shape[0], len(I)
    s_I = shifts[:, I]
    a = np.maximum(lo, s_I - Y_CLIP * sigma[I])
    b = np.minimum(hi, s_I + Y_CLIP * sigma[I])
    if r == 1 and len(D):
        ends = s_I[:, :, None] + (np.array([lo, hi]) - shifts[:, D, None]) / M[None, :, :]  # (n, |D|, 2)
        a = np.maximum(a, ends.min(axis=2).max(axis=1, keepdims=True))
        b = np.minimum(b, ends.max(axis=2).min(axis=1, keepdims=True))
    keep = (b > a).all(axis=1)
    if len(D):
        centre = shifts[:, D] + ((a + b) / 2.0 - s_I) @ M.T
        radius = (b - a) / 2.0 @ np.abs(M).T
        pad = 1e-9 * (1.0 + np.abs(centre) + radius)
        keep &= (np.abs(centre - (lo + hi) / 2.0) <= radius + (hi - lo) / 2.0 + pad).all(axis=1)
    if not keep.all():
        out = np.zeros(n)
        if keep.any():
            out[keep] = _subset_moment(geometry, sigma, shifts[keep], f, lo, hi)
        return out
    x, w = _gl_rule(GL_ORDER)
    half = (b - a)[..., None] / 2.0
    s = (a + b)[..., None] / 2.0 + half * x  # (n, r, GL_ORDER)
    y = s - s_I[..., None]
    fac = half * w * f(s)

    def axis(v, j):  # (rows, k) nodes as axis j of the tensor grid
        return v.reshape((len(v),) + (1,) * j + (-1,) + (1,) * (r - 1 - j))

    def moment(rows, sl):  # the slab of the rows' grids with axis-0 and axis-1 nodes sl[0], sl[1]
        ys = [y[rows, k, sl[k]] for k in range(r)]
        # exp(-|R y|^2 / 2) as one factor per row of R: row j couples axes
        # j..r-1, so the grid grows one axis at a time and each factor is <= 1
        # (formed in place: the halving is exact, so q q (-0.5) is -0.5 q q bitwise)
        vals = 1.0
        for j in reversed(range(r)):
            q = sum(R[j, k] * axis(ys[k], k) for k in range(j, r))
            q *= q
            q *= -0.5
            vals = vals * axis(fac[rows, j, sl[j]], j)
            vals *= np.exp(q, out=q)
        for i, d in enumerate(D):
            vals *= f(axis(shifts[rows, d, None], 0) + sum(M[i, k] * axis(ys[k], k) for k in range(r)))
        return vals.reshape(len(vals), -1).sum(axis=1)

    size = max(1, SLAB_VALUES // GL_ORDER**r)  # whole rows per slab
    # else runs of axis-0 nodes of one row, and of axis-1 nodes of one axis-0 node
    step0, step1 = (max(1, SLAB_VALUES * GL_ORDER**j // GL_ORDER**r) for j in (1, 2))
    runs = [(slice(i, i + step0), slice(j, j + step1)) + (slice(None),) * (r - 2)
            for i in range(0, GL_ORDER, step0) for j in range(0, GL_ORDER, step1)]
    out = np.empty(n)
    for i in range(0, n, size):
        rows = slice(i, i + size)
        out[rows] = norm * sum(moment(rows, sl) for sl in runs)
    return out


def mayer_log_expectation(
    F: np.ndarray, shifts: np.ndarray, h, support: tuple[float, float]
) -> tuple[np.ndarray, float]:
    """log E[prod_b (1 + b_b)] with b_b(zeta) = exp(-h(shift_b + zeta_b)) - 1, for each row of shifts.

    F (B, n) maps latent standard-normal coordinates to the per-bond arguments
    zeta; shifts (N, B) holds one base field's bond shifts per row.  Every
    subset of bonds is one Gaussian moment, integrated in bond coordinates by
    _subset_moment, which skips the rows that the subset's box or one of its
    dependent bonds proves zero.  The subset geometry and the pruning bounds
    depend on F alone, so they are computed once for all rows, and each
    subset's geometry is cached per F across calls.  Rows go through in
    chunks whose four node-line arrays hold SLAB_VALUES values, and
    _subset_moment sums each chunk's grid in slabs of SLAB_VALUES points.
    Returns (values (N,), rigorous bound on the pruned mass, at most
    EXACT_TOL); exact up to pruning and the Gauss-Legendre rule.
    """
    lo, hi = support
    shifts = np.asarray(shifts, dtype=float)
    N, B = shifts.shape
    hvals = h(np.linspace(lo, hi, 2001))
    bmax = float(max(np.exp(-hvals.min()) - 1.0, 1.0 - np.exp(-hvals.max())))
    if bmax == 0.0:
        return np.zeros(N), 0.0

    def f(s):
        return np.expm1(-h(s))

    sigma = np.sqrt(np.sum(F * F, axis=1))
    # per-bond hit probability bound P(zeta_b in support); correlations between
    # bonds are unknown, so a subset bound may use only the single smallest one
    p_hit = np.minimum(1.0, (hi - lo) / sigma / math.sqrt(2.0 * math.pi))
    key = (np.asarray(F, dtype=float).tobytes(), F.shape)
    total, pruned = np.zeros(N), 0.0
    for size in range(1, B + 1):
        for S in itertools.combinations(range(B), size):
            bound = bmax**size * float(np.min(p_hit[list(S)]))
            if bound < EXACT_TOL / (2.0**B):
                pruned += bound
                continue
            geometry = _subset_geometry(*key, S)
            # s, y, fac and f(s) in _subset_moment: four (rows, rank, GL_ORDER) node-line arrays
            rows = max(1, SLAB_VALUES // (4 * GL_ORDER * len(geometry[0])))
            for start in range(0, N, rows):
                total[start : start + rows] += _subset_moment(geometry, sigma, shifts[start : start + rows], f, lo, hi)
    if np.any(total <= -1.0):
        raise QuadratureError("inclusion-exclusion sum left the domain of log1p")
    return np.log1p(total), pruned


# ---------------------------------------------------------------------------
# dispatch helpers


def field_bond_map(t: Torus, scale: float) -> np.ndarray:
    """Linear map from latent standard normal Fourier amplitudes to bond gradients at a scale.

    Column j is the gradient of mode S[:, j] times sqrt(scale / lam_j); rows
    are ordered axis-major like bond_args(...).ravel().
    """
    lam, S = fourier_modes(t)
    return grad_all(t, S.T).reshape(len(lam), -1).T * np.sqrt(scale / lam)


def log_expectation(
    t: Torus, p: Potential, u: np.ndarray, scale: float = 1.0, psi_values: np.ndarray | None = None
) -> tuple[float | np.ndarray, dict]:
    """log E[exp(-G(u, psi + phi))] for phi a pinned field at the given scale.

    p must be unit-scaled (c1 = 1).  psi_values[..., volume] batches base fields:
    the value then has their leading shape, and is a float for one field or
    none.  Mayer takes the whole batch in one call; the conditioning and GH
    routes take it row by row.  Returns (log E, info) with info["method"] the
    route, chosen from the input alone: "exact" for a pure Gaussian, "mayer"
    for compact anharmonicity in any d at most ORACLE_MAX_DOF free coordinates,
    then "conditioning" for any other input in d = 1 and "gh" with node
    doubling in d >= 2, which raises QuadratureError when unconverged.  The
    error and order or points in info are the worst row's.
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("log_expectation requires a unit-scaled potential (c1 = 1)")
    base = np.zeros(t.volume) if psi_values is None else np.asarray(psi_values, dtype=float)
    rows = base.reshape(-1, t.volume)

    def shaped(vals):
        vals = np.asarray(vals, dtype=float).reshape(base.shape[:-1])
        return float(vals) if vals.ndim == 0 else vals

    compact = compact_anharmonicity(p)
    if compact is not None:
        lo, hi, h = compact
        if hi - lo <= 0.0:
            return shaped(np.zeros(len(rows))), {"method": "exact", "error": 0.0}
        if t.n_dof <= ORACLE_MAX_DOF:
            shifts = bond_args(t, rows, u).reshape(len(rows), -1)
            vals, pruned = mayer_log_expectation(field_bond_map(t, scale), shifts, h, (lo, hi))
            return shaped(vals), {"method": "mayer", "error": pruned}
    if t.d == 1:
        support = None if compact is None else compact[:2]
        out = [conditioning_tilt_curvature(p.g, shifts, scale, support) for shifts in bond_args(t, rows, u)]
        info = {k: max(i[k] for *_, i in out) for k in ("error", "points")}
        return shaped([v for v, *_ in out]), {"method": "conditioning", **info}
    out = []
    for row in rows:
        val, converged, delta, order = gh_log_expectation_doubling(
            lambda dof_batch: anharmonic_g(t, u, pinned(dof_batch) + row, p), t, scale
        )
        if not converged:
            raise QuadratureError(
                f"GH did not converge below {GH_TOL} by order {order} under its caps (last delta {delta:.3e})"
            )
        out.append((val, delta, order))
    return shaped([v for v, _, _ in out]), {
        "method": "gh",
        "error": max(d for _, d, _ in out),
        "order": max(o for _, _, o in out),
    }
