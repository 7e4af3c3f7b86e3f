"""Interaction potentials V = V0 + g0: built-in families, derivatives, constants, norms.

Each potential is a convex base V0 (curvature in [c1, c2]) plus a perturbation g0
whose curvature is bounded below by -c0.  Built-in families:

  gaussian    V0(s) = s^2/2,                       g0 = 0
  example_a   V0(s) = s^2,                         g0(s) = a - log(s^2 + a),  0 < a < 1
  example_b   V0(s) = s^2/2,                       g0(s) = -(4/delta^4) s^3 (delta-s)^3 on [0, delta]
  example_c   V = -log(p e^{-k1 s^2/2} + (1-p) e^{-k2 s^2/2}), log-mixture split
  custom      user callbacks plus declared constants, certified on a grid

For example_a and example_b the stored g0 has a convex excess (g0'' > 0 on part of
the line).  The conditioning machinery downstream consumes only the concave side:
the convexity certificates use the lower curvature bound -c0 alone, and ``norms``
reports l1_g0pp as the L1 mass of the concave part max(-g0'', 0), which equals the
plain L1 norm for genuinely concave perturbations (that norm is also reported, as
l1_g0pp_abs).  ``curvature_report`` quantifies the excess and whether reassigning
it to the quadratic base would move the composite constant max(c0/c1, c2/c1 - 1, 1)
(for example_a it would not; for example_b it would, which is why the declared
constants keep the excess on the g0 side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

__all__ = [
    "Potential",
    "NormReport",
    "CurvatureReport",
    "PotentialDomainError",
    "InvalidPotentialError",
    "DivergentNormError",
    "gaussian_potential",
    "example_a",
    "example_b",
    "example_c",
    "custom_potential",
    "eval_potential",
    "constants",
    "norms",
    "validate_growth",
    "curvature_report",
]

GRID_LO, GRID_HI, GRID_N = -50.0, 50.0, 10_001


class PotentialDomainError(ValueError):
    """Potential evaluated outside its domain (non-finite result)."""


class InvalidPotentialError(ValueError):
    """Declared curvature constants are violated on the certification grid."""


class DivergentNormError(ValueError):
    """Tail doubling failed to converge: the requested norm diverges."""


@dataclass(frozen=True)
class Potential:
    """A pair (V0, g0) with first and second derivatives and curvature constants.

    c1 <= V0'' <= c2 and g0'' >= -c0 hold on the certification grid; g0'' <= 0 may
    fail on a set where the excess is certified absorbable (see curvature_report).
    """

    family: str
    params: dict
    v0: Callable
    dv0: Callable
    d2v0: Callable
    g0: Callable
    dg0: Callable
    d2g0: Callable
    c0: float
    c1: float
    c2: float
    # sign-change / kink abscissas of g0'', used as quadrature breakpoints
    g0pp_breakpoints: tuple = ()
    # support [lo, hi] of the non-quadratic part when compact, else None
    g0_support: tuple | None = None
    closed_norms: dict = field(default_factory=dict)
    # optional closed forms for the total V; default is the V0 + g0 sum
    v_total: Callable | None = None
    dv_total: Callable | None = None
    d2v_total: Callable | None = None

    def v(self, s):
        return self.v_total(s) if self.v_total is not None else self.v0(s) + self.g0(s)

    def dv(self, s):
        return self.dv_total(s) if self.dv_total is not None else self.dv0(s) + self.dg0(s)

    def d2v(self, s):
        return self.d2v_total(s) if self.d2v_total is not None else self.d2v0(s) + self.d2g0(s)


@dataclass(frozen=True)
class NormReport:
    """Integral norms of the perturbation g0.

    l1_g0pp is the L1 mass of the concave part max(-g0'', 0), the quantity entering
    the smallness conditions; l1_g0pp_abs is the plain L1 norm of g0''.  Divergent
    norms are reported as math.inf and listed in ``divergent``.
    """

    l1_g0pp: float
    l2_g0p: float
    l1_g0: float
    quadrature_error: float
    l1_g0pp_abs: float
    divergent: tuple = ()


@dataclass(frozen=True)
class CurvatureReport:
    """Grid-certified curvature bounds and the convex-excess certificate."""

    v0pp_min: float
    v0pp_max: float
    g0pp_min: float
    g0pp_max: float
    convex_excess: float        # max(g0'', 0) over the grid
    base_bounds_ok: bool        # c1 <= V0'' <= c2 on the grid
    lower_bound_ok: bool        # g0'' >= -c0 on the grid
    concave_ok: bool            # g0'' <= 0 on the grid
    excess_absorbable: bool     # excess does not change max(c0/c1, c2/c1-1, 1)


def _as_array(s):
    return np.asarray(s, dtype=float)


# ---------------------------------------------------------------------------
# built-in families


def gaussian_potential() -> Potential:
    """Quadratic potential V(s) = s^2/2 with no perturbation."""
    zero = lambda s: np.zeros_like(_as_array(s))
    return Potential(
        family="gaussian",
        params={},
        v0=lambda s: _as_array(s) ** 2 / 2.0,
        dv0=lambda s: _as_array(s),
        d2v0=lambda s: np.ones_like(_as_array(s)),
        g0=zero,
        dg0=zero,
        d2g0=zero,
        c0=0.0,
        c1=1.0,
        c2=1.0,
        g0_support=(0.0, 0.0),
        closed_norms={"l1_g0pp": 0.0, "l2_g0p": 0.0, "l1_g0": 0.0, "l1_g0pp_abs": 0.0},
    )


def example_a(a: float) -> Potential:
    """Log-perturbed quadratic: V(s) = s^2 + a - log(s^2 + a), 0 < a < 1.

    Constants (c0, c1, c2) = (2/a, 2, 2); the concave part of g0'' lives on
    [-sqrt(a), sqrt(a)] and integrates to 2/sqrt(a).
    """
    if not 0.0 < a < 1.0:
        raise InvalidPotentialError(f"example_a requires 0 < a < 1, got {a}")
    ra = math.sqrt(a)

    def g0(s):
        s = _as_array(s)
        return a - np.log(s * s + a)

    def dg0(s):
        s = _as_array(s)
        return -2.0 * s / (s * s + a)

    def d2g0(s):
        s = _as_array(s)
        return (2.0 * s * s - 2.0 * a) / (s * s + a) ** 2

    return Potential(
        family="example_a",
        params={"a": a},
        v0=lambda s: _as_array(s) ** 2,
        dv0=lambda s: 2.0 * _as_array(s),
        d2v0=lambda s: 2.0 * np.ones_like(_as_array(s)),
        g0=g0,
        dg0=dg0,
        d2g0=d2g0,
        c0=2.0 / a,
        c1=2.0,
        c2=2.0,
        g0pp_breakpoints=(-ra, ra),
        closed_norms={
            "l1_g0pp": 2.0 / ra,
            "l1_g0pp_abs": 4.0 / ra,
            "l2_g0p": math.sqrt(2.0 * math.pi / ra),
            "l1_g0": math.inf,
        },
    )


def example_b(delta: float) -> Potential:
    """Quadratic with a compactly supported cubic-bump dent on [0, delta].

    V(s) = s^2/2 - (4/delta^4) s^3 (delta-s)^3 on [0, delta], s^2/2 elsewhere.
    Constants (c0, c1, c2) = (6/5, 1, 1); the concave part of g0'' integrates to
    24 delta / (25 sqrt 5).
    """
    if not 0.0 < delta < 1.0:
        raise InvalidPotentialError(f"example_b requires 0 < delta < 1, got {delta}")
    c = 4.0 / delta**4
    r5 = math.sqrt(5.0)
    # interior sign changes of g0'': roots of 5 s^2 - 5 delta s + delta^2
    s_lo = delta * (5.0 - r5) / 10.0
    s_hi = delta * (5.0 + r5) / 10.0

    def _mask(s):
        s = _as_array(s)
        return s, (s >= 0.0) & (s <= delta)

    # integer powers as products: numpy's float power costs several times more
    def g0(s):
        s, m = _mask(s)
        r = s * (delta - s)
        return np.where(m, -c * r * r * r, 0.0)

    def dg0(s):
        s, m = _mask(s)
        r = s * (delta - s)
        return np.where(m, -c * 3.0 * r * r * (delta - 2.0 * s), 0.0)

    def d2g0(s):
        s, m = _mask(s)
        w2 = 6.0 * s * (delta - s) * (5.0 * s * s - 5.0 * delta * s + delta * delta)
        return np.where(m, -c * w2, 0.0)

    return Potential(
        family="example_b",
        params={"delta": delta},
        v0=lambda s: _as_array(s) ** 2 / 2.0,
        dv0=lambda s: _as_array(s),
        d2v0=lambda s: np.ones_like(_as_array(s)),
        g0=g0,
        dg0=dg0,
        d2g0=d2g0,
        c0=6.0 / 5.0,
        c1=1.0,
        c2=1.0,
        g0pp_breakpoints=(0.0, s_lo, s_hi, delta),
        g0_support=(0.0, delta),
        closed_norms={
            "l1_g0pp": 24.0 * delta / (25.0 * r5),
            "l1_g0pp_abs": 48.0 * delta / (25.0 * r5),
            "l2_g0p": math.sqrt(24.0 * delta**3 / 1155.0),
            "l1_g0": delta**3 / 35.0,
        },
    )


def example_c(p: float, k1: float, k2: float) -> Potential:
    """Log-mixture of two Gaussians: V = -log(p e^{-k1 s^2/2} + (1-p) e^{-k2 s^2/2}).

    Split per the mixture identity: V0'' is the posterior-weighted curvature in
    [k2, p k1 + (1-p) k2] and g0'' <= 0 everywhere with g0'' >= -p(k1-k2)/(1-p).
    """
    if not (0.0 < p < 1.0 and 0.0 < k2 < k1):
        raise InvalidPotentialError(f"example_c requires 0<p<1, 0<k2<k1, got {(p, k1, k2)}")
    q = 1.0 - p
    kap = k1 - k2

    def _weights(s):
        # stable posterior weight of component 1: w1 = p E1 / (p E1 + q E2)
        s = _as_array(s)
        z = np.clip(kap * s * s / 2.0, 0.0, 700.0)
        w1 = p / (p + q * np.exp(z))
        return s, w1

    def v0pp(s):
        s, w1 = _weights(s)
        return w1 * k1 + (1.0 - w1) * k2

    def g0pp(s):
        s, w1 = _weights(s)
        return -w1 * (1.0 - w1) * kap**2 * s * s

    def vtot(s):
        s = _as_array(s)
        z = np.clip(kap * s * s / 2.0, 0.0, 700.0)
        # V = k2 s^2/2 - log(q + p e^{-kap s^2/2})
        return k2 * s * s / 2.0 - np.log(q + p * np.exp(-z))

    def dvtot(s):
        s, w1 = _weights(s)
        return s * (w1 * k1 + (1.0 - w1) * k2)

    # V0', V0 and hence g0', g0 have no elementary closed form; integrate the
    # curvature split from 0 (convention V0(0) = V(0), V0'(0) = 0) with fixed
    # Gauss-Legendre, vectorized over evaluation points.
    gl_x, gl_w = np.polynomial.legendre.leggauss(64)

    def _cum_int(fn, s):
        s = _as_array(s)
        half = s[..., None] / 2.0
        nodes = half * (gl_x + 1.0)
        return (half * gl_w * fn(nodes)).sum(axis=-1)

    def dv0(s):
        return _cum_int(v0pp, s)

    def v0(s):
        return _cum_int(dv0, s) + float(vtot(0.0))

    def g0(s):
        return vtot(s) - v0(s)

    def dg0(s):
        return dvtot(s) - dv0(s)

    return Potential(
        family="example_c",
        params={"p": p, "k1": k1, "k2": k2},
        v0=v0,
        dv0=dv0,
        d2v0=v0pp,
        g0=g0,
        dg0=dg0,
        d2g0=g0pp,
        c0=p * kap / q,
        c1=k2,
        c2=p * k1 + q * k2,
        # g0' tends to the nonzero constant -int_0^inf (V0''-k2), so the lower
        # order norms diverge for this family
        closed_norms={"l2_g0p": math.inf, "l1_g0": math.inf},
        v_total=vtot,
        dv_total=dvtot,
        d2v_total=lambda s: v0pp(s) + g0pp(s),
    )


def custom_potential(
    v0: Callable,
    dv0: Callable,
    d2v0: Callable,
    g0: Callable,
    dg0: Callable,
    d2g0: Callable,
    c0: float,
    c1: float,
    c2: float,
    g0_support: tuple | None = None,
    g0pp_breakpoints: Sequence[float] = (),
) -> Potential:
    """Wrap user callbacks; the declared constants are certified on the grid."""
    p = Potential(
        family="custom",
        params={},
        v0=v0,
        dv0=dv0,
        d2v0=d2v0,
        g0=g0,
        dg0=dg0,
        d2g0=d2g0,
        c0=float(c0),
        c1=float(c1),
        c2=float(c2),
        g0pp_breakpoints=tuple(g0pp_breakpoints),
        g0_support=g0_support,
    )
    rep = curvature_report(p)
    if not (rep.base_bounds_ok and rep.lower_bound_ok and rep.concave_ok):
        raise InvalidPotentialError(
            "custom potential violates declared curvature bounds on the grid: "
            f"V0'' in [{rep.v0pp_min:.6g}, {rep.v0pp_max:.6g}] vs [{c1}, {c2}], "
            f"g0'' in [{rep.g0pp_min:.6g}, {rep.g0pp_max:.6g}] vs [{-c0}, 0]"
        )
    return p


# ---------------------------------------------------------------------------
# operations


def eval_potential(p: Potential, s, order: int = 0):
    """Evaluate V = V0 + g0 (order 0) or its first/second derivative at s."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    f = (p.v, p.dv, p.d2v)[order]
    out = f(s)
    if not np.all(np.isfinite(out)):
        raise PotentialDomainError(f"{p.family} returned non-finite value at s={s!r}")
    return out


def constants(p: Potential) -> tuple[float, float, float]:
    """Return (c0, c1, c2); for custom potentials these are grid-certified."""
    if p.c1 <= 0 or p.c2 < p.c1 or p.c0 < 0:
        raise InvalidPotentialError(f"ill-ordered constants {(p.c0, p.c1, p.c2)}")
    return (p.c0, p.c1, p.c2)


def curvature_report(p: Potential, lo: float = GRID_LO, hi: float = GRID_HI, n: int = GRID_N) -> CurvatureReport:
    """Sample V0'' and g0'' on a dense grid and certify the declared constants.

    A small relative slack absorbs roundoff at the grid extremes.
    """
    s = np.linspace(lo, hi, n)
    if p.g0pp_breakpoints:
        s = np.sort(np.concatenate([s, np.asarray(p.g0pp_breakpoints, dtype=float)]))
    v0pp = np.asarray(p.d2v0(s), dtype=float)
    g0pp = np.asarray(p.d2g0(s), dtype=float)
    tol = 1e-9 * max(1.0, abs(p.c2), abs(p.c0))
    excess = float(max(g0pp.max(), 0.0))
    cbar_decl = max(p.c0 / p.c1, p.c2 / p.c1 - 1.0, 1.0)
    cbar_eff = max(p.c0 / p.c1, (p.c2 + excess) / p.c1 - 1.0, 1.0)
    return CurvatureReport(
        v0pp_min=float(v0pp.min()),
        v0pp_max=float(v0pp.max()),
        g0pp_min=float(g0pp.min()),
        g0pp_max=float(g0pp.max()),
        convex_excess=excess,
        base_bounds_ok=bool(v0pp.min() >= p.c1 - tol and v0pp.max() <= p.c2 + tol),
        lower_bound_ok=bool(g0pp.min() >= -p.c0 - tol),
        concave_ok=bool(g0pp.max() <= tol),
        excess_absorbable=bool(cbar_eff <= cbar_decl * (1.0 + 1e-12)),
    )


def _integrate_tail_doubling(f, tol: float, points: Sequence[float] = ()) -> tuple[float, float]:
    """Integrate f over R on [-T, T] with T doubled until the increment < tol/2.

    Returns (value, error_bound) where the bound is the last increment plus the
    accumulated scipy error estimates.  Raises DivergentNormError when increments
    stop shrinking.
    """
    pts = sorted(abs(x) for x in points)
    T = max(8.0, 2.0 * pts[-1]) if pts else 8.0

    def _quad(a, b):
        inner = [x for x in points if a < x < b] or None
        val, err = quad(f, a, b, points=inner, limit=400, epsabs=tol * 1e-4, epsrel=1e-12)
        return val, err

    total, err_acc = 0.0, 0.0
    v, e = _quad(-T, T)
    total += v
    err_acc += e
    prev_inc = math.inf
    for _ in range(60):
        inc_r, er = _quad(T, 2 * T)
        inc_l, el = _quad(-2 * T, -T)
        inc = inc_r + inc_l
        total += inc
        err_acc += er + el
        T *= 2.0
        if abs(inc) < tol / 2.0:
            return total, abs(inc) + err_acc
        if abs(inc) >= abs(prev_inc) and abs(inc) > tol:
            raise DivergentNormError(f"tail increment {inc:.3e} not shrinking at T={T:.3e}")
        prev_inc = inc
    raise DivergentNormError("tail doubling did not converge within 60 doublings")


def norms(p: Potential, tol: float = 1e-10) -> NormReport:
    """Adaptive quadrature of the g0 norms with tail truncation.

    Norms whose tails diverge are reported as inf rather than raised, so that a
    report always exists; the divergent entries are named in ``divergent``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = p.g0pp_breakpoints
    err = 0.0
    divergent = []

    def _try(fn, name, square=False):
        # known-divergent entries skip the (slow) failing tail scan
        nonlocal err
        if p.closed_norms.get(name) == math.inf:
            divergent.append(name)
            return math.inf
        try:
            v, e = _integrate_tail_doubling(fn, tol, pts)
            err = max(err, e)
            return v
        except DivergentNormError:
            divergent.append(name)
            return math.inf

    l1_neg = _try(lambda s: max(-float(p.d2g0(s)), 0.0), "l1_g0pp")
    l1_abs = _try(lambda s: abs(float(p.d2g0(s))), "l1_g0pp_abs")
    l2_sq = _try(lambda s: float(p.dg0(s)) ** 2, "l2_g0p", square=True)
    l1_g0 = _try(lambda s: abs(float(p.g0(s))), "l1_g0")
    return NormReport(
        l1_g0pp=l1_neg,
        l2_g0p=math.sqrt(l2_sq) if math.isfinite(l2_sq) else math.inf,
        l1_g0=l1_g0,
        quadrature_error=err,
        l1_g0pp_abs=l1_abs,
        divergent=tuple(divergent),
    )


def validate_growth(p: Potential, a_coef: float, b_coef: float, grid=None) -> bool:
    """Check the quadratic growth bound V(s) >= a_coef s^2 - b_coef on a grid."""
    if a_coef <= 0:
        raise ValueError("a_coef must be positive")
    if grid is None:
        grid = np.linspace(GRID_LO, GRID_HI, GRID_N)
    s = np.asarray(grid, dtype=float)
    return bool(np.all(p.v(s) >= a_coef * s * s - b_coef))
