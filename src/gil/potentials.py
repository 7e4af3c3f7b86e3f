"""Interaction potentials V = V0 + g0: built-in families, curvature certificates, norms.

Each potential is a convex base V0 (curvature in [c1, c2]) plus a perturbation g0
whose curvature is bounded below by -c0.  A ``Potential`` stores the anharmonic
part g = V - c1 s^2/2, the pair (V, V') and V'' once, plus only the g0 terms the
smallness conditions read: g0'' always, and g0' and g0 only where their norms
||g0'||_L2 and ||g0||_L1 are finite.  Leaving one out declares that norm
divergent.  V0 itself is never stored; its curvature is V'' - g0''.  Built-in
families:

  gaussian    V0(s) = s^2/2,                       g0 = 0
  example_a   V0(s) = s^2,                         g0(s) = a - log(s^2 + a),  0 < a < 1
  example_b   V0(s) = s^2/2,                       g0(s) = -(4/delta^4) s^3 (delta-s)^3 on [0, delta]
  example_c   V = -log(p e^{-k1 s^2/2} + (1-p) e^{-k2 s^2/2}), log-mixture split

For example_a and example_b the stored g0 has a convex excess (g0'' > 0 on part of
the line).  The conditioning machinery downstream consumes only the concave side:
the convexity certificates use the lower curvature bound -c0 alone, and ``norms``
reports l1_g0pp as the L1 mass of the concave part max(-g0'', 0), which equals the
plain L1 norm for genuinely concave perturbations (that norm is also reported, as
l1_g0pp_abs); ``norm`` integrates any one norm alone.  Reassigning the excess to
the quadratic base would leave the composite constant max(c0/c1, c2/c1 - 1, 1)
as it is for example_a but raise it for example_b, which is why the declared
constants keep the excess on the g0 side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Potential",
    "NormReport",
    "InvalidPotentialError",
    "DivergentNormError",
    "gaussian_potential",
    "example_a",
    "example_b",
    "example_c",
    "norm",
    "norms",
]

GL_FINE, GL_COARSE = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(10)
PANELS_START = 16  # equal panels per breakpoint-free piece of a segment
PANEL_CAP = 2048  # panels one segment may evaluate; a non-integrable integrand reaches it

log = logging.getLogger(__name__)


class InvalidPotentialError(ValueError):
    """Declared curvature constants are violated on the certification grid."""


class DivergentNormError(ValueError):
    """Tail doubling failed to converge: the requested norm diverges."""


@dataclass(frozen=True)
class Potential:
    """V = V0 + g0 as the triple (g, (g, g'[, g'']), g''), g0'' and the curvature constants.

    g(s) = V(s) - c1 s^2/2 is the anharmonic part in closed form, which the
    quadrature integrands, the Monte Carlo weights and the lattice's anharmonic
    energy read.  The middle entry is the fused pass, g and g', and g'' when
    asked, from shared intermediates (``g_dg``, ``v_dv``); V, V' and V'' add
    c1 s^2/2, c1 s and c1 to it.  The norms and the oracles read the standalone
    g, g'' and g0 terms; the fused pass may round apart from them by a few eps.
    ``frame(b, k)`` folds b and k into the closed forms (g, g_dg, g'', g0, g0',
    g0'') of s -> b V(s / k) but keeps the family's constants, breakpoints and
    support: its v, dv and d2v are b V(s / k) only after scale_to_unit maps them.

    c1 <= V0'' = V'' - g0'' <= c2 and g0'' >= -c0 hold on the certification grid;
    g0'' <= 0 may fail where the family carries a convex excess.  g0 and g0'
    are kept only when ||g0||_L1 and ||g0'||_L2 are finite; None declares the
    norm divergent.
    """

    family: str
    vfun: tuple[Callable, Callable, Callable]  # (g, (s, second=False) -> (g, g'[, g'']), g'')
    d2g0: Callable
    c0: float
    c1: float
    c2: float
    g0: Callable | None = None
    dg0: Callable | None = None
    # abscissas where g0'' changes sign, has a kink or varies on a short scale,
    # used as quadrature breakpoints
    g0pp_breakpoints: tuple = ()
    # support [lo, hi] of the non-quadratic part when compact, else None
    g0_support: tuple | None = None
    frame: Callable | None = None  # (b, k) -> the family with b V(s / k)'s closed forms, its own constants

    def g(self, s):
        return self.vfun[0](s)

    def g_dg(self, s):
        return self.vfun[1](s)

    def v_dv(self, s, second: bool = False):
        """(V, V') from one fused pass, and V'' third when second is set."""
        s = _as_array(s)
        g, dg, *d2g = self.vfun[1](s, second)
        c1s = s if self.c1 == 1.0 else self.c1 * s  # no multiply in the unit frame
        v = c1s * s  # then c1s s / 2 + g, c1s + dg and c1 + d2g, formed in place
        v /= 2.0
        v += g
        dg += c1s
        if second:
            d2g[0] += self.c1
        return v, dg, *d2g

    def v(self, s):
        return self.v_dv(s)[0]

    def dv(self, s):
        s = _as_array(s)  # V' as v_dv forms it, without the V terms
        return (s if self.c1 == 1.0 else self.c1 * s) + self.vfun[1](s)[1]

    def d2v(self, s):
        return self.c1 + self.vfun[2](s)


@dataclass(frozen=True)
class NormReport:
    """Integral norms of the perturbation g0.

    l1_g0pp is the L1 mass of the concave part max(-g0'', 0), the quantity entering
    the smallness conditions; l1_g0pp_abs is the plain L1 norm of g0''.  Divergent
    norms are reported as math.inf and listed in ``divergent``.  gil check writes
    the whole report; gil hessian and gil verify-lemma integrate only the fields
    they read, one ``norm`` each.
    """

    l1_g0pp: float
    l2_g0p: float
    l1_g0: float
    quadrature_error: float
    l1_g0pp_abs: float
    divergent: tuple = ()


def _as_array(s):
    return np.asarray(s, dtype=float)


# ---------------------------------------------------------------------------
# built-in families


def gaussian_potential() -> Potential:
    """Quadratic potential V(s) = s^2/2 with no perturbation."""
    zero = lambda s: np.zeros_like(_as_array(s))
    # b (s/k)^2/2 is quadratic in every frame: g = 0, so each frame is this potential
    return Potential(
        family="gaussian",
        vfun=(zero, lambda s, second=False: tuple(zero(s) for _ in range(2 + second)), zero),
        d2g0=zero,
        c0=0.0,
        c1=1.0,
        c2=1.0,
        g0=zero,
        dg0=zero,
        g0_support=(0.0, 0.0),
        frame=lambda b, k: gaussian_potential(),
    )


def example_a(a: float) -> Potential:
    """Log-perturbed quadratic: V(s) = s^2 + a - log(s^2 + a), 0 < a < 1.

    Constants (c0, c1, c2) = (2/a, 2, 2); the concave part of g0'' lives on
    [-sqrt(a), sqrt(a)] and integrates to 2/sqrt(a).  g0 grows like -log s^2,
    so ||g0||_L1 diverges and g0 is not stored.
    """
    if not 0.0 < a < 1.0:
        raise InvalidPotentialError(f"example_a requires 0 < a < 1, got {a}")
    ra = math.sqrt(a)

    def frame(b, k):
        # b V(s/k) = (b/k^2) s^2 + b g0(y) with y = s/k and q = y^2 + a; g0 is all of g
        dgk, d2gk = -2.0 * b / k, 2.0 * b / (k * k)

        def yq(s):
            y = _as_array(s) if k == 1.0 else _as_array(s) / k  # no divide in the raw family
            return y, y * y + a

        def g_dg(s, second=False):
            y, q = yq(s)
            out = b * (a - np.log(q)), dgk * y / q
            return (*out, g0pp(y, q)) if second else out

        def g0pp(y, q):
            return d2gk * (y * y - a) / q**2

        def d2g0(s):
            return g0pp(*yq(s))

        return Potential(
            family="example_a",
            vfun=(lambda s: b * (a - np.log(yq(s)[1])), g_dg, d2g0),
            d2g0=d2g0,
            c0=2.0 / a,
            c1=2.0,
            c2=2.0,
            dg0=lambda s: dgk * np.divide(*yq(s)),
            g0pp_breakpoints=(-ra, ra),
        )

    return replace(frame(1.0, 1.0), frame=frame)


def example_b(delta: float) -> Potential:
    """Quadratic with a compactly supported cubic-bump dent on [0, delta].

    V(s) = s^2/2 - (4/delta^4) s^3 (delta-s)^3 on [0, delta], s^2/2 elsewhere.
    Constants (c0, c1, c2) = (6/5, 1, 1); the concave part of g0'' integrates to
    24 delta / (25 sqrt 5).
    """
    if not 0.0 < delta < 1.0:
        raise InvalidPotentialError(f"example_b requires 0 < delta < 1, got {delta}")
    r5 = math.sqrt(5.0)
    # interior sign changes of g0'': roots of 5 s^2 - 5 delta s + delta^2
    s_lo = delta * (5.0 - r5) / 10.0
    s_hi = delta * (5.0 + r5) / 10.0

    def frame(b, k):
        # b V(s/k) is the dent on [0, dk], dk = k delta: the example_b form at delta' = dk when b = k^2
        dk, c = k * delta, 4.0 * b / (k**2 * (k * delta) ** 4)

        # r = s (dk - s) clipped at 0 vanishes exactly off [0, dk], so no mask
        # is needed; integer powers as products: numpy's float power costs several
        # times more
        def clipped(s):
            s = _as_array(s)
            return s, np.maximum(s * (dk - s), 0.0)

        def g0(s):
            _, r = clipped(s)
            return -c * r * r * r

        def dg0(s):
            s, r = clipped(s)
            return -c * 3.0 * r * r * (dk - 2.0 * s)

        def g_dg(s, second=False):
            # 9 array operations for g = -c r^2 r and g' = -3c r^2 ((dk - s) - s), 3 more
            # for g'' = -3c (2 r (dk - 2s)^2 - 2 r^2) = 30c r (r - dk^2/5)
            s = _as_array(s)
            ds = dk - s
            r = np.maximum(s * ds, 0.0)
            r2 = r * r
            g = r2 * r
            g *= -c
            ds -= s
            dg = r2 * ds
            dg *= -3.0 * c
            if not second:
                return g, dg
            d2g = r - dk * dk / 5.0
            d2g *= r
            d2g *= 30.0 * c
            return g, dg, d2g

        def d2g0(s):
            s = _as_array(s)
            # clipping the product 6 s (dk - s), not r, rounds g0'' as the unclipped formula does
            w = np.maximum(6.0 * s * (dk - s), 0.0)
            return -c * (w * (5.0 * s * s - 5.0 * dk * s + dk * dk))

        return Potential(
            family="example_b",
            vfun=(g0, g_dg, d2g0),
            d2g0=d2g0,
            c0=6.0 / 5.0,
            c1=1.0,
            c2=1.0,
            g0=g0,
            dg0=dg0,
            g0pp_breakpoints=(0.0, s_lo, s_hi, delta),
            g0_support=(0.0, delta),
        )

    return replace(frame(1.0, 1.0), frame=frame)


def example_c(p: float, k1: float, k2: float) -> Potential:
    """Log-mixture of two Gaussians: V = -log(p e^{-k1 s^2/2} + (1-p) e^{-k2 s^2/2}).

    Split per the mixture identity: V0'' is the posterior-weighted curvature in
    [k2, p k1 + (1-p) k2] and g0'' <= 0 everywhere with g0'' >= -p(k1-k2)/(1-p).
    g0' tends to the nonzero constant -int_0^inf (V0''-k2), so ||g0'||_L2 and
    ||g0||_L1 diverge and neither g0 nor g0' is stored.
    """
    if not (0.0 < p < 1.0 and 0.0 < k2 < k1):
        raise InvalidPotentialError(f"example_c requires 0<p<1, 0<k2<k1, got {(p, k1, k2)}")
    q = 1.0 - p
    kap = k1 - k2
    # -g0'' is a bump of width r = 1/sqrt(k1 - k2) at the origin; breakpoints on a
    # doubling ladder of r keep the norms' panels on it however stiff k1 is
    r = 1.0 / math.sqrt(kap)
    ladder = tuple(r * 2.0**j for j in range(5))

    def frame(b, k):
        # b V(s/k) = (b k2/k^2) s^2/2 - b log(q + p e^{-z}), z = kp s^2/2 with kp = kap/k^2;
        # w1 = p e^{-z} / (p e^{-z} + q) is the posterior weight of component 1
        kp = kap / (k * k)

        def pe(s):
            return p * np.exp(-np.clip(kp * s * s / 2.0, 0.0, 700.0))

        def g_dg(s, second=False):
            s = _as_array(s)
            e = pe(s)
            w1 = e / (e + q)
            out = -b * np.log(q + e), b * kp * s * w1
            return (*out, b * kp * w1 + g0pp(s, w1)) if second else out

        def g0pp(s, w1):
            return -b * kp * kp * (w1 * (1.0 - w1)) * s * s

        def d2g0(s):
            s = _as_array(s)
            e = pe(s)
            return g0pp(s, e / (e + q))

        def d2g(s):
            e = pe(_as_array(s))
            return b * kp * (e / (e + q)) + d2g0(s)

        return Potential(
            family="example_c",
            vfun=(lambda s: -b * np.log(q + pe(_as_array(s))), g_dg, d2g),
            d2g0=d2g0,
            c0=p * kap / q,
            c1=k2,
            c2=p * k1 + q * k2,
            g0pp_breakpoints=(*(-x for x in reversed(ladder)), 0.0, *ladder),
        )

    return replace(frame(1.0, 1.0), frame=frame)


# ---------------------------------------------------------------------------
# operations


def _integrate_panels(f, a: float, b: float, points: Sequence[float], atol: float) -> tuple[float, float]:
    """Adaptive Gauss-Legendre over [a, b], split at the breakpoints inside it.

    Every live panel is integrated by the 20- and 10-point rules at once.  A panel
    whose two values differ by at most its width-share of atol, or by 1e-14 of its
    value, is kept; the rest are bisected.  Returns (the exactly rounded sum of
    the 20-point values, the sum of the differences).  Raises DivergentNormError
    past PANEL_CAP panels.
    """
    edges = np.array([a, *sorted(x for x in points if a < x < b), b])
    lo = (edges[:-1, None] + np.diff(edges)[:, None] * np.arange(PANELS_START) / PANELS_START).ravel()
    hi = np.append(lo[1:], b)
    kept, error, evaluated = [], 0.0, 0
    while lo.size:
        evaluated += lo.size
        if evaluated > PANEL_CAP:
            raise DivergentNormError(f"more than {PANEL_CAP} panels on [{a:.3e}, {b:.3e}]")
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        fine, coarse = (half * (f(mid[:, None] + half[:, None] * x) @ w) for x, w in (GL_FINE, GL_COARSE))
        diff = np.abs(fine - coarse)
        ok = diff <= np.maximum(atol * (hi - lo) / (b - a), 1e-14 * np.abs(fine))
        kept.append(fine[ok])
        error += float(diff[ok].sum())
        lo, hi = np.concatenate((lo[~ok], mid[~ok])), np.concatenate((mid[~ok], hi[~ok]))
    return math.fsum(np.concatenate(kept)), error


def _integrate_tail_doubling(f, tol: float, points: Sequence[float] = ()) -> tuple[float, float]:
    """Integrate the array function f over R on [-T, T] with T doubled until the increment < tol/2.

    Returns (value, error_bound) where the bound is the last increment plus the
    accumulated panel error estimates.  Raises DivergentNormError when increments
    stop shrinking or a segment needs more than PANEL_CAP panels.
    """
    pts = sorted(abs(x) for x in points)
    T = max(8.0, 2.0 * pts[-1]) if pts else 8.0
    atol = tol * 1e-4

    total, err_acc = _integrate_panels(f, -T, T, points, atol)
    prev_inc = math.inf
    for _ in range(60):
        inc_r, er = _integrate_panels(f, T, 2 * T, points, atol)
        inc_l, el = _integrate_panels(f, -2 * T, -T, points, atol)
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


_NORMS = {  # name -> (the g0 term it integrates, the integrand of the term's values)
    "l1_g0pp": ("d2g0", lambda x: np.maximum(-x, 0.0)),
    "l1_g0pp_abs": ("d2g0", np.abs),
    "l2_g0p": ("dg0", np.square),
    "l1_g0": ("g0", np.abs),
}


def norm(p: Potential, name: str, tol: float = 1e-10) -> tuple[float, float]:
    """One g0 norm, named as its NormReport field, and its quadrature error bound.

    Adaptive Gauss-Legendre panels with tail doubling (l2_g0p is the square root
    of the integral of g0'^2; its error bound is that integral's).  A divergent
    norm is returned as (inf, 0.0) rather than raised and logged at INFO with the
    reason: the potential stores no such g0 term, its tail does not shrink, or a
    segment reaches PANEL_CAP.  gil hessian integrates l1_g0pp alone and gil
    verify-lemma l1_g0pp_abs and l2_g0p; ``norms`` integrates all four.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    attr, integrand = _NORMS[name]
    term = getattr(p, attr)
    if term is None:
        reason = f"no {attr} stored"
    else:
        try:
            v, e = _integrate_tail_doubling(lambda s: integrand(term(s)), tol, p.g0pp_breakpoints)
            return (math.sqrt(v) if name == "l2_g0p" else v), e
        except DivergentNormError as exc:
            reason = str(exc)
    log.info("norm %s of %s is divergent: %s", name, p.family, reason)
    return math.inf, 0.0


def norms(p: Potential, tol: float = 1e-10) -> NormReport:
    """All four g0 norms (see ``norm``), the report gil check writes.

    Norms whose tails diverge are reported as inf rather than raised, so that a
    report always exists; the divergent entries are named in ``divergent``, and
    quadrature_error is the largest error bound of the finite ones.
    """
    found = {name: norm(p, name, tol) for name in _NORMS}
    return NormReport(
        **{name: v for name, (v, _) in found.items()},
        quadrature_error=max(e for _, e in found.values()),
        divergent=tuple(name for name, (v, _) in found.items() if v == math.inf),
    )
