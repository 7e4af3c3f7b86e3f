"""Smallness conditions on (beta, potential), composite constant, and unit scaling.

The composite constant cbar = max(c0/c1, c2/c1 - 1, 1) controls every bound.  The
primary high-temperature condition reads

    (4/pi) sqrt(12 d cbar) sqrt(beta c1) (1/c1) ||g0''||_- <= 1/2,

with ||.||_- the concave-part L1 norm from the potentials module.  Two alternative
conditions use lower-order norms of g0.  ``scale_to_unit`` reduces any (beta, V0,
g0) to the normalized setting beta = 1, c1 = 1 that the decomposition pipeline
assumes, as the family's own closed forms with beta and k = sqrt(beta c1)
folded into their constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .potentials import Potential, NormReport

__all__ = [
    "ConditionReport",
    "cbar",
    "check_conditions",
    "primary_condition",
    "scale_to_unit",
]

C11_PREFACTOR = 2500.0 / (2.0 * math.pi)


def cbar(c0: float, c1: float, c2: float) -> float:
    """Composite constant max(c0/c1, c2/c1 - 1, 1)."""
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if c0 < 0 or c2 < c1:
        raise ValueError(f"need c0 >= 0 and c2 >= c1, got {(c0, c1, c2)}")
    return max(c0 / c1, c2 / c1 - 1.0, 1.0)


@dataclass(frozen=True)
class ConditionReport:
    """Left-hand sides, beta thresholds, and verdicts for the three conditions.

    Optimistic verdicts use the computed norms as-is; pessimistic ones inflate
    each norm by the reported quadrature error before comparing.
    """

    beta: float
    d: int
    cbar: float
    lhs_fcond: float
    lhs_9: float
    lhs_11: float
    beta_max_fcond: float
    beta_max_9: float
    beta_max_11: float
    satisfied: dict
    satisfied_pessimistic: dict
    norm_error: float


def primary_condition(beta: float, d: int, p: Potential, l1_g0pp: float) -> tuple[float, bool]:
    """Left side of the primary condition at ||g0''||_- = l1_g0pp, and whether it is <= 1/2.

    check_conditions reads it at the computed norm and at the norm plus its error;
    gil hessian's in/out-of-hypothesis label is its verdict, so that command
    integrates ||g0''||_- alone.
    """
    if beta <= 0 or d < 1:
        raise ValueError(f"need beta > 0 and d >= 1, got beta={beta}, d={d}")
    c1 = p.c1
    lhs = (4.0 / math.pi) * math.sqrt(12.0 * d * cbar(p.c0, c1, p.c2)) * math.sqrt(beta * c1) / c1 * l1_g0pp
    return lhs, lhs <= 0.5


def _lhs_9(beta: float, d: int, c1: float, cb: float, l2_g0p: float) -> float:
    if not math.isfinite(l2_g0p):
        return math.inf
    return 50.0 / math.sqrt(2.0 * math.pi) * d * cb * (beta * c1) ** 0.75 / c1 * l2_g0p


def _lhs_11(beta: float, d: int, c1: float, cb: float, l1_g0: float) -> float:
    if not math.isfinite(l1_g0):
        return math.inf
    return C11_PREFACTOR * d * d * cb**3 * (beta * c1) ** 1.5 / c1 * l1_g0


def check_conditions(beta: float, d: int, p: Potential, nr: NormReport) -> ConditionReport:
    """Evaluate the primary and both alternative conditions at (beta, d) from the full norm report.

    gil check writes it with norms(); see primary_condition for the narrow path.
    """
    lf, ok_f = primary_condition(beta, d, p, nr.l1_g0pp)
    cb = cbar(p.c0, p.c1, p.c2)
    c1 = p.c1
    l9 = _lhs_9(beta, d, c1, cb, nr.l2_g0p)
    l11 = _lhs_11(beta, d, c1, cb, nr.l1_g0)

    # thresholds: each lhs is a pure power of beta, so invert directly
    bmax_f = (0.5 / lf) ** 2 * beta if lf > 0 else math.inf
    bmax_9 = (0.5 / l9) ** (4.0 / 3.0) * beta if 0 < l9 < math.inf else (math.inf if l9 == 0 else 0.0)
    bmax_11 = (0.25 / l11) ** (2.0 / 3.0) * beta if 0 < l11 < math.inf else (math.inf if l11 == 0 else 0.0)

    eps = nr.quadrature_error
    ok_fp = primary_condition(beta, d, p, nr.l1_g0pp + eps)[1]
    l9_p = _lhs_9(beta, d, c1, cb, nr.l2_g0p + eps)
    l11_p = _lhs_11(beta, d, c1, cb, nr.l1_g0 + eps)
    return ConditionReport(
        beta=beta,
        d=d,
        cbar=cb,
        lhs_fcond=lf,
        lhs_9=l9,
        lhs_11=l11,
        beta_max_fcond=bmax_f,
        beta_max_9=bmax_9,
        beta_max_11=bmax_11,
        satisfied={"fcond": ok_f, "alt_9": l9 <= 0.5, "alt_11": l11 <= 0.25},
        satisfied_pessimistic={"fcond": ok_fp, "alt_9": l9_p <= 0.5, "alt_11": l11_p <= 0.25},
        norm_error=eps,
    )


def scale_to_unit(p: Potential, beta: float) -> tuple[Potential, float]:
    """Rescale (V0, g0) at inverse temperature beta to the beta = 1, c1 = 1 frame.

    Returns the scaled potential and tilt_scale k = sqrt(beta c1); tilts map as
    u -> k u.  The scaled potential is beta V(s / k), evaluated by the family's
    own closed forms with beta and k folded into their constants (Potential.frame),
    so it costs no more per point than the raw family.  The constants are
    (c0/c1, 1, c2/c1), the anharmonic part maps as g -> beta g(s / k), and the
    concave-part norm picks up the factor sqrt(beta c1)/c1.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if p.frame is None:
        raise ValueError(f"potential {p.family!r} has no closed forms to rescale")
    k = math.sqrt(beta * p.c1)
    scaled = replace(
        p.frame(beta, k),
        family=f"scaled:{p.family}",
        c0=p.c0 / p.c1,
        c1=1.0,
        c2=p.c2 / p.c1,
        g0pp_breakpoints=tuple(x * k for x in p.g0pp_breakpoints),
        g0_support=None if p.g0_support is None else (p.g0_support[0] * k, p.g0_support[1] * k),
        frame=lambda b, kk: p.frame(beta * b, k * kk),
    )
    return scaled, k
