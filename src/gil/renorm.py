"""One-step scale decomposition: lambda selection, induced targets, convexity.

The pinned Gaussian splits into independent layers with Dirichlet weights at
scales lambda and 1 - lambda; integrating the small-variance layer first turns
the bond energy G into an effective Hamiltonian whose convexity, with
lambda = 1/(2 cbar), carries the margin cbar ||grad theta_dot||^2.  This module
certifies that margin in closed form, estimates the one-layer map R1 G by
quadrature or Monte Carlo, verifies the finite-difference curvature bound of
R1 G, and drives the end-to-end convexity verification of the free energy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .conditions import cbar, primary_condition, scale_to_unit
from .gff import poincare_constant
from .lattice import Torus, Field, bond_args, grad_norm_sq, pinned
from .mcmc import ChainConfig, Estimate, Target, make_h1_target, fluctuation_hessian, stream, _blocks, _jackknife
from .oracle import ORACLE_ERROR, f_tilt, f_tilt_hessian, hessian_fd
from .potentials import Potential, norm
from .quadrature import SLAB_VALUES, QuadratureError, field_bond_map, log_expectation

__all__ = [
    "DecompositionPlan",
    "ConvexityCertificate",
    "induced_h1",
    "certify_h1_convexity",
    "estimate_r1g",
    "verify_c6",
    "verify_theorem",
    "TheoremRow",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecompositionPlan:
    """Split parameter and constants for the one-step decomposition."""

    potential: Potential  # unit-scaled: c1 = 1
    torus: Torus
    cbar: float
    lam: float

    @classmethod
    def from_potential(cls, p: Potential, t: Torus, lam: float | None = None) -> "DecompositionPlan":
        if abs(p.c1 - 1.0) > 1e-12:
            raise ValueError("DecompositionPlan requires a unit-scaled potential; call scale_to_unit first")
        cb = cbar(p.c0, p.c1, p.c2)
        if cb < 1.0:
            raise ValueError(f"composite constant {cb} < 1 is impossible for a valid potential")
        lam = 1.0 / (2.0 * cb) if lam is None else lam
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        return cls(potential=p, torus=t, cbar=cb, lam=lam)


def induced_h1(plan: DecompositionPlan, u, psi: Field) -> Target:
    """Sampleable target H1(theta) = G(u, psi + theta) + ||grad theta||^2/(2 lambda)."""
    return make_h1_target(plan.torus, plan.potential, u, psi.values, plan.lam)


@dataclass(frozen=True)
class ConvexityCertificate:
    ok: bool
    min_margin_grad: float   # a: D2H1(th)(td, td) - cbar ||grad td||^2 >= a ||grad td||^2
    min_margin_l2: float     # a delta_m: the same against cbar delta_m ||td||^2, per ||td||^2, when 1/lambda >= c0


def certify_h1_convexity(plan: DecompositionPlan, tol: float = 1e-8) -> ConvexityCertificate:
    """D^2 H1 >= cbar ||grad .||^2 >= cbar delta_m ||.||^2 in closed form, at every u, psi and theta.

    The quadratic form is sum g''(u_i + grad_i(psi + theta)) (grad_i
    theta_dot)^2 + ||grad theta_dot||^2 / lambda, and in the unit frame
    g'' = V'' - 1 >= g0'' >= -c0, so it exceeds cbar ||grad theta_dot||^2 by
    at least a ||grad theta_dot||^2 with a = 1/lambda - c0 - cbar.  With the
    Poincare constant, ||grad theta_dot||^2 >= delta_m ||theta_dot||^2, the
    L2 margin is a delta_m whenever 1/lambda >= c0.  The certificate holds
    exactly when a >= -tol.
    """
    margin = 1.0 / plan.lam - plan.potential.c0 - plan.cbar
    return ConvexityCertificate(
        ok=margin >= -tol, min_margin_grad=margin, min_margin_l2=margin * poincare_constant(plan.torus)
    )


def estimate_r1g(
    plan: DecompositionPlan,
    u,
    psi: Field,
    method: str = "oracle",
    n_samples: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """(R1 G)(u, psi) by quadrature (oracle) or importance-free Monte Carlo (mc).

    The mc route draws the small-scale layer's bond gradients exactly, as
    latent normals times quadrature.field_bond_map, stabilizes -log mean
    exp(-G) with a max shift, and reports a delete-one jackknife error.  It
    goes through the samples in slices of SLAB_VALUES / 4 bond arguments,
    whatever the torus, each drawn in turn from the one stream as (bonds,
    samples), so shift and bond sum run on the long axis, and keeps only the
    n_samples weights.  Raises ValueError for fewer than two samples.
    """
    t = plan.torus
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if method == "oracle":
        val = -log_expectation(t, plan.potential, u, plan.lam, psi_values=psi.values)[0]
        return Estimate(value=val, std_error=ORACLE_ERROR, n_effective=math.inf, method="oracle")
    if method != "mc":
        raise ValueError(f"method must be 'oracle' or 'mc', got {method}")
    if n_samples < 2:
        raise ValueError(f"estimate_r1g: n_samples must be at least 2 for an error bar, got {n_samples}")
    rng = stream(seed, purpose="r1g")
    F = field_bond_map(t, plan.lam)
    shifts = bond_args(t, psi.values, u).reshape(-1, 1)
    w = np.empty(n_samples)
    size = max(1, SLAB_VALUES // (4 * len(F)))  # g's evaluation holds about four (bonds, samples) arrays
    for k in range(0, n_samples, size):
        args = F @ rng.standard_normal((min(size, n_samples - k), t.n_dof)).T
        args += shifts
        w[k : k + size] = -plan.potential.g(args).sum(axis=0)
    shift = w.max()
    if not math.isfinite(shift):
        raise FloatingPointError("all Monte Carlo weights underflowed; rescale the problem")
    w -= shift
    e = np.exp(w, out=w)
    total, blocks = e.sum(), _blocks(e[None])
    # the blocks' sums in one call (pairwise, as a slice's sum), and all leave-one-out values at once
    counts = np.full(len(blocks), blocks.shape[1])
    _, se = _jackknife(lambda tot, n: -(shift + np.log(tot / n)), (blocks.sum(axis=1), counts), (total, n_samples))
    return Estimate(value=-(shift + math.log(total / n_samples)), std_error=float(se), n_effective=float(n_samples), method="mc")


@dataclass(frozen=True)
class CurvatureBoundReport:
    ok: bool
    values: np.ndarray      # FD second derivatives per direction
    bounds: np.ndarray      # required lower bounds per direction
    margins: np.ndarray


def verify_c6(
    plan: DecompositionPlan,
    u,
    psi: Field,
    directions,
    tol: float = 1e-6,
    h: float = 1e-3,
) -> CurvatureBoundReport:
    """FD curvature of R1 G along joint (u, psi) directions against its lower bound.

    Bound: D^2 R1G(u, psi)(du, dpsi)^2 >= -( |T| |du|^2 + ||grad dpsi||^2 ) / 2.
    Directions are (du, dpsi_dof) pairs.
    """
    t = plan.torus
    u = np.atleast_1d(np.asarray(u, dtype=float))
    vals, bounds = [], []
    for du, dpsi_dof in directions:
        du = np.atleast_1d(np.asarray(du, dtype=float))
        dpsi = pinned(dpsi_dof)

        def f(s):
            return -log_expectation(t, plan.potential, u + s[0] * du, plan.lam, psi_values=psi.values + s[0] * dpsi)[0]

        vals.append(hessian_fd(f, 0.0, h)[0, 0])
        bounds.append(-0.5 * (t.volume * float(du @ du) + grad_norm_sq(t, dpsi)))
    vals, bounds = np.array(vals), np.array(bounds)
    margins = vals - bounds
    return CurvatureBoundReport(ok=bool(np.all(margins >= -tol)), values=vals, bounds=bounds, margins=margins)


@dataclass(frozen=True)
class TheoremRow:
    u: tuple
    min_eig: float
    bound: float
    margin: float
    method: str
    std_error: float
    in_hypothesis: bool
    verdict: str  # "pass", "fail", or "out-of-hypothesis"


def verify_theorem(
    p: Potential,
    beta: float,
    t: Torus,
    u_grid,
    cfg: ChainConfig | None = None,
    method: str = "auto",
    tol: float = 1e-4,
) -> list[TheoremRow]:
    """Check min eig D^2 f(u) >= (c1/2) |T| - tol on each grid tilt.

    method "auto" takes the oracle, and chains for a row whose oracle raises
    QuadratureError when cfg is given (without it the error propagates); each
    such row logs one warning.  Beyond Mayer's and GH's reach the oracle raises
    before any evaluation, and a pure Gaussian takes the exact route in every
    d.  Oracle rows in d = 1 come from one conditioning pass per tilt
    (oracle.f_tilt_hessian, whatever the potential) and report its error as
    std_error; in d >= 2 they are Richardson FD
    Hessians of f_tilt, the u-dependent part of the quadrature free energy,
    reporting 10 ORACLE_ERROR.  Chain rows use the fluctuation
    identity in the unit frame mapped back by
    D^2 f_beta(u) = c1 D^2 f_1(sqrt(beta c1) u).  Out-of-hypothesis tilts are
    computed and labeled, never asserted: the label is the primary condition's
    verdict, which reads ||g0''||_- alone, so that is the one g0 norm
    integrated (at tol 1e-8).  Chain rows of grid tilt j use streams
    (seed, j, 0, chain).
    """
    in_hyp = primary_condition(beta, t.d, p, norm(p, "l1_g0pp", 1e-8)[0])[1]
    bound = 0.5 * p.c1 * t.volume
    if method not in ("auto", "oracle", "chain"):
        raise ValueError(f"method must be 'auto', 'oracle' or 'chain', got {method!r}")
    rows = []
    ps, k = scale_to_unit(p, beta)
    for j, u in enumerate(u_grid):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        row_method = "chain" if method == "chain" else "oracle"
        if row_method == "oracle":
            try:
                if t.d == 1:
                    H, se = f_tilt_hessian(u, p, t, beta)
                else:
                    H, se = hessian_fd(lambda uu: f_tilt(uu, p, t, beta), u, h=1e-3), 10.0 * ORACLE_ERROR
            except QuadratureError as exc:
                if method != "auto" or cfg is None:
                    raise
                log.warning("verify_theorem: grid tilt %d (u = %s) recomputed on chains: %s", j, u.tolist(), exc)
                row_method = "chain"
        if row_method == "chain":
            if cfg is None:
                raise ValueError("chain method requires a ChainConfig")
            est = fluctuation_hessian(k * u, ps, t, cfg, tilt=j)
            H = p.c1 * np.asarray(est.value)
            w, v = np.linalg.eigh(H)
            vec = np.abs(v[:, 0])
            se = p.c1 * float(vec @ np.asarray(est.std_error) @ vec)
        min_eig = float(np.linalg.eigvalsh(H)[0])
        margin = min_eig - bound
        if in_hyp:
            verdict = "pass" if min_eig >= bound - tol else "fail"
        else:
            verdict = "out-of-hypothesis"
        rows.append(
            TheoremRow(
                u=tuple(float(x) for x in u),
                min_eig=min_eig,
                bound=bound,
                margin=margin,
                method=row_method,
                std_error=se,
                in_hypothesis=in_hyp,
                verdict=verdict,
            )
        )
    return rows
