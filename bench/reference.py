"""Independent d = 1 free-energy reference: the conditioning trick on a fixed grid.

On the one-dimensional torus of side m with the origin pinned, the m bond
gradients of a field under the Dirichlet weight exp(-||grad phi||^2 / 2) are iid
standard normals conditioned to sum to zero.  For a potential in the unit frame,
V(s) = s^2/2 + g(s), that turns the m-1 dimensional oracle integral into one
Fourier integral:

    E[exp(-sum_b g(u + e_b))] = (1 / (2 pi p0)) int phi(t)^m dt,
    phi(t) = int N(e) exp(-g(u + e)) exp(i t e) de,        p0 = 1 / sqrt(2 pi m).

Writing phi = exp(-t^2/2) + psi, the psi-free binomial term integrates to one
exactly, so log E = log1p(rest) keeps its relative precision even when g is a
tiny perturbation.  Both integrals use composite Gauss-Legendre on fixed panels,
refined geometrically around the kinks of g, so the cost is fixed (about a
second per free-energy difference on a 2-core machine, whatever m is) and
nothing is shared with gil's quadrature backends: only the potential function V
and the temperature (half gil's primary-condition threshold) are taken from gil.

``python3 bench/reference.py`` recomputes ``bench/reference.json``, the stored
reference values for the oracle_backends workload, with their provenance.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

import benchenv  # noqa: F401  (thread pinning before numpy)
import numpy as np

GL_NODES = 32
E_LIMIT = 13.0      # N(13) < 1e-36: the e-integral is truncated there
E_PANEL = 0.25
T_LIMIT = 60.0      # |phi|^m beyond t = 60 contributes < 1e-12 for m >= 3
T_PANEL = 0.5
REFINE = np.geomspace(1e-5, 0.5, 16)  # panel edges around each kink, both sides
T_CHUNK = 256

REFERENCE_JSON = Path(__file__).with_name("reference.json")


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _e_grid(kinks) -> tuple[np.ndarray, np.ndarray]:
    edges = [np.arange(-E_LIMIT, E_LIMIT + E_PANEL / 2, E_PANEL)]
    for c in kinks:
        edges.append(c + REFINE)
        edges.append(c - REFINE)
        edges.append([c])
    e = np.unique(np.clip(np.concatenate(edges), -E_LIMIT, E_LIMIT))
    return _gl_panels(e)


def log_expectation_1d(g, m: int, kinks=()) -> float:
    """log E[exp(-sum_b g(e_b))] for m iid N(0, 1) gradients conditioned to sum 0.

    g is a vectorized function of the bond argument (the tilt already added);
    kinks are arguments where g or a low derivative is not smooth.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    e, we = _e_grid(kinks)
    # psi(t) is the Fourier transform of N(e) (exp(-g(e)) - 1)
    r = np.exp(-0.5 * e * e) / math.sqrt(2.0 * math.pi) * np.expm1(-g(e)) * we
    t, wt = _gl_panels(np.arange(0.0, T_LIMIT + T_PANEL / 2, T_PANEL))
    total = 0.0
    binom = [math.comb(m, j) for j in range(m + 1)]
    for a in range(0, len(t), T_CHUNK):
        tt = t[a : a + T_CHUNK]
        psi = np.exp(1j * np.outer(tt, e)) @ r
        gauss = np.exp(-0.5 * tt * tt)
        acc = np.zeros_like(psi)
        psi_j = np.ones_like(psi)
        for j in range(1, m + 1):
            psi_j = psi_j * psi
            acc += binom[j] * gauss ** (m - j) * psi_j
        total += float(np.sum(acc.real * wt[a : a + T_CHUNK]))
    # the t-integral runs over [0, T]; Re phi^m is even in t
    p0 = 1.0 / math.sqrt(2.0 * math.pi * m)
    return math.log1p(2.0 * total / (2.0 * math.pi * p0))


def delta_f_1d(v, c1: float, beta: float, m: int, u: float, kinks=()) -> float:
    """f(u) - f(0) on the d = 1 torus of side m, with f = -(1/beta) log Z.

    v is the potential V in the user frame, c1 its lower curvature constant and
    kinks the user-frame arguments where V is not smooth.  The substitution
    phi -> phi / k with k = sqrt(beta c1) gives the unit-frame anharmonicity
    g(s) = beta V(s / k) - s^2 / 2, and f(u) - f(0) = m c1 u^2 / 2 - (log E(k u)
    - log E(0)) / beta.
    """
    k = math.sqrt(beta * c1)
    us = k * u

    def g_at(shift):
        return lambda e: beta * np.asarray(v((shift + e) / k), dtype=float) - 0.5 * (shift + e) ** 2

    scaled = [k * c for c in kinks] + [0.0]
    log_u = log_expectation_1d(g_at(us), m, [c - us for c in scaled])
    log_0 = log_expectation_1d(g_at(0.0), m, scaled)
    return 0.5 * m * c1 * u * u - (log_u - log_0) / beta


# the in-hypothesis example (a) rows of the oracle_backends workload
ADAPTIVE_ROWS = [
    {"a": 0.5, "d": 1, "m": 3, "u": 0.5},
    {"a": 0.5, "d": 1, "m": 4, "u": 0.5},
]


def compute_references() -> dict:
    from gil.conditions import check_conditions
    from gil.potentials import example_a, norms

    rows = []
    for spec in ADAPTIVE_ROWS:
        p = example_a(spec["a"])
        # the temperature is a config input, so it comes from gil like the
        # workloads' other temperatures; the integral below does not
        beta = check_conditions(1.0, spec["d"], p, norms(p)).beta_max_fcond / 2.0
        t0 = time.perf_counter()
        value = delta_f_1d(p.v, p.c1, beta, spec["m"], spec["u"], p.g0pp_breakpoints)
        rows.append(
            {
                **spec,
                "family": "example_a",
                "beta": beta,
                "delta_f": value,
                "seconds": time.perf_counter() - t0,
            }
        )
    return {
        "description": "d = 1 conditioning-trick references for oracle_backends free-energy rows",
        "method": "Fourier integral of the m-th power of the bond characteristic function, fixed composite Gauss-Legendre grids",
        "grid": {
            "gl_nodes": GL_NODES,
            "e_limit": E_LIMIT,
            "e_panel": E_PANEL,
            "t_limit": T_LIMIT,
            "t_panel": T_PANEL,
            "refine": [float(x) for x in REFINE],
        },
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }


def load_references() -> list[dict]:
    return json.loads(REFERENCE_JSON.read_text())["rows"]


def main() -> int:
    ref = compute_references()
    REFERENCE_JSON.write_text(json.dumps(ref, indent=2) + "\n")
    for row in ref["rows"]:
        print(f"m={row['m']} u={row['u']} beta={row['beta']:.6g} delta_f={row['delta_f']!r} ({row['seconds']:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
