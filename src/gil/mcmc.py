"""Lockstep ensemble MALA on pinned fields, and the chain-side estimators.

One sampler advances all rows of a job -- chains, thermodynamic-integration
nodes -- as a single (n_rows, n_dof) state with one batched energy-and-gradient
call per step.  Everything else is per row: a Langevin proposal with Metropolis
correction, a step size tuned toward 57.4% acceptance during burn-in and frozen
afterwards, a finite-difference gradient check, a post burn-in acceptance guard,
and a noise stream from SeedSequence((seed, tilt, node, chain)) drawn in
fixed-size chunks of steps; `stream` derives that and every auxiliary stream.
A row's arithmetic is elementwise or a sum over its own trailing axes, so its
samples are bitwise the same alone or in any ensemble.
The free-energy estimators (fluctuation identity, thermodynamic integration) run
their own rows; the lemma checks (Fourier bounds, Poincare variance bound) read
a sample array, so one chain run serves both.  Estimators carry batch-means or
jackknife standard errors with at least 20 blocks; nothing is reported as a bare
point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conditions import cbar
from .lattice import Torus, Field, anharmonic_g, bond_args, bond_divergence, grad_all, pinned
from .potentials import Potential, norms

__all__ = [
    "ChainConfig",
    "Estimate",
    "Target",
    "Observable",
    "StepSizeError",
    "GradientMismatchError",
    "make_gibbs_target",
    "make_h1_target",
    "run_chain",
    "run_chains",
    "stream",
    "batch_means",
    "fluctuation_hessian",
    "fourier_k_grid",
    "verify_l1norm_bounds",
    "poincare_variance_check",
    "thermodynamic_integration",
]

MIN_BLOCKS = 20
NOISE_CHUNK = 64  # steps of noise drawn at once per row; fixed, so streams do not depend on the batch
# purpose words of the streams drawn outside any chain row
AUX_STREAMS = {"observables": 0xB5, "probes": 0xC0, "r1g": 0x51}


def stream(seed: int, row: tuple = (), purpose: str | None = None) -> np.random.Generator:
    """The random stream of chain row (tilt, node, chain), or of an auxiliary purpose.

    A row draws from SeedSequence((seed, tilt, node, chain)): the seed's 32-bit
    words, the top one nonzero unless the seed is 0, then tilt, node and chain.  A
    purpose draws from SeedSequence(seed, spawn_key=(0, 0, 0, word)): the seed
    zero-padded to at least four words, then 0, 0, 0, word.  Its word before the
    last three is 0 and it has at least eight words, so it equals no row key,
    whatever the seed; a shorter key would alias a zero-padded row key.
    """
    if purpose is None:
        return np.random.default_rng(np.random.SeedSequence((seed, *row)))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0, 0, AUX_STREAMS[purpose])))


class StepSizeError(RuntimeError):
    """Post burn-in acceptance rate outside [10%, 95%]."""


class GradientMismatchError(RuntimeError):
    """The target's gradient disagrees with finite differences of its energy."""


@dataclass(frozen=True)
class ChainConfig:
    """MALA schedule: step size (None = auto-tune from the target hint), lengths, seed."""

    n_steps: int = 20_000
    burn_in: int = 2_000
    thinning: int = 1
    n_chains: int = 2
    seed: int = 0
    step_size: float | None = None
    tune: bool = True
    check_acceptance: bool = True

    def __post_init__(self):
        if not (0 <= self.burn_in < self.n_steps):
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.thinning < 1 or self.n_chains < 1:
            raise ValueError("thinning and n_chains must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo or oracle value with statistical error and provenance."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_effective: float
    method: str  # "chain" (MALA), "mc" (iid Monte Carlo) or "oracle"

    def to_dict(self) -> dict:
        v = self.value.tolist() if isinstance(self.value, np.ndarray) else self.value
        e = self.std_error.tolist() if isinstance(self.std_error, np.ndarray) else self.std_error
        return {"value": v, "std_error": e, "n_effective": self.n_effective, "method": self.method}


@dataclass(frozen=True)
class Target:
    """Batched log-density exp(-E) over pinned dof vectors.

    energy_grad maps X[rows, n_dof] to (E[rows], G[rows, n_dof]); it may append a
    per-row observable O[rows, k] computed from the same arrays (D_u H for Gibbs
    targets), which the sampler keeps beside each kept sample.
    """

    energy_grad: Callable
    n_dof: int
    step_hint: float = 0.3
    name: str = ""


@dataclass(frozen=True)
class Observable:
    """Scalar observable with gradient, for variance-bound checks.

    Batched over samples: value maps S[n, n_dof] to [n], grad maps it to [n, n_dof].
    """

    value: Callable
    grad: Callable
    name: str = ""


def _row_sum(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], -1).sum(axis=-1)


def make_gibbs_target(t: Torus, p: Potential, u, beta: float) -> Target:
    """Target exp(-beta H(u, .)) over pinned fields; u[d] for all rows or u[rows, d] per row.

    The observable is D_u H = sum_x V'(u_i + grad_i phi(x)), read off the V' array.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def energy_grad(X):
        g = bond_args(t, pinned(X), u)
        vp = p.dv(g)
        return beta * _row_sum(p.v(g)), beta * bond_divergence(t, vp), vp.sum(axis=-1)

    hint = 0.5 / math.sqrt(beta * (p.c2 * 2.0 * t.d) + 1.0)
    return Target(energy_grad=energy_grad, n_dof=t.n_dof, step_hint=hint, name=f"gibbs[{p.family}]")


def make_h1_target(t: Torus, p: Potential, u, psi_values: np.ndarray, lam: float) -> Target:
    """Induced target exp(-H1(theta)), H1 = G(u, psi + theta) + ||grad theta||^2/(2 lam)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    psi_values = np.asarray(psi_values, dtype=float)

    def energy_grad(X):
        theta = pinned(X)
        arg = bond_args(t, psi_values + theta, u)
        gt = grad_all(t, theta)
        energy = anharmonic_g(t, u, psi_values + theta, p) + _row_sum(gt * gt) / (2.0 * lam)
        return energy, bond_divergence(t, (p.dv(arg) - arg) + gt / lam)

    hint = 0.5 / math.sqrt(2.0 * t.d / lam + 1.0)
    return Target(energy_grad=energy_grad, n_dof=t.n_dof, step_hint=hint, name=f"h1[{p.family}]")


@dataclass
class ChainResult:
    samples: np.ndarray            # (n_kept, n_dof)
    acceptance: float              # post burn-in
    step_size: float               # frozen value
    row: tuple                     # (tilt, node, chain) stream key
    observable: np.ndarray         # (n_kept, k) target observable at each kept sample, k = 0 if none


def _fused(target: Target, X: np.ndarray):
    E, G, *O = target.energy_grad(X)
    return E, G, (O[0] if O else np.zeros((len(X), 0)))


def _label(row) -> str:
    return "row (tilt {}, node {}, chain {})".format(*row)


def _fd_gradient_check(target: Target, X: np.ndarray, rows: list) -> None:
    """Central differences of every row's energy against its gradient at X."""
    _, G, *_ = target.energy_grad(X)
    h = 1e-5
    fd = np.empty_like(G)
    for j in range(target.n_dof):
        e = np.zeros(target.n_dof)
        e[j] = h
        fd[:, j] = (target.energy_grad(X + e)[0] - target.energy_grad(X - e)[0]) / (2.0 * h)
    err = np.max(np.abs(fd - G), axis=1) / np.maximum(1.0, np.max(np.abs(G), axis=1))
    for r in np.flatnonzero(err > 1e-4):
        raise GradientMismatchError(f"{_label(rows[r])}: target gradient differs from finite differences by {err[r]:.2e}")


def run_chains(
    target: Target, cfg: ChainConfig, rows: Sequence[tuple] | None = None, keep_samples: bool = True
) -> list[ChainResult]:
    """Lockstep MALA over rows keyed (tilt, node, chain); default rows (0, 0, c) for c < n_chains.

    Row r draws from stream(cfg.seed, rows[r]): first a 0.1 N(0, 1) point for
    the gradient check, then, per chunk of steps, normals (k, n_dof) and uniforms (k,).
    With keep_samples False only the target's observable is kept (samples are (0, n_dof)).
    """
    rows = [(0, 0, c) for c in range(cfg.n_chains)] if rows is None else [tuple(r) for r in rows]
    n_rows, n = len(rows), target.n_dof
    rngs = [stream(cfg.seed, row) for row in rows]
    _fd_gradient_check(target, np.stack([0.1 * rng.standard_normal(n) for rng in rngs]), rows)
    X = np.zeros((n_rows, n))
    E, G, O = _fused(target, X)
    if E.shape != (n_rows,):
        raise ValueError(f"target returned {E.shape} energies for {n_rows} rows")
    h = np.full(n_rows, float(cfg.step_size if cfg.step_size is not None else target.step_hint))
    tune = cfg.tune and cfg.step_size is None
    n_kept = len(range(cfg.burn_in, cfg.n_steps, cfg.thinning))
    samples = np.empty((n_rows, n_kept if keep_samples else 0, n))
    kept_obs = np.empty((n_rows, n_kept, O.shape[1]))
    window = np.zeros(n_rows)
    accepted = np.zeros(n_rows)
    hc, drift = h[:, None], 0.5 * h[:, None] ** 2
    for step in range(cfg.n_steps):
        c = step % NOISE_CHUNK
        if c == 0:
            k = min(NOISE_CHUNK, cfg.n_steps - step)
            xi_chunk = np.stack([rng.standard_normal((k, n)) for rng in rngs], axis=1)
            log_u_chunk = np.log1p(-np.stack([rng.random(k) for rng in rngs], axis=1))
            log_q_fwd = -0.5 * (xi_chunk * xi_chunk).sum(axis=-1)
        xi = xi_chunk[c]
        Y = X - drift * G + hc * xi
        EY, GY, OY = _fused(target, Y)
        diff = X - (Y - drift * GY)
        log_q_rev = -0.5 * (diff * diff).sum(axis=-1) / (h * h)
        acc = log_u_chunk[c] < (E - EY) + (log_q_rev - log_q_fwd[c])
        X = np.where(acc[:, None], Y, X)
        E = np.where(acc, EY, E)
        G = np.where(acc[:, None], GY, G)
        O = np.where(acc[:, None], OY, O)
        if step < cfg.burn_in:
            window += acc
            if tune and (step + 1) % 25 == 0:
                h = h * np.exp(0.4 * (window / 25.0 - 0.574))
                hc, drift = h[:, None], 0.5 * h[:, None] ** 2
                window[:] = 0.0
            continue
        accepted += acc
        j, off = divmod(step - cfg.burn_in, cfg.thinning)
        if off == 0:
            if keep_samples:
                samples[:, j] = X
            kept_obs[:, j] = O
    rate = accepted / (cfg.n_steps - cfg.burn_in)
    if cfg.check_acceptance:
        for r in np.flatnonzero((rate < 0.10) | (rate > 0.95)):
            raise StepSizeError(f"{_label(rows[r])}: acceptance rate {rate[r]:.3f} outside [0.10, 0.95]; adjust step_size")
    return [
        ChainResult(samples[r], float(rate[r]), float(h[r]), rows[r], kept_obs[r]) for r in range(n_rows)
    ]


def run_chain(target: Target, cfg: ChainConfig, chain_index: int = 0) -> ChainResult:
    """One MALA chain: the one-row ensemble with stream key (cfg.seed, 0, 0, chain_index)."""
    return run_chains(target, cfg, [(0, 0, chain_index)])[0]


# ---------------------------------------------------------------------------
# error bars


def _block_slices(n: int, min_blocks: int = MIN_BLOCKS):
    nb = max(min_blocks, int(math.sqrt(n)))
    nb = min(nb, n)
    b = n // nb
    return [(j * b, (j + 1) * b) for j in range(nb)]


def batch_means(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Batch-means mean, std error and effective sample size along axis 0."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2 * MIN_BLOCKS:
        mean = x.mean(axis=0)
        se = x.std(axis=0, ddof=1) / math.sqrt(n)
        return mean, se, float(n)
    slices = _block_slices(n)
    blocks = np.stack([x[a:b].mean(axis=0) for a, b in slices])
    nb = blocks.shape[0]
    mean = blocks.mean(axis=0)
    se = blocks.std(axis=0, ddof=1) / math.sqrt(nb)
    var_x = x.var(axis=0, ddof=1)
    var_mean = np.maximum(se**2, 1e-300)
    n_eff = float(np.min(np.atleast_1d(var_x / var_mean)))
    return mean, se, min(n_eff, float(n))


# ---------------------------------------------------------------------------
# free-energy Hessian via the fluctuation identity


def fluctuation_hessian(u, p: Potential, t: Torus, cfg: ChainConfig, tilt: int = 0) -> Estimate:
    """D^2 f(u) = <D_u^2 H> - var(D_u H) at beta = 1 for a unit-scaled potential.

    D_u H_i = sum_x V'(u_i + grad_i phi(x)) is the Gibbs target's observable,
    D_u^2 H is diagonal with entries sum_x V''(u_i + grad_i phi(x)).  The
    covariance term uses the unbiased estimator; errors come from a delete-one
    jackknife over >= 20 blocks.  Chains are rows (tilt, 0, chain).
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("fluctuation_hessian requires a unit-scaled potential; call scale_to_unit first")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    results = run_chains(make_gibbs_target(t, p, u, beta=1.0), cfg, [(tilt, 0, c) for c in range(cfg.n_chains)])

    blocks = []  # (sum_s1, sum_outer, sum_s2, count)
    for r in results:
        s1 = r.observable
        # V'' over slices of 1024 samples keeps the bond arrays small on large tori
        s2 = np.concatenate([p.d2v(bond_args(t, pinned(r.samples[a : a + 1024]), u)).sum(axis=-1)
                             for a in range(0, len(s1), 1024)])
        for a, b in _block_slices(len(s1)):
            sl1, sl2 = s1[a:b], s2[a:b]
            blocks.append((sl1.sum(axis=0), sl1.T @ sl1, sl2.sum(axis=0), b - a))

    def statistic(sum1, outer, sum2, n):
        m1 = sum1 / n
        cov = (outer - n * np.outer(m1, m1)) / (n - 1)
        return np.diag(sum2 / n) - cov

    tot1 = sum(b[0] for b in blocks)
    toto = sum(b[1] for b in blocks)
    tot2 = sum(b[2] for b in blocks)
    totn = sum(b[3] for b in blocks)
    full = statistic(tot1, toto, tot2, totn)

    jk = []
    for b1, bo, b2, bn in blocks:
        jk.append(statistic(tot1 - b1, toto - bo, tot2 - b2, totn - bn))
    jk = np.stack(jk)
    J = jk.shape[0]
    se = np.sqrt((J - 1) / J * np.sum((jk - jk.mean(axis=0)) ** 2, axis=0))

    _, _, n_eff = batch_means(np.concatenate([r.observable for r in results]))
    return Estimate(value=full, std_error=se, n_effective=n_eff, method="chain")


# ---------------------------------------------------------------------------
# characteristic function and the Fourier bounds


def _bond_series(t: Torus, samples: np.ndarray, axis: int, site: int) -> np.ndarray:
    vals = pinned(samples)
    return vals[:, t.forward[axis, site]] - vals[:, site]


def _phase_stats(gv: np.ndarray, k: np.ndarray, chunk: int = 64):
    """Batch-means mean and error of cos/sin(k * gv), chunked over k."""
    re = np.empty_like(k)
    im = np.empty_like(k)
    se_re = np.empty_like(k)
    se_im = np.empty_like(k)
    for a in range(0, len(k), chunk):
        kk = k[a : a + chunk]
        phase = np.outer(gv, kk)
        re[a : a + chunk], se_re[a : a + chunk], _ = batch_means(np.cos(phase))
        im[a : a + chunk], se_im[a : a + chunk], _ = batch_means(np.sin(phase))
    return re, im, se_re, se_im


@dataclass(frozen=True)
class L1NormBoundReport:
    """Chain checks of the characteristic-function envelope and its consequences."""

    cbar: float
    lam: float
    k: np.ndarray
    abs_a: np.ndarray
    se_abs: np.ndarray
    envelope: np.ndarray
    pointwise_ok: bool
    n_pointwise_violations: int
    integral: float
    integral_se: float
    integral_bound: float
    integral_ok: bool
    g0pp_mean: float
    g0pp_se: float
    g0pp_bound_l1: float
    g0pp_ok: bool
    g0pp_bound_l2: float | None
    g0pp_ok_l2: bool | None

    def ok(self) -> bool:
        extra = True if self.g0pp_ok_l2 is None else self.g0pp_ok_l2
        return self.pointwise_ok and self.integral_ok and self.g0pp_ok and extra


def fourier_k_grid(t: Torus, cb: float, k_max: float | None = None, n_points: int = 401) -> np.ndarray:
    """Symmetric k grid of the Fourier bounds; by default out to the integral bound's scale 4 sqrt(12 d cbar)."""
    if k_max is None:
        k_max = 4.0 * math.sqrt(12.0 * t.d * cb)
    return np.linspace(-k_max, k_max, n_points)


def _envelope_tail(c: float, k_max: float) -> float:
    """Integral of min(1, c / k^2) over |k| > k_max: 2c/k_max beyond sqrt(c), 4 sqrt(c) - 2 k_max below."""
    if k_max >= math.sqrt(c):
        return 2.0 * c / k_max
    return 4.0 * math.sqrt(c) - 2.0 * k_max


def verify_l1norm_bounds(
    p: Potential,
    t: Torus,
    u,
    psi: Field,
    samples: np.ndarray,
    lam: float | None = None,
    k_grid=None,
    axis: int = 0,
    site: int = 0,
) -> L1NormBoundReport:
    """Estimate A(k) = <exp(i k grad_i theta(x))> from samples and test the Fourier bounds.

    samples[n, n_dof] are theta draws from the induced convex target at (u, psi,
    lam), e.g. the concatenated rows of run_chains(make_h1_target(...)).  The
    same samples estimate A(k) and A(-k) = conj A(k).

    Checks, each within 4 standard errors:
      |A(k)| <= min(1, 12 d cbar / k^2) pointwise on the grid,
      trapezoid(|A|) + analytic tail <= 4 sqrt(12 d cbar),
      |<g0''(u_i + grad_i psi + grad_i theta)>| <= (2/pi) sqrt(12 d cbar) ||g0''||_L1,
    and, when ||g0'||_L2 is finite, the lower-order variant
      ... <= (1/sqrt(2 pi)) ||g0'||_L2 sqrt(2 (1/3 + (12 d cbar)^2)).
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("verify_l1norm_bounds requires a unit-scaled potential")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cb = cbar(p.c0, p.c1, p.c2)
    if lam is None:
        lam = 1.0 / (2.0 * cb)
    if lam > 1.0 / (2.0 * cb) + 1e-12:
        raise ValueError(f"lambda = {lam} exceeds the convexity guard 1/(2 cbar) = {1/(2*cb)}")
    env_const = 12.0 * t.d * cb
    k = np.asarray(fourier_k_grid(t, cb) if k_grid is None else k_grid, dtype=float)

    gv = _bond_series(t, samples, axis, site)
    re, im, se_re, se_im = _phase_stats(gv, k)
    abs_a = np.hypot(re, im)
    se_abs = np.hypot(se_re, se_im)
    envelope = np.minimum(1.0, env_const / np.maximum(k * k, 1e-300))
    violations = int(np.sum(abs_a > envelope + 4.0 * se_abs))

    integral = float(np.trapezoid(abs_a, k))
    integral_se = float(np.trapezoid(se_abs, k))
    tail = _envelope_tail(env_const, float(np.max(np.abs(k))))
    integral_bound = 4.0 * math.sqrt(env_const)
    integral_ok = integral + tail <= integral_bound + 4.0 * integral_se

    shift = float(bond_args(t, psi.values, u)[axis, site])
    obs = p.d2g0(shift + gv)
    g_mean, g_se, _ = batch_means(obs)
    nr = norms(p, 1e-10)
    bound_l1 = (2.0 / math.pi) * math.sqrt(env_const) * nr.l1_g0pp_abs
    g_ok = abs(float(g_mean)) <= bound_l1 + 4.0 * float(g_se)
    if math.isfinite(nr.l2_g0p):
        bound_l2 = nr.l2_g0p / math.sqrt(2.0 * math.pi) * math.sqrt(2.0 * (1.0 / 3.0 + env_const**2))
        g_ok_l2 = abs(float(g_mean)) <= bound_l2 + 4.0 * float(g_se)
    else:
        bound_l2, g_ok_l2 = None, None

    return L1NormBoundReport(
        cbar=cb,
        lam=lam,
        k=k,
        abs_a=abs_a,
        se_abs=se_abs,
        envelope=envelope,
        pointwise_ok=violations == 0,
        n_pointwise_violations=violations,
        integral=integral + tail,
        integral_se=integral_se,
        integral_bound=integral_bound,
        integral_ok=integral_ok,
        g0pp_mean=float(g_mean),
        g0pp_se=float(g_se),
        g0pp_bound_l1=bound_l1,
        g0pp_ok=g_ok,
        g0pp_bound_l2=bound_l2,
        g0pp_ok_l2=g_ok_l2,
    )


# ---------------------------------------------------------------------------
# Poincare-type variance bound


@dataclass(frozen=True)
class VarianceBoundReport:
    names: tuple
    variances: np.ndarray
    variance_se: np.ndarray
    bounds: np.ndarray
    bound_se: np.ndarray
    ok: bool


def poincare_variance_check(samples: np.ndarray, delta: float, observables: list[Observable]) -> VarianceBoundReport:
    """Check var(G) <= <|DG|^2> / delta + 4 SE for each observable on samples[n, n_dof].

    delta must be a certified lower bound on the Hessian of the target the
    samples come from; variances use a delete-one jackknife over blocks.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not observables:
        raise ValueError("at least one observable is required")
    n = samples.shape[0]
    variances, var_se, bounds, bound_se = [], [], [], []
    for obs in observables:
        vals = np.asarray(obs.value(samples), dtype=float)
        gsq = np.sum(np.asarray(obs.grad(samples), dtype=float) ** 2, axis=1)
        slices = _block_slices(n)
        bl = [(vals[a:b].sum(), (vals[a:b] ** 2).sum(), b - a) for a, b in slices]
        tot1 = sum(b[0] for b in bl)
        tot2 = sum(b[1] for b in bl)
        totn = sum(b[2] for b in bl)

        def var_stat(s1, s2, m):
            return (s2 - s1 * s1 / m) / (m - 1)

        v_full = var_stat(tot1, tot2, totn)
        jk = np.asarray([var_stat(tot1 - b1, tot2 - b2, totn - bn) for b1, b2, bn in bl])
        J = len(jk)
        v_se = math.sqrt((J - 1) / J * float(np.sum((jk - jk.mean()) ** 2)))
        g_mean, g_se, _ = batch_means(gsq)
        variances.append(v_full)
        var_se.append(v_se)
        bounds.append(float(g_mean) / delta)
        bound_se.append(float(g_se) / delta)
    variances = np.asarray(variances)
    var_se = np.asarray(var_se)
    bounds = np.asarray(bounds)
    bound_se = np.asarray(bound_se)
    ok = bool(np.all(variances <= bounds + 4.0 * np.hypot(var_se, bound_se)))
    return VarianceBoundReport(
        names=tuple(o.name for o in observables),
        variances=variances,
        variance_se=var_se,
        bounds=bounds,
        bound_se=bound_se,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# thermodynamic integration


def thermodynamic_integration(
    p: Potential, t: Torus, beta: float, u, cfg: ChainConfig, n_nodes: int = 32, tilt: int = 0
) -> Estimate:
    """f(u) - f(0) along the straight tilt path via df/ds = <D_u H(su)> . u.

    Gauss-Legendre in the path parameter.  All nodes x chains run as one
    ensemble, row (tilt, node, chain) at tilt s_node u, and each node's mean of
    D_u H (the Gibbs target's observable) carries its own batch-means error.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    s_nodes = 0.5 * (x + 1.0)
    nc = cfg.n_chains
    rows = [(tilt, j, c) for j in range(n_nodes) for c in range(nc)]
    target = make_gibbs_target(t, p, np.repeat(s_nodes, nc)[:, None] * u, beta)
    results = run_chains(target, cfg, rows, keep_samples=False)
    total, var = 0.0, 0.0
    for j, wj in enumerate(0.5 * w):
        mean, se, _ = batch_means(np.concatenate([r.observable for r in results[j * nc : (j + 1) * nc]]))
        total += wj * float(np.dot(mean, u))
        var += (wj * float(np.dot(se, np.abs(u)))) ** 2
    return Estimate(value=total, std_error=math.sqrt(var), n_effective=float(n_nodes), method="chain")
