"""Lockstep ensemble MALA on pinned fields, and the chain-side estimators.

One sampler advances all rows of a job -- chains, thermodynamic-integration
nodes -- as a single (n_rows, n_dof) state with one batched energy-and-gradient
call per step, lean in numpy calls (lattice.bond_kernel, one fused potential pass, no state
copy when every row accepts or none does).  Everything else is per row: a Langevin proposal with Metropolis
correction, a step size tuned toward 57.4% acceptance during burn-in and frozen
afterwards, a finite-difference gradient check, a post burn-in acceptance guard,
and a noise stream from SeedSequence((seed, tilt, node, chain)) drawn in
fixed-size chunks of steps; `stream` derives that and every auxiliary stream.
The step's noise products h xi and log q(Y | X) are formed once per chunk, and
again for the rest of a chunk when burn-in tuning moves h.  The proposal mean
X - (h^2/2) grad E(X) is carried from the reverse term of the step that
accepted X (recomputed where tuning moves h), and reductions call the ufuncs
and C count_nonzero directly: each numpy call costs about a microsecond at
these sizes, and no chain moves by a bit.  The gradient check
evaluates all shifted states X +- h e_j in a few calls, with the shifts as a
leading axis (see Target).  A row's arithmetic is elementwise or a sum over its
own trailing axes, so its samples are bitwise the same alone or in any ensemble.
Each kept step records one array per row, the target's observable when it
returns one and the state otherwise, and a run keeps those records or values
reduced from them chunk by chunk during the run, one path for both, so memory
need not grow as steps x dof.  No estimator here or in gil.cli stores states:
D_u H is the Gibbs target's observable (thermodynamic integration), and the
fluctuation identity's target returns D_u^2 H = sum_x V'' beside it from the
same fused potential pass, so no V'' is summed from kept states; the lemma
checks' inputs (the bond grad_1 theta(0) for the Fourier bounds, the
projections on direction rows for the Poincare variance bound) are per-state
values taken in-run; BlockSums adds the kept states into each chain's block
sums as they arrive (gil sample's mean field).  Estimators take one array per
chain and carry batch-means or jackknife standard errors from one block layout,
_blocks, which blocks each chain on its own (batch means are consistent only
for blocks inside one chain) with at least 20 blocks per chain, or blocks of
one below 40 samples, each block statistic one reduction over that view;
nothing is reported as a bare point estimate.  The phases cos/sin(k grad theta)
are formed one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy._core.multiarray import count_nonzero  # np.count_nonzero without its Python wrapper

from .conditions import cbar
from .lattice import Torus, Field, bond_args, bond_divergence, bond_kernel
from .potentials import Potential, norm

__all__ = [
    "ChainConfig",
    "Estimate",
    "Target",
    "StepSizeError",
    "GradientMismatchError",
    "make_gibbs_target",
    "make_h1_target",
    "run_chains",
    "stream",
    "batch_means",
    "BlockSums",
    "fluctuation_hessian",
    "fourier_k_grid",
    "verify_l1norm_bounds",
    "poincare_variance_check",
    "thermodynamic_integration",
]

MIN_BLOCKS = 20
NOISE_CHUNK = 64  # steps of noise drawn at once per row; fixed, so streams do not depend on the batch
SLICE_VALUES = 2**13  # values per slice of the gradient check's shifted states, so its arrays stay in cache
# purpose words of the streams drawn outside any chain row
AUX_STREAMS = {"observables": 0xB5, "r1g": 0x51}


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
    """The target's gradient disagrees with finite differences of its energy, or its energy cannot be differenced."""


@dataclass(frozen=True)
class ChainConfig:
    """MALA schedule: lengths, seed, and step size (None = tuned from the target hint during burn-in)."""

    n_steps: int = 20_000
    burn_in: int = 2_000
    n_chains: int = 2
    seed: int = 0
    step_size: float | None = None

    def __post_init__(self):
        if not (0 <= self.burn_in < self.n_steps):
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo or oracle value with statistical error and provenance."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_effective: float
    method: str  # "chain" (MALA), "mc" (iid Monte Carlo) or "oracle"


@dataclass(frozen=True)
class Target:
    """Batched log-density exp(-E) over pinned dof vectors.

    energy_grad maps X[..., rows, n_dof] to (E[..., rows], G[..., rows, n_dof]);
    it may append a per-row observable O[..., rows, k] computed from the same
    arrays (D_u H for Gibbs targets that ask for it), which run_chains records at
    each kept step in place of the state.  All are new arrays, which the sampler
    keeps as its state.  Leading axes before the row axis are batches of states
    per row (the gradient check sends all shifted states at once), so per-row
    parameters such as tilts u[rows, d] broadcast from the right, and each row is
    summed over its own trailing axes, bitwise the same with or without leading axes.
    """

    energy_grad: Callable
    n_dof: int
    step_hint: float = 0.3


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of each row's (d, V) bond array: [..., d, V] -> [...]."""
    return np.add.reduce(a.reshape(a.shape[:-2] + (-1,)), axis=-1)


def make_gibbs_target(t: Torus, p: Potential, u, beta: float, observable: int = 0) -> Target:
    """Target exp(-beta H(u, .)) over pinned fields; u[d] for all rows or u[rows, d] per row.

    With observable 1 (or True), energy_grad also returns D_u H = sum_x V'(u_i + grad_i phi(x)),
    read off the V' array (thermodynamic integration); with observable 2, D_u H and then the
    diagonal D_u^2 H = sum_x V''(u_i + grad_i phi(x)), [..., rows, 2 d], the V'' array coming
    from the same fused potential pass (the fluctuation identity).  At beta = 1 nothing is
    multiplied by beta.
    """
    bonds = bond_kernel(t, np.atleast_1d(np.asarray(u, dtype=float))[..., :, None])
    second = observable == 2

    def energy_grad(X):
        v, vp, *vpp = p.v_dv(bonds(X)[1], second)
        E, G = _row_sum(v), bond_divergence(t, vp)
        if beta != 1.0:
            E *= beta
            G *= beta
        if not observable:
            return E, G
        O = np.add.reduce(vp, axis=-1)
        return E, G, np.concatenate((O, np.add.reduce(vpp[0], axis=-1)), axis=-1) if second else O

    hint = 0.5 / math.sqrt(beta * (p.c2 * 2.0 * t.d) + 1.0)
    return Target(energy_grad=energy_grad, n_dof=t.n_dof, step_hint=hint)


def make_h1_target(t: Torus, p: Potential, u, psi_values: np.ndarray, lam: float) -> Target:
    """Induced target exp(-H1(theta)), H1 = G(u, psi + theta) + ||grad theta||^2/(2 lam), G summing p.g (c1 = 1)."""
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("make_h1_target requires a unit-scaled potential (c1 = 1)")
    bonds = bond_kernel(t, bond_args(t, psi_values, np.atleast_1d(np.asarray(u, dtype=float))))

    def energy_grad(X):
        gt, arg = bonds(X)
        g, dg = p.g_dg(arg)
        energy = _row_sum(gt * gt)
        energy /= 2.0 * lam
        energy += _row_sum(g)
        gt /= lam
        gt += dg  # the bond weight dg + gt / lam
        return energy, bond_divergence(t, gt)

    hint = 0.5 / math.sqrt(2.0 * t.d / lam + 1.0)
    return Target(energy_grad=energy_grad, n_dof=t.n_dof, step_hint=hint)


@dataclass
class ChainResult:
    """One row of a run_chains call.

    samples holds the row's kept records, its observables or else its states,
    (n_kept, width), or under a keep function that function's values at each
    kept step, (n_kept, q), q = 0 for one that keeps nothing per step
    (BlockSums): a row of one buffer that all rows of the call share.  state is
    the row's state after the last step, its last kept state.
    """

    samples: np.ndarray            # (n_kept, width) or (n_kept, q)
    acceptance: float              # post burn-in
    step_size: float               # frozen value
    row: tuple                     # (tilt, node, chain) stream key
    state: np.ndarray              # (n_dof,) final state


def _label(row) -> str:
    return "row (tilt {}, node {}, chain {})".format(*row)


def _fd_gradient_check(target: Target, X: np.ndarray, rows: list) -> None:
    """Central differences of every row's energy against its gradient at X.

    The shifted states X +- h e_j go to the target with the shift axis j leading,
    at most SLICE_VALUES // X.size shifts per call.
    """
    _, G, *_ = target.energy_grad(X)
    h = 1e-5
    fd = np.empty_like(G)
    n, step = target.n_dof, max(1, SLICE_VALUES // X.size)
    for a in range(0, n, step):
        e = h * np.eye(min(step, n - a), n, a)[:, None]  # e[i, 0] = h e_(a + i)
        Ep, Em = target.energy_grad(X + e)[0], target.energy_grad(X - e)[0]
        if Ep.shape != (len(e), len(X)):
            raise GradientMismatchError(
                f"{', '.join(map(_label, rows))}: energies of shape {Ep.shape}, expected {(len(e), len(X))}; "
                "energy_grad must accept leading axes before the row axis to be checked by finite differences"
            )
        fd[:, a : a + step] = ((Ep - Em) / (2.0 * h)).T
    err = np.max(np.abs(fd - G), axis=1) / np.maximum(1.0, np.max(np.abs(G), axis=1))
    for r in np.flatnonzero(err > 1e-4):
        raise GradientMismatchError(f"{_label(rows[r])}: target gradient differs from finite differences by {err[r]:.2e}")


def run_chains(target: Target, cfg: ChainConfig, rows: Sequence[tuple] | None = None, keep=None) -> list[ChainResult]:
    """Lockstep MALA over rows keyed (tilt, node, chain); default rows (0, 0, c) for c < n_chains.

    Row r draws from stream(cfg.seed, rows[r]): first a 0.1 N(0, 1) point for
    the gradient check, then, per chunk of steps, normals (k, n_dof) and uniforms (k,).
    Each kept step records one array per row, the target's observable when
    energy_grad returns one and the state otherwise, into one reused buffer of
    NOISE_CHUNK records [rows, k, width].  Whenever it fills, and at the end of
    the run, the buffer goes through keep into the samples: with None the
    records themselves, (n_kept, width); with a function mapping records to
    per-record values [rows, k, q], those values, (n_kept, q), so kept states
    are never all held; it may also reduce them itself (BlockSums).  Every
    row's samples are row r of one [rows, n_kept, ...] buffer; every row's final
    state is row r of the last state.
    """
    if not (keep is None or callable(keep)):
        raise ValueError(f"keep must be None or a function of kept records, got {keep!r}")
    rows = [(0, 0, c) for c in range(cfg.n_chains)] if rows is None else [tuple(r) for r in rows]
    n_rows, n = len(rows), target.n_dof
    rngs = [stream(cfg.seed, row) for row in rows]
    _fd_gradient_check(target, np.stack([0.1 * rng.standard_normal(n) for rng in rngs]), rows)
    X = np.zeros((n_rows, n))
    # the state, rebound to the proposal's arrays when every row accepts, overwritten row by row when some do
    E, G, *O = (np.array(a, dtype=float) for a in target.energy_grad(X))
    if E.shape != (n_rows,):
        raise ValueError(f"target returned {E.shape} energies for {n_rows} rows")
    h = np.full(n_rows, float(cfg.step_size if cfg.step_size is not None else target.step_hint))
    tune = cfg.step_size is None
    n_kept = cfg.n_steps - cfg.burn_in
    # records wait in a chunk buffer that keep empties; the samples' width is known at its first call
    chunk, samples = np.empty((n_rows, min(NOISE_CHUNK, n_kept), O[0].shape[1] if O else n)), None
    accs = np.empty((cfg.n_steps, n_rows), dtype=bool)  # every step's acceptances, counted when read
    # drift h^2/2 laid out over the dof, so the step's products need no broadcast; mu = X - drift G is the
    # proposal mean, carried from the reverse term of the step that accepted X; -2 h^2 scales log q exactly
    hc, hh2, drift = h[:, None], -2.0 * h * h, np.repeat(0.5 * h[:, None] ** 2, n, axis=1)
    mu = X - drift * G
    for step in range(cfg.n_steps):
        c = step % NOISE_CHUNK
        if c == 0:
            k = min(NOISE_CHUNK, cfg.n_steps - step)
            xi_chunk = np.stack([rng.standard_normal((k, n)) for rng in rngs], axis=1)
            log_u_chunk = np.log1p(-np.stack([rng.random(k) for rng in rngs], axis=1))
            log_q_fwd = -0.5 * np.add.reduce(xi_chunk * xi_chunk, axis=-1)
            h_xi = hc * xi_chunk
        Y = mu + h_xi[c]
        EY, GY, *OY = target.energy_grad(Y)
        mu_Y = Y - drift * GY
        diff = X - mu_Y
        diff *= diff
        log_a = (E - EY) + (np.add.reduce(diff, axis=-1) / hh2 - log_q_fwd[c])
        acc = np.less(log_u_chunk[c], log_a, out=accs[step])
        n_acc = count_nonzero(acc)
        if n_acc == n_rows:
            X, E, G, O, mu = Y, EY, GY, OY, mu_Y
        elif n_acc > 2:
            np.copyto(E, EY, where=acc)
            for old, new in zip((X, G, mu, *O), (Y, GY, mu_Y, *OY)):
                np.copyto(old, new, where=acc[:, None])
        elif n_acc:  # one or two rows, copied row by row: cheaper than masked copies
            for r in acc.nonzero()[0]:
                for old, new in zip((E, X, G, mu, *O), (EY, Y, GY, mu_Y, *OY)):
                    old[r] = new[r]
        if step < cfg.burn_in:
            if tune and (step + 1) % 25 == 0:
                h = h * np.exp(0.4 * (np.add.reduce(accs[step - 24 : step + 1]) / 25.0 - 0.574))
                hc, hh2, drift = h[:, None], -2.0 * h * h, np.repeat(0.5 * h[:, None] ** 2, n, axis=1)
                mu = X - drift * G
                np.multiply(hc, xi_chunk[c + 1 :], out=h_xi[c + 1 :])
            continue
        j = step - cfg.burn_in
        i = j % NOISE_CHUNK
        chunk[:, i] = O[0] if O else X
        if i == NOISE_CHUNK - 1 or j == n_kept - 1:
            values = chunk[:, : i + 1] if keep is None else keep(chunk[:, : i + 1])
            if samples is None:
                samples = np.empty((n_rows, n_kept, values.shape[-1]))
            samples[:, j - i : j + 1] = values
    rate = np.add.reduce(accs[cfg.burn_in :]) / n_kept
    for r in np.flatnonzero((rate < 0.10) | (rate > 0.95)):
        raise StepSizeError(f"{_label(rows[r])}: acceptance rate {rate[r]:.3f} outside [0.10, 0.95]; adjust step_size")
    return [ChainResult(samples[r], float(rate[r]), float(h[r]), rows[r], X[r]) for r in range(n_rows)]


# ---------------------------------------------------------------------------
# error bars


def _block_layout(n: int) -> tuple[int, int]:
    """Every error bar's blocks: n of one below 2 MIN_BLOCKS samples, else nb = max(MIN_BLOCKS, isqrt n) of n // nb."""
    nb = n if n < 2 * MIN_BLOCKS else max(MIN_BLOCKS, math.isqrt(n))
    return nb, n // nb


def _blocks(x: np.ndarray) -> np.ndarray:
    """Chains x[chains, n, ...] in blocks [chains nb, b, ...], chain after chain.

    Each chain's first nb b samples are its own nb blocks of b, (nb, b) =
    _block_layout(n), its tail dropped, so no block spans two chains.
    """
    nb, b = _block_layout(x.shape[1])
    return x[:, : nb * b].reshape(-1, b, *x.shape[2:])


def _jackknife(statistic, columns: Sequence[np.ndarray], totals: tuple | None = None):
    """Delete-one block jackknife of statistic over per-block sufficient statistics.

    columns[i][j] holds block j's i-th sum; totals defaults to their sequential sums.
    Returns (statistic(*totals), std error), the error elementwise over the statistic's
    shape from the leave-one-out values statistic(*(totals - columns)), one call over all blocks.
    """
    if totals is None:
        totals = tuple(sum(col) for col in columns)
    jk = np.asarray(statistic(*(tot - col for tot, col in zip(totals, columns))))
    J = jk.shape[0]
    se = np.sqrt((J - 1) / J * np.sum((jk - jk.mean(axis=0)) ** 2, axis=0))
    return statistic(*totals), se


def _batch_estimate(sums: np.ndarray, b: int, n: int, var_x) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean, std error and effective sample size from the sums [nb, ...] of blocks of b of n samples.

    With b > 1 the effective sample size is var_x, the variance of all n samples,
    over the squared error (at most n); with blocks of one it is n.
    """
    mean, se = _block_mean_se(sums / b)
    if b == 1:
        return mean, se, float(n)
    n_eff = float(np.min(np.atleast_1d(var_x / np.maximum(se**2, 1e-300))))
    return mean, se, min(n_eff, float(n))


def batch_means(chains: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, float]:
    """Batch-means mean, std error and effective sample size of chains [n, ...] of one length.

    Each chain is blocked on its own (see _blocks); the effective sample
    size's variance is taken over all samples.
    """
    x = np.asarray(chains, dtype=float)
    b = _block_layout(x.shape[1])[1]
    sums, flat = _blocks(x).sum(axis=1), x.reshape(-1, *x.shape[2:])
    return _batch_estimate(sums, b, len(flat), flat.var(axis=0, ddof=1) if b > 1 else None)


class BlockSums:
    """batch_means of each row's kept states in one run_chains(..., keep=sums) call, reduced in-run.

    For rows of n_kept kept states it keeps nothing per state: each chunk of
    kept states is added into the rows' block sums [rows, nb, n_dof], split at
    block edges, and into sums of deviations from each row's first kept state
    for the variance behind the effective sample size.  result() gives
    batch_means of the stored per-row states to rounding.
    """

    def __init__(self, n_kept: int):
        self.n_kept, self.seen = n_kept, 0  # kept states of each row reduced so far
        self.nb, self.b = _block_layout(n_kept)
        self.sums = self.shift = self.dev = None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        rows, k, n_dof = X.shape
        if self.sums is None:
            self.sums, self.dev = np.zeros((rows, self.nb, n_dof)), np.zeros((2, rows, n_dof))
            self.shift = X[:, :1].copy()
        a, b, end = 0, self.b, self.nb * self.b
        while a < k and self.seen + a < end:
            blk, lo = divmod(self.seen + a, b)
            take = min(b - lo, k - a)
            self.sums[:, blk] += X[:, a : a + take].sum(axis=1)
            a += take
        d = X - self.shift
        self.dev[0] += d.sum(axis=1)
        d *= d
        self.dev[1] += d.sum(axis=1)
        self.seen += k
        return np.empty((rows, k, 0))

    def result(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Mean, std error and effective sample size of all rows' kept states."""
        if self.seen != self.n_kept:
            raise ValueError(f"{self.seen} of {self.n_kept} kept states per row reduced")
        rows, n, var = len(self.sums), self.n_kept, None
        if self.b > 1:
            # all states' squared deviations: each row's about its own mean, then the row means about theirs
            s1, s2 = self.dev
            means = self.shift[:, 0] + s1 / n
            ss = np.sum(s2 - s1 * s1 / n, axis=0) + n * np.sum((means - means.mean(axis=0)) ** 2, axis=0)
            var = ss / (rows * n - 1)
        return _batch_estimate(self.sums.reshape(rows * self.nb, -1), self.b, rows * n, var)


def _block_mean_se(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and batch-means std error from block means blocks[nb, ...]."""
    return blocks.mean(axis=0), blocks.std(axis=0, ddof=1) / math.sqrt(blocks.shape[0])


# ---------------------------------------------------------------------------
# free-energy Hessian via the fluctuation identity


def fluctuation_hessian(u, p: Potential, t: Torus, cfg: ChainConfig, tilt: int = 0) -> Estimate:
    """D^2 f(u) = <D_u^2 H> - var(D_u H) at beta = 1 for a unit-scaled potential.

    D_u H_i = sum_x V'(u_i + grad_i phi(x)) and the diagonal D_u^2 H, sum_x
    V''(...), are the Gibbs target's observable, both from the step's fused
    potential pass; no state is stored and no V'' is summed from kept states.
    The covariance term uses the unbiased estimator; errors come from a
    delete-one jackknife over >= 20 blocks of each chain.  Chains are rows
    (tilt, 0, chain).
    """
    if abs(p.c1 - 1.0) > 1e-12:
        raise ValueError("fluctuation_hessian requires a unit-scaled potential; call scale_to_unit first")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = len(u)
    target = make_gibbs_target(t, p, u, beta=1.0, observable=2)
    results = run_chains(target, cfg, [(tilt, 0, c) for c in range(cfg.n_chains)])

    observables = np.asarray([r.samples for r in results])  # [chains, n, 2 d]: D_u H, then D_u^2 H
    blocks = _blocks(observables)
    b1 = blocks[..., :d]
    # per block: sums of D_u H, their outer products, sums of D_u^2 H, block sizes
    columns = (b1.sum(axis=1), b1.mT @ b1, blocks[..., d:].sum(axis=1), np.full(len(b1), b1.shape[1]))

    def statistic(sum1, outer, sum2, n):
        n = np.asarray(n, dtype=float)[..., None]
        m1 = sum1 / n
        cov = (outer - n[..., None] * (m1[..., :, None] * m1[..., None, :])) / (n[..., None] - 1)
        return np.eye(d) * (sum2 / n)[..., None, :] - cov

    full, se = _jackknife(statistic, columns)
    _, _, n_eff = batch_means(observables[..., :d])
    return Estimate(value=full, std_error=se, n_effective=n_eff, method="chain")


# ---------------------------------------------------------------------------
# characteristic function and the Fourier bounds


def _phase_stats(gv: Sequence[np.ndarray], k: np.ndarray):
    """Batch-means mean and error of cos/sin(k * gv) over the chains gv, as batch_means gives them.

    cos and sin are formed once per distinct |k| (cos(-x) = cos(x) and sin(-x) = -sin(x)
    bitwise) and once per run of bitwise equal consecutive samples (a rejected step
    repeats its state), one block of samples at a time, and gathered back into the
    block before its mean.  The effective sample size is not computed.
    """
    abs_k, where = np.unique(np.abs(k), return_inverse=True)
    blocks = _blocks(np.asarray(gv, dtype=float))
    re_blocks, im_blocks = np.empty((2, len(blocks), len(abs_k)))
    trig, gathered = (np.empty((blocks.shape[1], len(abs_k))) for _ in range(2))  # one block's phase array each
    new = np.ones(blocks.shape[1], dtype=bool)
    for j, block in enumerate(blocks):
        bits = block.view(np.uint64)
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        distinct, run = block[new], np.cumsum(new) - 1
        for f, out in ((np.cos, re_blocks), (np.sin, im_blocks)):
            phase = np.multiply.outer(distinct, abs_k, out=trig[: len(distinct)])
            f(phase, out=phase)
            out[j] = trig.take(run, axis=0, out=gathered).mean(axis=0)
    (re, se_re), (im, se_im) = _block_mean_se(re_blocks), _block_mean_se(im_blocks)
    return re[where], np.sign(k) * im[where], se_re[where], se_im[where]


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
    """Symmetric k grid of the Fourier bounds, its own mirror bitwise; by default out to 4 sqrt(12 d cbar)."""
    if k_max is None:
        k_max = 4.0 * math.sqrt(12.0 * t.d * cb)
    k = np.linspace(-k_max, k_max, n_points)
    return (k - k[::-1]) / 2.0


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
    gv: Sequence[np.ndarray],
    lam: float | None = None,
    k_grid=None,
) -> L1NormBoundReport:
    """Estimate A(k) = <exp(i k grad_1 theta(0))> from chains gv and test the Fourier bounds.

    Each chain of gv, [n] and all of one length, is the bond grad_1 theta(0) =
    theta(e_1), dof t.forward[0, 0] - 1 (the origin is pinned to zero), at n
    theta draws from the induced convex target at (u, psi, lam): one row's values
    of a run_chains(make_h1_target(...)) keep function that takes that column,
    or the column of its stored states.  The same samples estimate A(k) and
    A(-k) = conj A(k).

    Checks, each within 4 standard errors:
      |A(k)| <= min(1, 12 d cbar / k^2) pointwise on the grid,
      trapezoid(|A|) + analytic tail <= 4 sqrt(12 d cbar),
      |<g0''(u_1 + grad_1 psi(0) + grad_1 theta(0))>| <= (2/pi) sqrt(12 d cbar) ||g0''||_L1,
    and, when ||g0'||_L2 is finite, the lower-order variant
      ... <= (1/sqrt(2 pi)) ||g0'||_L2 sqrt(2 (1/3 + (12 d cbar)^2)).
    Those two are the only g0 norms it integrates (potentials.norm, tol 1e-10).
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
    gv = np.asarray(gv, dtype=float)

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

    shift = float(bond_args(t, psi.values, u)[0, 0])
    obs = p.d2g0(shift + gv)
    g_mean, g_se, _ = batch_means(obs)
    bound_l1 = (2.0 / math.pi) * math.sqrt(env_const) * norm(p, "l1_g0pp_abs")[0]
    g_ok = abs(float(g_mean)) <= bound_l1 + 4.0 * float(g_se)
    l2_g0p = norm(p, "l2_g0p")[0]
    if math.isfinite(l2_g0p):
        bound_l2 = l2_g0p / math.sqrt(2.0 * math.pi) * math.sqrt(2.0 * (1.0 / 3.0 + env_const**2))
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


def poincare_variance_check(
    projections: Sequence[np.ndarray], delta: float, directions: np.ndarray
) -> VarianceBoundReport:
    """Check var(v . theta) <= |v|^2 / delta + 4 SE for each row v of directions[k, n_dof].

    Each chain of projections, [n, k] and all of one length, holds v . theta for
    each direction at n samples theta: one row's values of a run_chains keep
    function X @ directions.T, or its stored states times directions.T.  delta must be a certified lower bound on
    the Hessian of the target the samples come from, so the bound is exact
    (bound_se 0); variances use a delete-one jackknife over blocks.  Row j is
    reported as linear_j.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    directions = np.asarray(directions, dtype=float)
    if len(directions) == 0:
        raise ValueError("at least one direction is required")
    projections = np.asarray(projections, dtype=float)
    if projections.shape[2:] != (len(directions),):
        raise ValueError(f"projections of shape {projections.shape} for {len(directions)} directions")
    blocks = _blocks(projections)
    variances, var_se = _jackknife(
        lambda s1, s2, m: (s2 - s1 * s1 / m) / (m - 1),
        (blocks.sum(axis=1), (blocks * blocks).sum(axis=1), np.full((len(blocks), 1), blocks.shape[1])),
    )
    bounds = np.sum(directions * directions, axis=1) / delta
    return VarianceBoundReport(
        names=tuple(f"linear_{j}" for j in range(len(directions))),
        variances=variances,
        variance_se=var_se,
        bounds=bounds,
        bound_se=np.zeros(len(bounds)),
        ok=bool(np.all(variances <= bounds + 4.0 * var_se)),
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
    target = make_gibbs_target(t, p, np.repeat(s_nodes, nc)[:, None] * u, beta, observable=1)
    results = run_chains(target, cfg, rows)
    total, var = 0.0, 0.0
    for j, wj in enumerate(0.5 * w):
        mean, se, _ = batch_means([r.samples for r in results[j * nc : (j + 1) * nc]])
        total += wj * float(np.dot(mean, u))
        var += (wj * float(np.dot(se, np.abs(u)))) ** 2
    return Estimate(value=total, std_error=math.sqrt(var), n_effective=float(n_nodes), method="chain")
