"""The benchmark's workloads: generated inputs, timed operations, correctness rules.

A workload is a list of operations ("ops") that one pass runs in order.  Every op
goes through an entry point users call: ``gil.cli.main`` on a generated config,
or the ``gil.oracle`` / ``gil.renorm`` functions behind acceptance criterion 5.
The benchmark seed goes only into the generated configs (chain and Monte Carlo
seeds); sizes, temperatures and tilts are fixed, so every seed runs the same
amount of work.

Each op carries a correctness rule, evaluated outside the timed region.  An op
whose call raises the exception class named in ``known_defect`` is a recorded,
known failure (it lowers ``ops_ok_frac``); any other exception, unexpected exit
code or violated rule is an unexpected failure and makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import benchenv  # noqa: F401  (thread pinning before numpy)
import numpy as np

import gil.cli
import gil.conditions
import gil.oracle
import gil.potentials
import gil.renorm
from gil.lattice import Field, Torus

import reference

DELTA_B = 0.5  # example (b) bump width; the tilt delta * (1, ..., 1) has an exact free energy
A_EX = 0.5     # example (a) parameter
N_R1G_REPLICAS = 4
# an oracle free-energy row must land this close to the independent reference.
# gil's quadrature works to an absolute 1e-8 in log Z (the row's error column),
# and this holds delta_f to the same figure: today's m = 3 row is 4e-10 off, and
# the reference agrees with gil's exact Mayer backend to 1e-12 at this
# temperature (test_reference.py)
REFERENCE_ABS_TOL = 1e-8


@dataclass
class Op:
    """One timed call plus the rule that decides whether its output is correct."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when correct, else the reason
    known_defect: str | None = None     # exception class recorded as a known failure
    se: Callable[[Any], float] | None = None  # standard error of the headline estimate
    useful_steps: int = 0               # MALA proposals that the reported numbers consume
    output: Path | None = None          # file the op writes, for cli.bytes_out


# ---------------------------------------------------------------------------
# inputs: potentials, norms and thresholds (this is what setup_s times).  gil
# functions are looked up as module attributes, so a traced set-up sees them


def _beta_half_b(d: int) -> float:
    p = gil.potentials.example_b(DELTA_B)
    return gil.conditions.check_conditions(1.0, d, p, gil.potentials.norms(p)).beta_max_fcond / 2.0


def inputs_ti() -> dict:
    return {"beta": _beta_half_b(1)}


def inputs_large() -> dict:
    return {"beta": _beta_half_b(2)}


def inputs_oracle() -> dict:
    beta_b = _beta_half_b(1)
    ps, _ = gil.conditions.scale_to_unit(gil.potentials.example_b(DELTA_B), beta_b)
    t3 = Torus(1, 3)
    plan = gil.renorm.DecompositionPlan.from_potential(ps, t3)
    psi = Field.from_dof(t3, np.array([0.4, -0.2]))
    return {
        "beta_b": beta_b,
        "plan": plan,
        "psi": psi,
        "references": reference.load_references(),
    }


# ---------------------------------------------------------------------------
# op builders


def _cli_op(
    workdir: Path,
    name: str,
    command: str,
    cfg: dict,
    check: Callable[[Path], str | None],
    se: Callable[[Path], float] | None = None,
    **kw,
) -> Op:
    suffix = ".csv" if command in ("free-energy", "hessian") else ".json"
    cfg_path = workdir / f"{name}.cfg.json"
    out = workdir / f"{name}.out{suffix}"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return gil.cli.main(argv)

    def checked(code):
        if code != 0:
            return f"exit code {code}"
        return check(out)

    return Op(name=name, run=run, check=checked, se=None if se is None else lambda code: se(out), output=out, **kw)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verdicts(expected: str, n_rows: int):
    def check(path: Path) -> str | None:
        rows = _rows(path)
        if len(rows) != n_rows:
            return f"{len(rows)} rows, expected {n_rows}"
        for r in rows:
            if r["verdict"] != expected:
                return f"verdict {r['verdict']} at u={r['u_1']}, expected {expected}"
            if not (math.isfinite(float(r["hessian_min_eig"])) and math.isfinite(float(r["std_error"]))):
                return "non-finite Hessian row"
        return None

    return check


def _csv_se(path: Path) -> float:
    row = _rows(path)[0]
    return float(row["error"] if "error" in row else row["std_error"])


def _chain(n_steps: int, burn_in: int, n_chains: int = 2) -> dict:
    return {"n_steps": n_steps, "burn_in": burn_in, "n_chains": n_chains}


# ---------------------------------------------------------------------------
# ti_short_chains


TI = {"nodes": 32, "chain": _chain(1250, 250)}


def ops_ti(inputs: dict, workdir: Path, seed: int) -> list[Op]:
    d, m, u = 1, 8, DELTA_B
    cfg = {
        "potential": {"family": "example_b", "delta": DELTA_B},
        "d": d,
        "m": m,
        "beta": inputs["beta"],
        "seed": seed,
        "u_grid": [[u] * d],
        "ti_nodes": TI["nodes"],
        "chain": TI["chain"],
    }
    # the bump is symmetric about delta/2 and sum_x grad phi(x) = 0 on the torus,
    # so f(delta 1) - f(0) = c1 |T| |delta 1|^2 / 2 exactly
    exact = 1.0 * m**d * d * u * u / 2.0

    def check(path: Path) -> str | None:
        rows = _rows(path)
        if len(rows) != 1 or rows[0]["method"] != "chain":
            return "expected one thermodynamic-integration row"
        value, se = float(rows[0]["delta_f"]), float(rows[0]["error"])
        if not (se > 0 and abs(value - exact) <= 4.0 * se):
            return f"delta_f {value!r} +- {se:.3g} misses the exact {exact} by more than 4 SE"
        return None

    useful = TI["nodes"] * TI["chain"]["n_chains"] * (TI["chain"]["n_steps"] - TI["chain"]["burn_in"])
    return [_cli_op(workdir, "free_energy_ti", "free-energy", cfg, check, se=_csv_se, useful_steps=useful)]


# ---------------------------------------------------------------------------
# large_torus_chains


LARGE = {
    "hessian": _chain(8000, 1000),
    "lemma": _chain(8000, 1000),
    "sample": _chain(5000, 1000),
}


def _check_lemma(path: Path) -> str | None:
    rep = json.loads(path.read_text())
    cb, vb = rep["characteristic_bounds"], rep["variance_bound"]
    failed = [k for k in ("pointwise_ok", "integral_ok", "g0pp_ok") if not cb[k]]
    if cb["g0pp_ok_l2"] is False:
        failed.append("g0pp_ok_l2")
    if not vb["ok"]:
        failed.append("variance_bound")
    return f"failed checks: {failed}" if failed else None


def _check_sample(d: int, m: int, n_chains: int):
    def check(path: Path) -> str | None:
        rep = json.loads(path.read_text())
        cp = rep["checkpoint"]
        values = np.asarray(cp["values"], dtype=float)
        if (cp["d"], cp["m"]) != (d, m) or values.shape != (m**d,) or values[0] != 0.0:
            return "checkpoint is not a pinned field on the configured torus"
        if not np.all(np.isfinite(values)):
            return "non-finite checkpoint"
        acc = rep["acceptance"]
        if len(acc) != n_chains or not all(0.10 <= a <= 0.95 for a in acc):
            return f"acceptance {acc} outside [0.10, 0.95]"
        mean = np.asarray(rep["mean_field"]["value"], dtype=float)
        if mean.shape != (m**d - 1,) or not np.all(np.isfinite(mean)):
            return "mean field has the wrong shape or is non-finite"
        return None

    return check


def ops_large(inputs: dict, workdir: Path, seed: int) -> list[Op]:
    d = 2
    u = [DELTA_B] * d
    base = {"potential": {"family": "example_b", "delta": DELTA_B}, "d": d, "beta": inputs["beta"], "seed": seed}

    def kept(chain):
        return chain["n_chains"] * (chain["n_steps"] - chain["burn_in"])

    hessian = dict(base, m=16, u_grid=[u], method="chain", chain=LARGE["hessian"])
    lemma = dict(base, m=8, u=u, k_grid={"n_points": 401}, observables=5, chain=LARGE["lemma"])
    sample = dict(base, m=16, u=u, chain=LARGE["sample"])
    return [
        _cli_op(workdir, "hessian_chain", "hessian", hessian, _verdicts("pass", 1), se=_csv_se,
                useful_steps=kept(LARGE["hessian"])),
        # verify-lemma runs the same induced chains twice (Fourier bounds, then
        # the variance bound); only the second set is counted as useful
        _cli_op(workdir, "verify_lemma", "verify-lemma", lemma, _check_lemma, useful_steps=kept(LARGE["lemma"])),
        # sample runs its chains twice; the reported numbers consume one set
        _cli_op(workdir, "sample", "sample", sample, _check_sample(d, 16, 2), useful_steps=kept(LARGE["sample"])),
    ]


# ---------------------------------------------------------------------------
# oracle_backends


def _check_reference(ref: dict):
    def check(path: Path) -> str | None:
        rows = _rows(path)
        if len(rows) != 1 or rows[0]["method"] != "oracle":
            return "expected one oracle row"
        value = float(rows[0]["delta_f"])
        if abs(value - ref["delta_f"]) > REFERENCE_ABS_TOL:
            return f"delta_f {value!r} differs from the reference {ref['delta_f']!r} by more than {REFERENCE_ABS_TOL:g}"
        return None

    return check


def _check_condition(expected_lhs: float):
    def check(path: Path) -> str | None:
        rep = json.loads(path.read_text())["report"]
        if not rep["satisfied"]["fcond"]:
            return "primary condition reported violated at half its threshold"
        if abs(rep["lhs_fcond"] - expected_lhs) > 1e-9:
            return f"lhs_fcond {rep['lhs_fcond']!r}, expected {expected_lhs!r}"
        return None

    return check


def ops_oracle(inputs: dict, workdir: Path, seed: int) -> list[Op]:
    fam_a = {"family": "example_a", "a": A_EX}
    fam_b = {"family": "example_b", "delta": DELTA_B}
    b1 = {"potential": fam_b, "d": 1, "beta": inputs["beta_b"], "seed": seed}
    refs = {row["m"]: row for row in inputs["references"]}
    ops = [
        _cli_op(workdir, "hessian_mayer", "hessian", dict(b1, m=5, u_grid=[[0.0]]), _verdicts("pass", 1)),
        _cli_op(
            workdir, "hessian_gh", "hessian",
            {"potential": fam_a, "d": 1, "m": 5, "beta": 1.0, "seed": seed, "u_grid": [[0.0], [0.5]]},
            _verdicts("out-of-hypothesis", 2),
        ),
    ]
    for m, known in ((3, None), (4, "QuadratureError")):
        ref = refs[m]
        cfg = {"potential": fam_a, "d": 1, "m": m, "beta": ref["beta"], "seed": seed, "u_grid": [[ref["u"]]]}
        # the m = 4 row raises QuadratureError through gil.cli.main today
        ops.append(_cli_op(workdir, f"free_energy_adaptive_m{m}", "free-energy", cfg, _check_reference(ref),
                           known_defect=known))
    # at half the threshold the condition's left side is 1/(2 sqrt 2), since it scales as sqrt(beta)
    ops.append(_cli_op(workdir, "check", "check", dict(b1, m=3), _check_condition(0.5 / math.sqrt(2.0))))

    plan, psi = inputs["plan"], inputs["psi"]
    u5 = [0.3]

    def decomposition():
        it = gil.oracle.renorm_iterated_g(plan.potential, plan.lam, u5, plan.torus)
        jt = gil.oracle.renorm_joint_g(plan.potential, plan.lam, u5, plan.torus)
        return it, jt

    def check_decomposition(res) -> str | None:
        it, jt = res
        rel = abs(math.exp(-it) - math.exp(-jt)) / abs(math.exp(-jt))
        return None if rel < 1e-6 else f"iterated {it!r} vs joint {jt!r}: relative {rel:.3g}"

    ops.append(Op(name="decomposition_identity", run=decomposition, check=check_decomposition))

    oracle_r1g = float(gil.renorm.estimate_r1g(plan, u5, psi, "oracle").value)

    def r1g_mc():
        return [
            gil.renorm.estimate_r1g(plan, u5, psi, "mc", n_samples=100_000, seed=seed * N_R1G_REPLICAS + r)
            for r in range(N_R1G_REPLICAS)
        ]

    def check_r1g(estimates) -> str | None:
        for est in estimates:
            diff = abs(float(est.value) - oracle_r1g)
            if not diff <= 4.0 * float(est.std_error):
                return f"mc {float(est.value)!r} +- {float(est.std_error):.3g} misses the oracle {oracle_r1g!r}"
        return None

    def r1g_se(estimates) -> float:
        # standard error of the mean of the replicas
        return math.sqrt(sum(float(e.std_error) ** 2 for e in estimates)) / len(estimates)

    ops.append(Op(name="r1g_mc_vs_oracle", run=r1g_mc, check=check_r1g, se=r1g_se))
    return ops


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build_inputs: Callable[[], dict]
    make_ops: Callable[[dict, Path, int], list[Op]]
    target_se: float  # the headline op's standard error that time_to_se_s scales to


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ti_short_chains", inputs_ti, ops_ti, target_se=1e-4),
        Workload("large_torus_chains", inputs_large, ops_large, target_se=0.05),
        Workload("oracle_backends", inputs_oracle, ops_oracle, target_se=8e-7),
    )
}
