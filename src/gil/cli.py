"""Batch experiment driver: config validation, dispatch, CSV/JSON emission.

Usage:
    gil check|free-energy|hessian|verify-lemma|sample --config cfg.json --out out.{json,csv} [--seed N]

Exit codes: 0 success / all assertions pass, 1 usage or config error, 2 a
requested condition or bound failed, 3 a chain failed its step-size or gradient
check (one stderr line names the row and its acceptance or error).  Identical
config and seed produce byte-identical outputs; every data row carries method
and error columns.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .conditions import check_conditions, scale_to_unit
from .gff import poincare_constant
from .lattice import Torus, Field
from .mcmc import (
    ChainConfig,
    Estimate,
    GradientMismatchError,
    Observable,
    StepSizeError,
    batch_means,
    make_gibbs_target,
    run_chains,
    poincare_variance_check,
    thermodynamic_integration,
    verify_l1norm_bounds,
)
from .oracle import QuadratureSpec, free_energy
from .potentials import (
    Potential,
    example_a,
    example_b,
    example_c,
    gaussian_potential,
    norms,
)
from .renorm import DecompositionPlan, induced_h1, verify_theorem

__all__ = ["main", "build_potential", "validate_config", "ConfigError"]


class ConfigError(ValueError):
    """Configuration failed schema validation."""


_POTENTIAL_KEYS = {
    "gaussian": set(),
    "example_a": {"a"},
    "example_b": {"delta"},
    "example_c": {"p", "k1", "k2"},
}

# JSON types of each nested block's keys, as in docs/config_schema.json; the
# defaults live in ChainConfig and QuadratureSpec
_BLOCK_TYPES = {
    "chain": {
        "n_steps": {"integer"},
        "burn_in": {"integer"},
        "thinning": {"integer"},
        "n_chains": {"integer"},
        "step_size": {"number", "null"},
        "tune": {"boolean"},
    },
    "quadrature": {
        "nodes_per_dim": {"integer"},
        "envelope_scale": {"number"},
        "max_dof": {"integer"},
        "tol": {"number"},
        "node_cap": {"integer"},
    },
    "k_grid": {"k_max": {"number", "null"}, "n_points": {"integer"}},
}

_COMMON_KEYS = {"potential", "d", "m", "beta", "seed"}
_COMMAND_KEYS = {
    "check": _COMMON_KEYS | {"condition"},
    "free-energy": _COMMON_KEYS | {"u_grid", "quadrature", "chain", "ti_nodes"},
    "hessian": _COMMON_KEYS | {"u_grid", "quadrature", "chain", "method", "tolerance"},
    "verify-lemma": _COMMON_KEYS | {"u", "psi", "lambda", "k_grid", "chain", "observables"},
    "sample": _COMMON_KEYS | {"u", "chain"},
}


def build_potential(spec: dict) -> Potential:
    family = spec.get("family")
    if family not in _POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential family {family!r}; choose from {sorted(_POTENTIAL_KEYS)}")
    params = {k: v for k, v in spec.items() if k != "family"}
    extra = set(params) - _POTENTIAL_KEYS[family]
    missing = _POTENTIAL_KEYS[family] - set(params)
    if extra or missing:
        raise ConfigError(f"potential {family}: unknown keys {sorted(extra)}, missing keys {sorted(missing)}")
    if family == "gaussian":
        return gaussian_potential()
    if family == "example_a":
        return example_a(float(params["a"]))
    if family == "example_b":
        return example_b(float(params["delta"]))
    return example_c(float(params["p"]), float(params["k1"]), float(params["k2"]))


def _json_type(value) -> str:
    """JSON Schema type of a parsed value; bool is checked before int, which it subclasses."""
    for name, cls in (("null", type(None)), ("boolean", bool), ("integer", int), ("number", float), ("string", str)):
        if isinstance(value, cls):
            return name
    return "array" if isinstance(value, list) else "object"


def _validate_block(cfg: dict, block: str) -> None:
    types = _BLOCK_TYPES[block]
    if not isinstance(cfg[block], dict):
        raise ConfigError(f"{block} must be an object")
    unknown = set(cfg[block]) - set(types)
    if unknown:
        raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
    for key, value in cfg[block].items():
        kind = _json_type(value)
        if kind not in types[key] and not (kind == "integer" and "number" in types[key]):
            raise ConfigError(f"{block}.{key} must be {' or '.join(sorted(types[key]))}, got {kind} {value!r}")


def validate_config(cfg: dict, command: str) -> None:
    """Reject unknown keys and enforce required fields; raises ConfigError."""
    allowed = _COMMAND_KEYS[command]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key in ("potential", "d", "m", "beta", "seed"):
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    if not isinstance(cfg["potential"], dict):
        raise ConfigError("potential must be an object with a 'family' tag")
    if not (isinstance(cfg["d"], int) and cfg["d"] >= 1):
        raise ConfigError("d must be an integer >= 1")
    if not (isinstance(cfg["m"], int) and cfg["m"] >= 2):
        raise ConfigError("m must be an integer >= 2")
    if not (isinstance(cfg["beta"], (int, float)) and cfg["beta"] > 0):
        raise ConfigError("beta must be a positive number")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    for block in _BLOCK_TYPES:
        if block in cfg:
            _validate_block(cfg, block)
    if command in ("free-energy", "hessian") and "u_grid" not in cfg:
        raise ConfigError(f"{command} requires u_grid")
    if command == "verify-lemma":
        if "k_grid" not in cfg:
            raise ConfigError("verify-lemma requires k_grid")
        if "u" not in cfg:
            raise ConfigError("verify-lemma requires u")
    if command == "sample" and "u" not in cfg:
        raise ConfigError("sample requires u")


def _chain_config(cfg: dict, seed: int) -> ChainConfig:
    return ChainConfig(seed=seed, **cfg.get("chain", {}))


def _quad_spec(cfg: dict) -> QuadratureSpec:
    return QuadratureSpec(**cfg.get("quadrature", {}))


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else _fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _u_grid(cfg: dict) -> list[np.ndarray]:
    grid = cfg.get("u_grid", [])
    out = []
    for u in grid:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (cfg["d"],):
            raise ConfigError(f"u_grid entries must have length d = {cfg['d']}")
        out.append(u)
    return out


def cmd_check(cfg: dict, out: str, seed: int) -> int:
    p = build_potential(cfg["potential"])
    nr = norms(p, 1e-10)
    rep = check_conditions(float(cfg["beta"]), int(cfg["d"]), p, nr)
    which = cfg.get("condition", "fcond")
    if which not in rep.satisfied:
        raise ConfigError(f"condition must be one of {sorted(rep.satisfied)}")
    payload = {
        "input": {"potential": cfg["potential"], "beta": cfg["beta"], "d": cfg["d"]},
        "norms": {
            "l1_g0pp": nr.l1_g0pp,
            "l1_g0pp_abs": nr.l1_g0pp_abs,
            "l2_g0p": nr.l2_g0p,
            "l1_g0": nr.l1_g0,
            "quadrature_error": nr.quadrature_error,
            "divergent": list(nr.divergent),
        },
        "report": rep.to_dict(),
        "condition": which,
    }
    _write_json(out, payload)
    return 0 if rep.satisfied[which] else 2


def cmd_free_energy(cfg: dict, out: str, seed: int) -> int:
    p = build_potential(cfg["potential"])
    t = Torus(int(cfg["d"]), int(cfg["m"]))
    beta = float(cfg["beta"])
    q = _quad_spec(cfg)
    grid = _u_grid(cfg)
    header = [f"u_{i+1}" for i in range(t.d)] + ["delta_f", "method", "error"]
    rows = []
    use_oracle = t.n_dof <= q.max_dof
    if use_oracle:
        f0 = free_energy(np.zeros(t.d), p, t, beta, q)
        for u in grid:
            rows.append(list(u) + [free_energy(u, p, t, beta, q) - f0, "oracle", q.tol])
    else:
        ccfg = _chain_config(cfg, seed)
        n_nodes = int(cfg.get("ti_nodes", 32))
        for j, u in enumerate(grid):
            est = thermodynamic_integration(p, t, beta, u, ccfg, n_nodes=n_nodes, tilt=j)
            rows.append(list(u) + [float(est.value), "chain", float(est.std_error)])
    _write_csv(out, header, rows)
    return 0


def cmd_hessian(cfg: dict, out: str, seed: int) -> int:
    p = build_potential(cfg["potential"])
    t = Torus(int(cfg["d"]), int(cfg["m"]))
    rows = verify_theorem(
        p,
        float(cfg["beta"]),
        t,
        _u_grid(cfg),
        q=_quad_spec(cfg),
        cfg=_chain_config(cfg, seed),
        method=cfg.get("method", "auto"),
        tol=float(cfg.get("tolerance", 1e-4)),
    )
    header = [f"u_{i+1}" for i in range(t.d)] + ["hessian_min_eig", "bound", "margin", "method", "std_error", "verdict"]
    table = [list(r.u) + [r.min_eig, r.bound, r.margin, r.method, r.std_error, r.verdict] for r in rows]
    _write_csv(out, header, table)
    return 2 if any(r.verdict == "fail" for r in rows) else 0


def cmd_verify_lemma(cfg: dict, out: str, seed: int) -> int:
    p = build_potential(cfg["potential"])
    t = Torus(int(cfg["d"]), int(cfg["m"]))
    beta = float(cfg["beta"])
    ps, k = scale_to_unit(p, beta)
    u = np.atleast_1d(np.asarray(cfg["u"], dtype=float))
    if u.shape != (t.d,):
        raise ConfigError(f"u must have length d = {t.d}")
    us = k * u
    psi_vals = np.asarray(cfg.get("psi", np.zeros(t.volume)), dtype=float)
    if psi_vals.shape != (t.volume,):
        raise ConfigError(f"psi must have {t.volume} site values")
    psi = Field(t, psi_vals)
    plan = DecompositionPlan.from_potential(ps, t, cfg.get("lambda"))
    kg = cfg["k_grid"]
    k_max = kg.get("k_max")
    if k_max is None:
        k_max = 4.0 * math.sqrt(12.0 * t.d * plan.cbar)
    k_grid = np.linspace(-float(k_max), float(k_max), kg.get("n_points", 401))

    # one chain run on the induced target feeds both lemma checks
    results = run_chains(induced_h1(plan, us, psi), _chain_config(cfg, seed))
    samples = np.concatenate([r.samples for r in results])
    rep = verify_l1norm_bounds(ps, t, us, psi, samples, plan.lam, k_grid)

    delta = plan.cbar * poincare_constant(t).delta_m
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0B5)))
    n_obs = int(cfg.get("observables", 5))
    obs = []
    for j in range(n_obs):
        if j < t.n_dof:
            v = np.zeros(t.n_dof)
            v[j] = 1.0
        else:
            v = rng.standard_normal(t.n_dof)
        obs.append(
            Observable(value=lambda S, v=v: S @ v, grad=lambda S, v=v: np.broadcast_to(v, S.shape), name=f"linear_{j}")
        )
    var_rep = poincare_variance_check(samples, delta, obs)

    payload = {
        "input": {"potential": cfg["potential"], "beta": beta, "d": t.d, "m": t.m, "u": u.tolist()},
        "lambda": plan.lam,
        "cbar": plan.cbar,
        "characteristic_bounds": {
            "pointwise_ok": rep.pointwise_ok,
            "n_pointwise_violations": rep.n_pointwise_violations,
            "integral": rep.integral,
            "integral_se": rep.integral_se,
            "integral_bound": rep.integral_bound,
            "integral_ok": rep.integral_ok,
            "g0pp_mean": rep.g0pp_mean,
            "g0pp_se": rep.g0pp_se,
            "g0pp_bound_l1": rep.g0pp_bound_l1,
            "g0pp_ok": rep.g0pp_ok,
            "g0pp_bound_l2": rep.g0pp_bound_l2,
            "g0pp_ok_l2": rep.g0pp_ok_l2,
        },
        "variance_bound": {
            "delta": delta,
            "names": list(var_rep.names),
            "variances": var_rep.variances,
            "variance_se": var_rep.variance_se,
            "bounds": var_rep.bounds,
            "bound_se": var_rep.bound_se,
            "ok": var_rep.ok,
        },
    }
    _write_json(out, payload)
    return 0 if (rep.ok() and var_rep.ok) else 2


def cmd_sample(cfg: dict, out: str, seed: int) -> int:
    p = build_potential(cfg["potential"])
    t = Torus(int(cfg["d"]), int(cfg["m"]))
    beta = float(cfg["beta"])
    u = np.atleast_1d(np.asarray(cfg["u"], dtype=float))
    if u.shape != (t.d,):
        raise ConfigError(f"u must have length d = {t.d}")
    ccfg = _chain_config(cfg, seed)
    target = make_gibbs_target(t, p, u, beta)
    results = run_chains(target, ccfg)
    est = Estimate(*batch_means(np.concatenate([r.samples for r in results])), method="chain")
    final = Field.from_dof(t, results[-1].samples[-1])
    payload = {
        "input": {"potential": cfg["potential"], "beta": beta, "d": t.d, "m": t.m, "u": u.tolist()},
        "checkpoint": json.loads(final.to_json()),
        "acceptance": [r.acceptance for r in results],
        "step_size": [r.step_size for r in results],
        "mean_field": est.to_dict(),
    }
    _write_json(out, payload)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "free-energy": cmd_free_energy,
    "hessian": cmd_hessian,
    "verify-lemma": cmd_verify_lemma,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gil", description="gradient interface model laboratory")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment configuration")
    parser.add_argument("--out", required=True, help="output path (.json or .csv depending on the command)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        validate_config(cfg, args.command)
        seed = args.seed if args.seed is not None else int(cfg["seed"])
        return _COMMANDS[args.command](cfg, args.out, seed)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"gil {args.command}: {exc}", file=sys.stderr)
        return 1
    except (StepSizeError, GradientMismatchError) as exc:
        print(f"gil {args.command}: chain failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
