"""Batch experiment driver: config validation, dispatch, CSV/JSON emission.

Usage:
    gil check|free-energy|hessian|verify-lemma|sample --config cfg.json --out out.{json,csv} [--seed N]

The config contract is config_schema.json next to this module, and nothing
else: a small interpreter checks every value against its root schema and the
command's entry in $defs.commands (types, ranges, enums, allowed and required
keys) before any computation.  Python adds only the lengths the schema cannot
state (d components per tilt, one psi value per site); defaults live in the
functions the values feed.

Exit codes: 0 success / all assertions pass, 1 usage or config error (one
stderr line naming the offending key), 2 a requested condition or bound
failed, 3 a numerical backend failed: a chain failed its step-size or gradient
check (one stderr line names the row and its acceptance or error) or a
quadrature did not converge (one stderr line names the backend).  Identical
config and seed produce byte-identical outputs; every data row carries method
and error columns.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .conditions import check_conditions, scale_to_unit
from .gff import poincare_constant
from .lattice import Torus, Field
from .mcmc import (
    BlockSums,
    ChainConfig,
    Estimate,
    GradientMismatchError,
    StepSizeError,
    fourier_k_grid,
    make_gibbs_target,
    run_chains,
    poincare_variance_check,
    stream,
    thermodynamic_integration,
    verify_l1norm_bounds,
)
from .oracle import ORACLE_ERROR, f_tilt
from .potentials import Potential, example_a, example_b, example_c, gaussian_potential, norms
from .quadrature import ORACLE_MAX_DOF, QuadratureError
from .renorm import DecompositionPlan, induced_h1, verify_theorem

__all__ = ["main", "build_potential", "validate_config", "ConfigError"]

SCHEMA = json.loads((Path(__file__).parent / "config_schema.json").read_text())
_FAMILIES = {"gaussian": gaussian_potential, "example_a": example_a, "example_b": example_b, "example_c": example_c}
_TYPES = {"null": type(None), "boolean": bool, "integer": int, "number": (int, float), "string": str, "array": list, "object": dict}
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "maximum": (operator.le, "<="),
    "exclusiveMinimum": (operator.gt, ">"),
    "exclusiveMaximum": (operator.lt, "<"),
}


class ConfigError(ValueError):
    """Configuration failed schema validation."""


class _Mismatch(ConfigError):
    """A `const` failed: in a oneOf, the value belongs to another branch rather than breaking this one."""


def _is(value, kind: str) -> bool:
    # a bool is only a boolean, and an integral float is not an integer
    if isinstance(value, bool):
        return kind == "boolean"
    return isinstance(value, _TYPES[kind])


def _check(value, schema: dict, where: str) -> None:
    """Raise ConfigError naming `where` unless value satisfies schema (the keywords config_schema.json uses)."""
    kinds = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    if kinds and not any(_is(value, k) for k in kinds):
        raise ConfigError(f"{where} must be {' or '.join(kinds)}, got {value!r}")
    if "const" in schema and value != schema["const"]:
        raise _Mismatch(f"{where} must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where} must be one of {schema['enum']}, got {value!r}")
    for key, (holds, sign) in _BOUNDS.items():
        if key in schema and _is(value, "number") and not holds(value, schema[key]):
            raise ConfigError(f"{where} must be {sign} {schema[key]}, got {value!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        if "propertyNames" in schema:
            for key in value:
                _check(key, schema["propertyNames"], f"{where} key")
        for key in (k for k in props if k in value):  # schema order: a oneOf branch's tag comes first
            _check(value[key], props[key], key if where == "config" else f"{where}.{key}")
        for key in schema.get("required", []):
            if key not in value:
                raise ConfigError(f"{where} must have key {key!r}")
        extra = [k for k in value if k not in props]
        if extra and schema.get("additionalProperties") is False:
            raise ConfigError(f"{where} must not have key {extra[0]!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]")
    if "oneOf" in schema:
        # messages, not exceptions: a kept exception's traceback would hold the
        # caller frames, and a command's arrays with them, until a cyclic collection
        fails = []
        for branch in schema["oneOf"]:
            try:
                _check(value, branch, where)
            except ConfigError as exc:
                fails.append((str(exc), isinstance(exc, _Mismatch)))
        if len(fails) != len(schema["oneOf"]) - 1:
            near = [msg for msg, other in fails if not other] or [msg for msg, _ in fails]
            raise ConfigError(" or ".join(dict.fromkeys(near)) if fails else f"{where} must match exactly one form")


def validate_config(cfg: dict, command: str) -> None:
    """Check cfg against the schema and its command entry; raises ConfigError."""
    _check(cfg, SCHEMA, "config")
    _check(cfg, SCHEMA["$defs"]["commands"][command], f"{command} config")


def build_potential(spec: dict) -> Potential:
    """The potential a config's potential block names, checked against the schema; raises ConfigError."""
    _check(spec, SCHEMA["properties"]["potential"], "potential")
    params = {k: v for k, v in spec.items() if k != "family"}
    return _FAMILIES[spec["family"]](**params)


def _setup(cfg: dict) -> tuple[Potential, Torus, float]:
    """Potential, torus and inverse temperature of a validated config, its vector lengths checked."""
    t = Torus(cfg["d"], cfg["m"])
    if any(len(u) != t.d for u in cfg.get("u_grid", []) + [cfg.get("u", [0.0] * t.d)]):
        raise ConfigError(f"u and every u_grid entry must have length d = {t.d}")
    if len(cfg.get("psi", [0.0] * t.volume)) != t.volume:
        raise ConfigError(f"psi must have {t.volume} site values")
    return build_potential(cfg["potential"]), t, float(cfg["beta"])


def _given(cfg: dict, **params) -> dict:
    """Keyword arguments {param: cfg[key]} for the keys present, so unset ones take the callee's default."""
    return {param: cfg[key] for param, key in params.items() if key in cfg}


def _chain_config(cfg: dict, seed: int) -> ChainConfig:
    return ChainConfig(seed=seed, **cfg.get("chain", {}))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else format(float(x), ".17g") for x in row))
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


def cmd_check(cfg: dict, out: str, seed: int) -> int:
    p, t, beta = _setup(cfg)
    nr = norms(p, 1e-10)
    rep = check_conditions(beta, t.d, p, nr)
    which = cfg.get("condition", "fcond")
    payload = {
        "input": {"potential": cfg["potential"], "beta": cfg["beta"], "d": cfg["d"]},
        "norms": asdict(nr),
        "report": asdict(rep),
        "condition": which,
    }
    _write_json(out, payload)
    return 0 if rep.satisfied[which] else 2


def cmd_free_energy(cfg: dict, out: str, seed: int) -> int:
    p, t, beta = _setup(cfg)
    grid = np.asarray(cfg["u_grid"], dtype=float).reshape(-1, t.d)
    header = [f"u_{i+1}" for i in range(t.d)] + ["delta_f", "method", "error"]
    rows = []
    if t.n_dof <= ORACLE_MAX_DOF:
        f0 = f_tilt(np.zeros(t.d), p, t, beta)
        for u in grid:
            rows.append(list(u) + [f_tilt(u, p, t, beta) - f0, "oracle", ORACLE_ERROR])
    else:
        ccfg = _chain_config(cfg, seed)
        for j, u in enumerate(grid):
            est = thermodynamic_integration(p, t, beta, u, ccfg, tilt=j, **_given(cfg, n_nodes="ti_nodes"))
            rows.append(list(u) + [float(est.value), "chain", float(est.std_error)])
    _write_csv(out, header, rows)
    return 0


def cmd_hessian(cfg: dict, out: str, seed: int) -> int:
    p, t, beta = _setup(cfg)
    grid = np.asarray(cfg["u_grid"], dtype=float).reshape(-1, t.d)
    rows = verify_theorem(p, beta, t, grid, _chain_config(cfg, seed), **_given(cfg, method="method", tol="tolerance"))
    header = [f"u_{i+1}" for i in range(t.d)] + ["hessian_min_eig", "bound", "margin", "method", "std_error", "verdict"]
    table = [list(r.u) + [r.min_eig, r.bound, r.margin, r.method, r.std_error, r.verdict] for r in rows]
    _write_csv(out, header, table)
    return 2 if any(r.verdict == "fail" for r in rows) else 0


def cmd_verify_lemma(cfg: dict, out: str, seed: int) -> int:
    p, t, beta = _setup(cfg)
    ps, k = scale_to_unit(p, beta)
    u = np.asarray(cfg["u"], dtype=float)
    us = k * u
    psi = Field(t, np.asarray(cfg.get("psi", np.zeros(t.volume)), dtype=float))
    plan = DecompositionPlan.from_potential(ps, t, cfg.get("lambda"))
    k_grid = fourier_k_grid(t, plan.cbar, **cfg["k_grid"])
    # linear observables: unit vectors first, then observables-stream normals
    directions = np.eye(cfg.get("observables", 5), t.n_dof)
    n_random = max(len(directions) - t.n_dof, 0)
    directions[t.n_dof :] = stream(seed, purpose="observables").standard_normal((n_random, t.n_dof))
    bond = t.forward[0, 0] - 1  # grad_1 theta(0): the origin is pinned to zero

    def lemma_values(X):
        """What the two lemma checks read of each kept state: the bond, then the projections."""
        return np.concatenate([X[..., bond : bond + 1], X @ directions.T], axis=-1)

    # one chain run on the induced target feeds both lemma checks
    results = run_chains(induced_h1(plan, us, psi), _chain_config(cfg, seed), keep=lemma_values)
    values = np.asarray([r.samples for r in results])
    rep = verify_l1norm_bounds(ps, t, us, psi, values[..., 0], plan.lam, k_grid)
    delta = plan.cbar * poincare_constant(t)
    var_rep = poincare_variance_check(values[..., 1:], delta, directions)

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
        "variance_bound": dict(asdict(var_rep), delta=delta),
    }
    _write_json(out, payload)
    return 0 if (rep.ok() and var_rep.ok) else 2


def cmd_sample(cfg: dict, out: str, seed: int) -> int:
    p, t, beta = _setup(cfg)
    u = np.asarray(cfg["u"], dtype=float)
    ccfg = _chain_config(cfg, seed)
    sums = BlockSums(ccfg.n_steps - ccfg.burn_in)
    results = run_chains(make_gibbs_target(t, p, u, beta), ccfg, keep=sums)
    est = Estimate(*sums.result(), method="chain")
    final = Field.from_dof(t, results[-1].state)
    payload = {
        "input": {"potential": cfg["potential"], "beta": beta, "d": t.d, "m": t.m, "u": u.tolist()},
        "checkpoint": {"d": t.d, "m": t.m, "values": final.values.tolist()},
        "acceptance": [r.acceptance for r in results],
        "step_size": [r.step_size for r in results],
        "mean_field": asdict(est),
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
        validate_config(cfg, args.command)
        seed = args.seed if args.seed is not None else cfg["seed"]
        return _COMMANDS[args.command](cfg, args.out, seed)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"gil {args.command}: {exc}", file=sys.stderr)
        return 1
    except (StepSizeError, GradientMismatchError) as exc:
        print(f"gil {args.command}: chain failed: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"gil {args.command}: quadrature failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
