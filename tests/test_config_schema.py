import copy
import gc
import tomllib
from pathlib import Path

import pytest

import gil.cli
from gil.cli import SCHEMA, ConfigError, build_potential, validate_config

ROOT = Path(__file__).resolve().parents[1]

# keywords gil.cli._check enforces, and keywords that only annotate
ENFORCED = {
    "type",
    "const",
    "enum",
    "minimum",
    "maximum",
    "exclusiveMinimum",
    "exclusiveMaximum",
    "properties",
    "additionalProperties",
    "required",
    "items",
    "propertyNames",
    "oneOf",
}
ANNOTATIONS = {"$schema", "title", "description", "$defs"}

CHAIN = {"n_steps": 100, "burn_in": 10, "n_chains": 1, "step_size": 0.3}
BASE = {"potential": {"family": "example_a", "a": 0.5}, "d": 1, "m": 3, "beta": 1.0, "seed": 7}
VALID = {
    "check": dict(BASE, condition="alt_9"),
    "free-energy": dict(BASE, u_grid=[[0.1], [0.2]], chain=CHAIN, ti_nodes=4),
    "hessian": dict(BASE, u_grid=[[0.1]], chain=CHAIN, method="chain", tolerance=1e-4),
    "verify-lemma": dict(
        BASE, u=[0.1], psi=[0.0, 0.1, 0.2], k_grid={"k_max": 3.0, "n_points": 41}, chain=CHAIN, observables=3, **{"lambda": 0.3}
    ),
    "sample": dict(BASE, u=[0.1], chain=CHAIN),
}
VALUES = [
    *(True, False, None, -1, 0, 1, 2, 3, 5, 6, 8, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, "1", "fcond", "chain"),
    *([], [0.1], [[0.1]], [True], {}, {"family": "gaussian"}, {"family": "example_a", "a": 1}),
    {"family": "example_c", "p": 1, "k1": 1.0, "k2": 2},
]


def _paths(value, prefix=()):
    """Every key and index path inside a config value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield prefix + (key,)
        yield from _paths(sub, prefix + (key,))


def _mutants(cfg):
    """cfg with each path set to each value, each path dropped, and each unused schema key added."""
    for path in _paths(cfg):
        for value in [*VALUES, "drop"]:
            out = copy.deepcopy(cfg)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if value == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield out
    for key in SCHEMA["properties"].keys() - cfg.keys():
        for value in VALUES:
            yield dict(cfg, **{key: value})


def _accepts(cfg, command):
    try:
        validate_config(cfg, command)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("command", sorted(VALID))
def test_interpreter_agrees_with_reference_validator(command):
    jsonschema = pytest.importorskip("jsonschema")
    # as in gil: an integral float is not an integer, and a bool is never one
    checker = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    )
    strict = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=checker)
    reference = strict({**SCHEMA, "allOf": [SCHEMA["$defs"]["commands"][command]]})
    assert _accepts(VALID[command], command) and reference.is_valid(VALID[command])
    cases = list(_mutants(VALID[command]))
    disagree = [cfg for cfg in cases if _accepts(cfg, command) != reference.is_valid(cfg)]
    assert len(cases) > 300 and not disagree, disagree[:3]


def test_validation_leaves_no_reference_cycles():
    # a oneOf that kept its branch exceptions tied their tracebacks into a cycle
    # that held the calling command's frame, sample arrays included, until the
    # next cyclic collection
    gc.collect()
    gc.disable()
    try:
        build_potential({"family": "example_b", "delta": 0.5})
        validate_config(VALID["sample"], "sample")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _keywords(schema):
    # _check enforces additionalProperties only as false
    yield from (k if k != "additionalProperties" or schema[k] is False else "additionalProperties: schema" for k in schema)
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    for key in ("items", "propertyNames"):
        if key in schema:
            yield from _keywords(schema[key])
    for sub in schema.get("oneOf", []):
        yield from _keywords(sub)


def test_schema_uses_only_enforced_keywords():
    # a keyword added to the schema without an interpreter rule would be silently ignored
    commands = SCHEMA["$defs"]["commands"]
    assert set(SCHEMA["$defs"]) == {"commands"} and set(commands) == set(gil.cli._COMMANDS)
    used = set(_keywords(SCHEMA)).union(*(_keywords(c) for c in commands.values()))
    assert used <= ENFORCED | ANNOTATIONS, used - ENFORCED - ANNOTATIONS


def test_schema_is_package_data():
    # an installed gil reads its schema next to gil/cli.py
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "config_schema.json" in pyproject["tool"]["setuptools"]["package-data"]["gil"]
    assert (Path(gil.cli.__file__).parent / "config_schema.json").is_file()
    assert not (ROOT / "docs" / "config_schema.json").exists()

