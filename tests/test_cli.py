import json
import math

import numpy as np
import pytest

from gil.cli import ConfigError, build_potential, main, validate_config


def run_cli(args):
    return main([str(a) for a in args])


def write(path, obj):
    path.write_text(json.dumps(obj))
    return path


BASE = {
    "potential": {"family": "gaussian"},
    "d": 1,
    "m": 3,
    "beta": 1.0,
    "seed": 7,
}


def test_build_potential_families():
    assert build_potential({"family": "gaussian"}).family == "gaussian"
    assert build_potential({"family": "example_a", "a": 0.5}).family == "example_a"
    with pytest.raises(ConfigError):
        build_potential({"family": "nope"})
    with pytest.raises(ConfigError):
        build_potential({"family": "example_a"})  # missing a
    with pytest.raises(ConfigError):
        build_potential({"family": "gaussian", "extra": 1})


def test_validate_config_rejects_unknown_keys():
    cfg = dict(BASE, bogus=1)
    with pytest.raises(ConfigError):
        validate_config(cfg, "check")


def test_validate_config_requires_fields():
    cfg = {k: v for k, v in BASE.items() if k != "beta"}
    with pytest.raises(ConfigError):
        validate_config(cfg, "check")


def test_check_threshold_exit_codes(tmp_path):
    a, d = 0.5, 1
    beta_star = a * a * math.pi**2 / (6.0 * 16.0**2 * d)
    cfg = dict(BASE, potential={"family": "example_a", "a": a}, beta=beta_star * (1 - 1e-9))
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["check", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["lhs_fcond"] == pytest.approx(0.5, abs=1e-8)
    # above threshold: violated
    cfg["beta"] = beta_star * 1.1
    path = write(tmp_path / "c2.json", cfg)
    assert run_cli(["check", "--config", path, "--out", out]) == 2


def test_check_gaussian_all_satisfied(tmp_path):
    path = write(tmp_path / "c.json", dict(BASE))
    out = tmp_path / "o.json"
    assert run_cli(["check", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert all(rep["report"]["satisfied"].values())


def test_config_error_exit_one(tmp_path):
    path = write(tmp_path / "c.json", dict(BASE, bogus=1))
    assert run_cli(["check", "--config", path, "--out", tmp_path / "o.json"]) == 1
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["check", "--config", bad, "--out", tmp_path / "o.json"]) == 1


def test_free_energy_gaussian_csv(tmp_path):
    cfg = dict(BASE, m=4, u_grid=[[0.0], [0.5], [1.0]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "u_1,delta_f,method,error"
    for line, u in zip(lines[1:], (0.0, 0.5, 1.0)):
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(4 / 2 * u * u, abs=1e-8)
        assert cells[2] == "oracle"


def test_free_energy_empty_grid(tmp_path):
    cfg = dict(BASE, u_grid=[])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    assert out.read_text() == "u_1,delta_f,method,error\n"


def test_hessian_gaussian_sweep(tmp_path):
    cfg = dict(BASE, u_grid=[[0.0], [0.7]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "h.csv"
    assert run_cli(["hessian", "--config", path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "u_1,hessian_min_eig,bound,margin,method,std_error,verdict"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == pytest.approx(1.5, abs=1e-6)  # margin = M^d / 2
        assert cells[6] == "pass"


def test_verify_lemma_requires_k_grid(tmp_path):
    cfg = dict(BASE, u=[0.1])
    path = write(tmp_path / "c.json", cfg)
    assert run_cli(["verify-lemma", "--config", path, "--out", tmp_path / "o.json"]) == 1


@pytest.mark.parametrize("k_max", [1.0, 2.0])
def test_verify_lemma_small_k_max_passes(tmp_path, k_max):
    # a grid inside sqrt(12 d cbar) = 3.46 needs the tail 4 sqrt(c) - 2K of
    # min(1, c / k^2); the form 2c/K overstated the integral as 25.9 at K = 1
    cfg = dict(BASE, u=[0.1], k_grid={"k_max": k_max}, chain={"n_steps": 6000, "burn_in": 1000, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["verify-lemma", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())["characteristic_bounds"]
    assert rep["integral_ok"] is True
    assert rep["integral"] <= rep["integral_bound"]


def test_verify_lemma_small_run(tmp_path):
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        beta=0.116,
        u=[0.1],
        k_grid={"n_points": 41},
        chain={"n_steps": 6000, "burn_in": 1000, "n_chains": 1},
    )
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "o.json"
    assert run_cli(["verify-lemma", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["characteristic_bounds"]["pointwise_ok"] is True
    assert rep["variance_bound"]["ok"] is True
    assert rep["lambda"] == pytest.approx(1 / 2.4)


def test_sample_checkpoint_roundtrip(tmp_path):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 2000, "burn_in": 500, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "s.json"
    assert run_cli(["sample", "--config", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["checkpoint"]["d"] == 1 and rep["checkpoint"]["m"] == 3
    assert rep["checkpoint"]["values"][0] == 0.0
    assert rep["mean_field"]["method"] == "chain"


def test_byte_identical_reruns(tmp_path):
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        beta=0.2,
        u=[0.3],
        chain={"n_steps": 3000, "burn_in": 500, "n_chains": 2},
    )
    path = write(tmp_path / "c.json", cfg)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(["sample", "--config", path, "--out", out1]) == 0
    assert run_cli(["sample", "--config", path, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tilt_streams_do_not_collide(tmp_path):
    # two grid tilts with the same u: seed 7919 at tilt 0 once shared its chains
    # with seed 0 at tilt 1
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        u_grid=[[0.3], [0.3]],
        quadrature={"max_dof": 1},
        ti_nodes=4,
        chain={"n_steps": 600, "burn_in": 200, "n_chains": 1},
    )
    path = write(tmp_path / "c.json", cfg)
    rows = {}
    for seed in (0, 7919):
        out = tmp_path / f"fe{seed}.csv"
        assert run_cli(["free-energy", "--config", path, "--out", out, "--seed", seed]) == 0
        rows[seed] = out.read_text().strip().split("\n")[1:]
        assert all(r.split(",")[2] == "chain" for r in rows[seed])
    assert rows[7919][0] != rows[0][1]
    assert rows[0][0] != rows[0][1]


def test_sample_runs_its_chains_once(tmp_path, monkeypatch):
    import gil.cli
    import gil.mcmc

    calls = []
    real = gil.mcmc.run_chains

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gil.mcmc, "run_chains", counted)
    monkeypatch.setattr(gil.cli, "run_chains", counted)
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 1000, "burn_in": 200, "n_chains": 2})
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "s.json"
    assert run_cli(["sample", "--config", path, "--out", out]) == 0
    assert len(calls) == 1
    rep = json.loads(out.read_text())
    assert len(rep["acceptance"]) == 2 and len(rep["mean_field"]["value"]) == 2


def test_verify_lemma_runs_its_chains_once(tmp_path, monkeypatch):
    # the Fourier bounds and the variance bound read the same induced chains
    import gil.cli
    import gil.mcmc

    calls = []
    real = gil.mcmc.run_chains

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gil.mcmc, "run_chains", counted)
    monkeypatch.setattr(gil.cli, "run_chains", counted)
    cfg = dict(
        BASE,
        potential={"family": "example_b", "delta": 0.5},
        beta=0.116,
        u=[0.1],
        k_grid={"n_points": 41},
        chain={"n_steps": 1000, "burn_in": 200, "n_chains": 2},
    )
    path = write(tmp_path / "c.json", cfg)
    assert run_cli(["verify-lemma", "--config", path, "--out", tmp_path / "o.json"]) in (0, 2)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command,extra,key",
    [
        ("sample", {"u": [0.2], "chain": {"step_size": "0.1"}}, "chain.step_size"),
        ("sample", {"u": [0.2], "chain": {"tune": "no"}}, "chain.tune"),
        ("sample", {"u": [0.2], "chain": {"n_steps": 1000.7}}, "chain.n_steps"),
        ("sample", {"u": [0.2], "chain": {"n_chains": True}}, "chain.n_chains"),
        ("free-energy", {"u_grid": [[0.2]], "quadrature": {"max_dof": True}}, "quadrature.max_dof"),
        ("free-energy", {"u_grid": [[0.2]], "quadrature": {"tol": "1e-8"}}, "quadrature.tol"),
        ("check", {"beta": True}, "beta"),
        ("sample", {"u": [0.2], "seed": True}, "seed"),
        ("check", {"d": True}, "d"),
        ("hessian", {"u_grid": [[0.2]], "method": "foo"}, "method"),
        ("hessian", {"u_grid": [[0.2]], "tolerance": "1e-4"}, "tolerance"),
        ("check", {"potential": {"family": "example_a", "a": "0.5"}}, "potential.a"),
        ("free-energy", {"u_grid": [[0.2]], "ti_nodes": True}, "ti_nodes"),
        ("free-energy", {"u_grid": [[0.2]], "ti_nodes": 0}, "ti_nodes"),
        ("sample", {"u": 0.2}, "u"),
        ("free-energy", {"u_grid": [0.2]}, "u_grid[0]"),
        ("hessian", {"u_grid": [0.2]}, "u_grid[0]"),
        ("verify-lemma", {"u": [0.1], "k_grid": {}, "observables": 0}, "observables"),
        ("verify-lemma", {"u": [0.1], "k_grid": {"n_points": 1}}, "k_grid.n_points"),
        ("verify-lemma", {"u": [0.1], "k_grid": {}, "lambda": "0.3"}, "lambda"),
        ("verify-lemma", {"u": [0.1], "k_grid": {"k_max": 0}}, "k_grid.k_max"),
    ],
    ids=[
        "step_size-string",
        "tune-string",
        "n_steps-fraction",
        "n_chains-bool",
        "max_dof-bool",
        "tol-string",
        "beta-bool",
        "seed-bool",
        "d-bool",
        "method-unknown",
        "tolerance-string",
        "a-string",
        "ti_nodes-bool",
        "ti_nodes-zero",
        "u-scalar",
        "u_grid-flat-free-energy",
        "u_grid-flat-hessian",
        "observables-zero",
        "n_points-one",
        "lambda-string",
        "k_max-zero",
    ],
)
def test_mistyped_block_values_exit_one(tmp_path, capsys, command, extra, key):
    # a value outside the schema is a config error, not a traceback, a silent
    # cast, a truthiness test or a check that passes with nothing checked; a
    # bool is not an integer
    path = write(tmp_path / "c.json", dict(BASE, **extra))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o.out"]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and f": {key} must be" in err[0]
    assert not (tmp_path / "o.out").exists()


def test_chain_failure_exit_three(tmp_path, capsys):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 400, "burn_in": 100, "n_chains": 1, "step_size": 50.0})
    path = write(tmp_path / "c.json", cfg)
    assert run_cli(["sample", "--config", path, "--out", tmp_path / "s.json"]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "row (tilt 0, node 0, chain 0)" in err[0] and "acceptance rate" in err[0]


def test_seed_override_changes_output(tmp_path):
    cfg = dict(BASE, u=[0.2], chain={"n_steps": 2000, "burn_in": 500, "n_chains": 1})
    path = write(tmp_path / "c.json", cfg)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(["sample", "--config", path, "--out", out1]) == 0
    assert run_cli(["sample", "--config", path, "--out", out2, "--seed", 99]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_full_precision(tmp_path):
    cfg = dict(BASE, m=3, u_grid=[[1.0 / 3.0]])
    path = write(tmp_path / "c.json", cfg)
    out = tmp_path / "fe.csv"
    assert run_cli(["free-energy", "--config", path, "--out", out]) == 0
    val = out.read_text().strip().split("\n")[1].split(",")[1]
    # 17 significant digits survive the round trip
    assert float(val) == pytest.approx(3 / 2 * (1 / 3) ** 2, abs=1e-12)
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15
